// Shared types of the end-to-end benchmark (adpm_bench).
//
// A workload plays TeamSim designer teams as closed-loop clients of the
// session service: four clients, each waiting for every reply, each working
// through one session at a time and opening the next (seeded from the run
// seed and the session index) when its session completes or reaches the
// workload's operation cap.  A run measures for a fixed wall time; sessions
// inside the golden and sample prefixes always run to completion so their
// digests are comparable across runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "dpm/operation.hpp"
#include "dpm/scenario.hpp"
#include "service/session.hpp"
#include "trace.hpp"

namespace adpm::bench {

/// Concurrent clients (sessions in flight) and executor workers.
inline constexpr unsigned kClients = 4;
/// Sessions opened by the timed set-up, one per client.
inline constexpr std::size_t kPreopened = kClients;

/// Scenario + flow of one session; session k runs variants[k % size].
struct Variant {
  std::string scenario;
  bool adpm = true;
};

struct WorkloadSpec {
  std::string name;
  bool wire = false;
  std::vector<Variant> variants;
  /// Operations after which a session is retired (a runaway guard when the
  /// sessions are meant to run to completion).
  std::size_t opCap = 20000;
  /// Reads before every apply: queryGuidance calls, then snapshot calls.
  std::size_t guidanceReads = 1;
  std::size_t snapshotReads = 0;
  /// Sessions 0..goldenSessions-1 make up the golden file's digest.
  std::size_t goldenSessions = 0;
  /// Sessions 0..sampleSessions-1 are replayed layer by layer.
  std::size_t sampleSessions = 4;
  /// Sessions 0..recoverSessions-1 are rebuilt by the recovery timing, from
  /// the replay's journal (in process, so at most sampleSessions) or the
  /// server's log.
  std::size_t recoverSessions = 4;
};

/// Sessions that must run to completion, past the deadline if need be.
std::size_t requiredSessions(const WorkloadSpec& workload);

/// Recovery directories hold this many sessions each: a store that keeps
/// dozens of recovered sessions alive measures page faulting as much as
/// recovery, and swings with the machine's memory load.
inline constexpr std::size_t kRecoverChunk = 8;

/// The recovery directory holding session k's log chain.
std::filesystem::path recoverDirOf(const std::filesystem::path& walDir,
                                   std::size_t k);

struct RunConfig {
  WorkloadSpec workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Private scratch directory of this run (journals, server log, WAL).
  std::filesystem::path workDir;
  std::filesystem::path serverExe;
  /// Where a traced run writes its spans (none when empty).
  std::filesystem::path spansFile;
};

/// The journal cadence of the wire server and of the replay's journal:
/// flush-only WAL (walSync off, the server default), a segment every 64
/// operations, a checkpoint every 16, the default mark every 32.
service::Session::Options journalOptions();

/// A scenario as the service sees it: parsed back from its canonical DDDL.
struct Scenario {
  std::string name;
  dpm::ScenarioSpec spec;
  std::string dddl;
  /// Seats: problem owners, one notification subscriber each.
  std::vector<std::string> designers;
};

/// Millisecond timings of one scenario preparation.
struct PrepareTimes {
  double generateMs = 0.0;
  double writeMs = 0.0;
  double parseMs = 0.0;
};

/// Generates (or builds) each distinct scenario of the workload, renders it
/// to DDDL and parses it back; adds each step's time to `times`.
std::vector<Scenario> prepareScenarios(const WorkloadSpec& workload,
                                       PrepareTimes& times);

/// Index into the prepared scenarios for session k.
std::size_t scenarioOf(const WorkloadSpec& workload,
                       const std::vector<Scenario>& scenarios, std::size_t k);

/// Designer seeds of session k: distinct streams per run seed and session.
std::uint64_t sessionSeed(std::uint64_t runSeed, std::size_t k);

/// Service-side id of session k ("s<k>" in process, "w<k>" on the wire).
std::string sessionId(const WorkloadSpec& workload, std::size_t k);

struct SessionResult {
  std::size_t index = 0;
  std::size_t scenario = 0;
  bool adpm = true;
  std::size_t ops = 0;
  std::size_t evaluations = 0;
  std::size_t spins = 0;
  /// Ran until complete, deadlocked or capped (not cut by the deadline).
  bool finished = false;
  bool complete = false;
  bool failed = false;
  /// Service-side snapshot digest after the last operation.
  std::string digest;
  /// Applied operations, kept for sampled sessions only.
  std::vector<dpm::Operation> stream;
};

/// Latency samples in log-spaced buckets of 1/1024 relative width (up to
/// about 18 minutes): recording never allocates and the footprint does not
/// grow with the run, so the measurement stays out of the peak RSS it
/// reports.  Percentiles read back as the midpoint of their bucket.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(double micros);
  void merge(const LatencyHistogram& other);
  std::size_t count() const noexcept { return total_; }
  /// Nearest-rank percentile (q in [0,1]); 0 when empty.
  double percentile(double q) const;

 private:
  static constexpr int kSubBits = 10;
  static constexpr int kMinExponent = -10;
  static constexpr int kMaxExponent = 30;
  std::vector<std::uint32_t> counts_;
  std::size_t total_ = 0;
};

/// How one designer turn is measured.
struct TurnMode {
  /// Started before the deadline: counts towards the end-to-end metrics.
  bool timed = false;
  /// Records spans (traced run, half the turns, while every buffer has
  /// room).
  bool traced = false;
  /// Started while tracing was on: traced and untraced turns of this window
  /// ran under the same conditions and give the tracing overhead.
  bool window = false;
};

/// The timed phase [start, start + seconds).  A traced run traces half of
/// each session's turns, picked by a hash of (session, stage) so the choice
/// does not follow the designers' round-robin, until a client's span buffer
/// fills.
class PhaseClock {
 public:
  PhaseClock(double seconds, bool trace);

  /// How turn `stage` of `session`, starting at `now`, is measured, for a
  /// client recording into `spans` (null when the run is untraced).
  TurnMode at(Clock::time_point now, const SpanBuffer* spans,
              std::size_t session, std::size_t stage);

  Clock::time_point start() const noexcept { return start_; }
  Clock::time_point deadline() const noexcept { return deadline_; }

 private:
  Clock::time_point start_;
  Clock::time_point deadline_;
  bool trace_;
  std::atomic<bool> traceStopped_{false};
};

/// Keeps every core busy for a moment before timing starts.  On the
/// reference machine the first second of four-core load otherwise runs at
/// about a third of steady speed, which a designer at a warm server never
/// sees.
void warmCores();

/// Set-up repeats at least five times, then while under half a second (at
/// most 200 times).
bool moreSetupReps(int rep, Clock::time_point begin);

/// What one client thread measured.
struct ClientStats {
  SpanBuffer* spans = nullptr;
  LatencyHistogram opLatencyUs;
  LatencyHistogram readLatencyUs;
  std::vector<double> openMs;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string firstFailure;
  std::size_t timedOps = 0;
  Clock::time_point timedEnd{};
  /// Turn durations inside the tracing window, traced and untraced.
  double windowTracedUs = 0.0;
  double windowUntracedUs = 0.0;
  std::size_t windowTraced = 0;
  std::size_t windowUntraced = 0;
  std::vector<SessionResult> sessions;

  void endTurn(const TurnMode& mode, Clock::time_point start,
               Clock::time_point end);
  void fail(const std::string& what);
};

/// Spans each client may record in the traced part of the phase.
inline constexpr std::size_t kClientSpanCapacity = 1u << 16;

/// What the timed phase measured.
struct LiveResult {
  std::vector<SessionResult> sessions;  // ascending index
  LatencyHistogram opLatencyUs;
  LatencyHistogram readLatencyUs;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string firstFailure;
  /// Operations whose turn started inside the timed phase, and the time
  /// from its start to the end of the last of them.
  std::size_t timedOps = 0;
  double timedWallS = 0.0;
  /// Process CPU over the timed phase (wire: benchmark process + server).
  double cpuS = 0.0;
  double peakRssMb = 0.0;
  /// Median of the set-up repetitions, and every repetition.
  double setupS = 0.0;
  std::vector<double> setupRepsS;
  PrepareTimes prepare;  // medians over the repetitions
  std::vector<double> openMs;
  /// Notification bus over the whole run.
  double published = 0.0;
  double dropped = 0.0;
  double downgrades = 0.0;
  /// Wire only: server pushes over the whole run, and all operations
  /// applied (timed or not), for per-op ratios of whole-run counters.
  double pushes = 0.0;
  double totalOps = 0.0;
  /// Traced run: mean turn time of traced and of untraced turns in the
  /// tracing window (per-client throughput is its inverse: closed loop).
  double tracedTurnUs = 0.0;
  double untracedTurnUs = 0.0;
  SpanSet spans;
  Clock::time_point origin;
  /// Journal directory whose sessions the recovery timing rebuilds: the
  /// replay's journal (in-process) or the server's WAL (wire).
  std::filesystem::path walDir;
  /// Wire only: bytes the server's WAL directory held after the drain.
  double walDiskBytes = 0.0;
};

/// Folds the clients' measurements into `live` (sessions sorted by index,
/// timed-phase totals, traced and untraced turn times).
void mergeClients(LiveResult& live, std::vector<ClientStats>& clients,
                  const PhaseClock& clock);

LiveResult runInProcess(const RunConfig& config);
LiveResult runWire(const RunConfig& config);

/// Layer replay of the sampled sessions (see replay.cpp).  Appends its span
/// buffers to `live.spans`; returns the number of mismatches found (digest,
/// mined guidance), describing the first in `firstMismatch`.
std::size_t replaySample(const RunConfig& config, LiveResult& live,
                         std::string& firstMismatch);

struct RecoveryResult {
  double medianS = 0.0;
  std::size_t sessions = 0;
  double opsReplayed = 0.0;
  std::size_t mismatches = 0;
  std::string firstMismatch;
};

/// Times SessionStore::recover() over the directories under `live.walDir`
/// (one store each, summed) in a fresh child process — what a restarted
/// server does — for several repetitions (median), and checks each
/// recovered digest against the live one.
RecoveryResult timeRecovery(const RunConfig& config, const LiveResult& live);

/// The child side of timeRecovery (adpm_bench --recover <dir>): prints the
/// repetition times and the recovered sessions' digests as one JSON line.
int recoverMain(const std::filesystem::path& walDir);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Samples behind a percentile or median (0 for totals and ratios).
  std::size_t samples = 0;
};

/// The designer-perceived metrics of the untraced run; `failed` counts
/// failed operations plus replay and recovery mismatches.
std::vector<Metric> endToEndMetrics(const LiveResult& live,
                                    const RecoveryResult& recovery,
                                    std::size_t failed);

/// The per-layer breakdown of the traced run.
std::vector<Metric> perLayerMetrics(const RunConfig& config,
                                    const LiveResult& live,
                                    const RecoveryResult& recovery);

/// Golden-file text over sessions 0..goldenSessions-1: operations, charged
/// evaluations, spins and fnv1a-64 over the ordered session digests.
/// Empty when one of those sessions did not finish.
std::string goldenText(const RunConfig& config, const LiveResult& live);

/// User + system CPU of this process so far, and its peak resident set.
double processCpuSeconds();
double processPeakRssMb();

/// Bytes of the regular files under `dir`, subdirectories included.
double directoryBytes(const std::filesystem::path& dir);

/// This executable (for re-running it as a child).
std::filesystem::path executablePath();

/// A child process whose standard output and error go to a log file.  The
/// destructor kills and reaps a child that was not waited for, so no path
/// leaves one running.
class ChildProcess {
 public:
  ChildProcess(std::vector<std::string> argv,
               const std::filesystem::path& logPath);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  int pid() const noexcept { return pid_; }
  /// True once the child has exited (it is reaped then).
  bool exited();

  struct Exit {
    int code = -1;
    double peakRssMb = 0.0;
  };
  /// Sends `signal` (none when 0), then reaps the child.
  Exit wait(int signal = 0);

 private:
  int pid_ = -1;
};

/// Percentile by nearest rank (q in [0,1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

}  // namespace adpm::bench
