// Pieces shared by the in-process and wire drivers.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <cmath>
#include <set>
#include <thread>

#include "bench.hpp"
#include "dddl/parser.hpp"
#include "dddl/writer.hpp"
#include "gen/registry.hpp"

extern char** environ;

namespace adpm::bench {

namespace {
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 200;
constexpr double kSetupBudgetS = 0.5;
}  // namespace

service::Session::Options journalOptions() {
  service::Session::Options options;
  options.walSync = false;
  options.segmentOps = 64;
  options.checkpointEvery = 16;
  options.checkpointKeep = 2;
  return options;
}

std::vector<Scenario> prepareScenarios(const WorkloadSpec& workload,
                                       PrepareTimes& times) {
  std::vector<Scenario> out;
  for (const Variant& variant : workload.variants) {
    if (std::any_of(out.begin(), out.end(), [&](const Scenario& s) {
          return s.name == variant.scenario;
        })) {
      continue;
    }
    const auto t0 = Clock::now();
    const dpm::ScenarioSpec built = gen::scenarioByName(variant.scenario);
    const auto t1 = Clock::now();
    Scenario scenario;
    scenario.name = variant.scenario;
    scenario.dddl = dddl::write(built);
    const auto t2 = Clock::now();
    scenario.spec = dddl::parse(scenario.dddl);
    const auto t3 = Clock::now();
    times.generateMs += microsBetween(t0, t1) / 1000.0;
    times.writeMs += microsBetween(t1, t2) / 1000.0;
    times.parseMs += microsBetween(t2, t3) / 1000.0;
    std::set<std::string> seats;
    for (const dpm::ScenarioSpec::Prob& p : scenario.spec.problems) {
      if (!p.owner.empty()) seats.insert(p.owner);
    }
    scenario.designers.assign(seats.begin(), seats.end());
    out.push_back(std::move(scenario));
  }
  return out;
}

std::size_t scenarioOf(const WorkloadSpec& workload,
                       const std::vector<Scenario>& scenarios, std::size_t k) {
  const std::string& name =
      workload.variants[k % workload.variants.size()].scenario;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (scenarios[i].name == name) return i;
  }
  return 0;
}

std::uint64_t sessionSeed(std::uint64_t runSeed, std::size_t k) {
  return (runSeed << 20) + k;
}

std::size_t requiredSessions(const WorkloadSpec& workload) {
  return std::max({workload.goldenSessions, workload.sampleSessions,
                   workload.recoverSessions});
}

std::filesystem::path recoverDirOf(const std::filesystem::path& walDir,
                                   std::size_t k) {
  return walDir / ("chunk" + std::to_string(k / kRecoverChunk));
}

std::string sessionId(const WorkloadSpec& workload, std::size_t k) {
  std::string id = workload.wire ? "w" : "s";
  id += std::to_string(k);
  return id;
}

PhaseClock::PhaseClock(double seconds, bool trace) : trace_(trace) {
  start_ = Clock::now();
  deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
}

TurnMode PhaseClock::at(Clock::time_point now, const SpanBuffer* spans,
                        std::size_t session, std::size_t stage) {
  TurnMode mode;
  mode.timed = now < deadline_;
  if (!mode.timed || !trace_ || traceStopped_.load()) return mode;
  if (spans->nearlyFull()) {
    traceStopped_.store(true);
    return mode;
  }
  mode.window = true;
  std::uint64_t h =
      session * 0x9e3779b97f4a7c15ull ^ stage * 0xc2b2ae3d27d4eb4full;
  h ^= h >> 31;
  mode.traced = (h * 0xbf58476d1ce4e5b9ull) >> 63 == 1;
  return mode;
}

void warmCores() {
  const auto until = Clock::now() + std::chrono::milliseconds(1500);
  std::vector<std::jthread> threads;
  for (unsigned i = 0; i < kClients; ++i) {
    threads.emplace_back([until] {
      volatile double x = 1.0;
      while (Clock::now() < until) {
        for (int j = 0; j < 1000; ++j) x = x * 1.0000001 + 1e-9;
      }
    });
  }
}

bool moreSetupReps(int rep, Clock::time_point begin) {
  if (rep < kMinSetupReps) return true;
  return rep < kMaxSetupReps &&
         microsBetween(begin, Clock::now()) < kSetupBudgetS * 1e6;
}

void ClientStats::endTurn(const TurnMode& mode, Clock::time_point start,
                          Clock::time_point end) {
  if (mode.timed) {
    ++timedOps;
    timedEnd = std::max(timedEnd, end);
  }
  if (mode.window) {
    const double micros = microsBetween(start, end);
    if (mode.traced) {
      windowTracedUs += micros;
      ++windowTraced;
    } else {
      windowUntracedUs += micros;
      ++windowUntraced;
    }
  }
}

void ClientStats::fail(const std::string& what) {
  ++failed;
  if (firstFailure.empty()) firstFailure = what;
}

void mergeClients(LiveResult& live, std::vector<ClientStats>& clients,
                  const PhaseClock& clock) {
  Clock::time_point timedEnd = clock.start();
  double tracedUs = 0.0, untracedUs = 0.0;
  std::size_t traced = 0, untraced = 0;
  for (ClientStats& c : clients) {
    live.opLatencyUs.merge(c.opLatencyUs);
    live.readLatencyUs.merge(c.readLatencyUs);
    live.openMs.insert(live.openMs.end(), c.openMs.begin(), c.openMs.end());
    live.attempted += c.attempted;
    live.failed += c.failed;
    if (live.firstFailure.empty()) live.firstFailure = c.firstFailure;
    live.timedOps += c.timedOps;
    timedEnd = std::max(timedEnd, c.timedEnd);
    tracedUs += c.windowTracedUs;
    untracedUs += c.windowUntracedUs;
    traced += c.windowTraced;
    untraced += c.windowUntraced;
    for (SessionResult& r : c.sessions) live.sessions.push_back(std::move(r));
  }
  std::sort(live.sessions.begin(), live.sessions.end(),
            [](const SessionResult& a, const SessionResult& b) {
              return a.index < b.index;
            });
  for (const SessionResult& r : live.sessions) live.totalOps += r.ops;
  live.timedWallS = microsBetween(clock.start(), timedEnd) * 1e-6;
  if (traced > 0) live.tracedTurnUs = tracedUs / static_cast<double>(traced);
  if (untraced > 0) {
    live.untracedTurnUs = untracedUs / static_cast<double>(untraced);
  }
}

LatencyHistogram::LatencyHistogram()
    : counts_(static_cast<std::size_t>(kMaxExponent - kMinExponent)
              << kSubBits) {}

void LatencyHistogram::add(double micros) {
  int exponent = 0;
  const double mantissa = std::frexp(micros, &exponent);  // [0.5, 1)
  std::size_t index = 0;
  if (micros > 0.0 && exponent >= kMinExponent) {
    exponent = std::min(exponent, kMaxExponent - 1);
    const auto sub = std::min<std::size_t>(
        static_cast<std::size_t>((mantissa - 0.5) * (2 << kSubBits)),
        (1u << kSubBits) - 1);
    index = (static_cast<std::size_t>(exponent - kMinExponent) << kSubBits) +
            sub;
  }
  ++counts_[index];
  ++total_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

double LatencyHistogram::percentile(double q) const {
  if (total_ == 0) return 0.0;
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(total_))));
  std::size_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen < rank) continue;
    const int exponent = static_cast<int>(i >> kSubBits) + kMinExponent;
    const double sub = static_cast<double>(i & ((1u << kSubBits) - 1));
    return std::ldexp(0.5 + (sub + 0.5) / (2 << kSubBits), exponent);
  }
  return 0.0;
}

double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double processPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double directoryBytes(const std::filesystem::path& dir) {
  double total = 0.0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      total += static_cast<double>(entry.file_size());
    }
  }
  return total;
}

std::filesystem::path executablePath() {
  return std::filesystem::read_symlink("/proc/self/exe");
}

ChildProcess::ChildProcess(std::vector<std::string> argv,
                           const std::filesystem::path& logPath) {
  std::vector<char*> args;
  for (std::string& a : argv) args.push_back(a.data());
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, logPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
  pid_ = pid;
}

ChildProcess::~ChildProcess() {
  if (pid_ > 0) wait(SIGKILL);
}

bool ChildProcess::exited() {
  if (pid_ <= 0) return true;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) != pid_) return false;
  pid_ = -1;
  return true;
}

ChildProcess::Exit ChildProcess::wait(int signal) {
  Exit out;
  if (pid_ <= 0) return out;
  if (signal != 0) ::kill(pid_, signal);
  int status = 0;
  rusage ru{};
  while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  out.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  out.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return out;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

}  // namespace adpm::bench
