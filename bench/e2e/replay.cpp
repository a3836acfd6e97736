// Layer replay of the sampled sessions, and the recovery timing.
//
// The live service only exposes whole operations, so the split of one
// operation across layers comes from re-running each sampled session's
// recorded operation stream on a stack the benchmark owns, in the order
// Session::applyImpl uses: SegmentedLog::appendOperation, then
// DesignProcessManager::execute, then NotificationBus::publish, then the
// snapshot render + appendMark / writeCheckpoint at the journal cadence.
// Each step is timed as a span tagged with the live request (session,
// stage), so the parts can be summed against the in-situ service.apply.
//
// The replay re-plays whole turns, not just the operations: closed-loop
// drivers post every step — the reads, the re-proposal (which must
// reproduce the recorded operation), the apply, the observe — as a strand
// task on an executor shaped like the service's, and all sessions publish
// into one shared bus.  Microsecond-scale operations cost what their thread
// hops, cache state and bus contention make them cost; replaying them
// back-to-back on one thread under-counts the live apply by a third.
//
// In the traced run every operation also gets a clone — instantiate +
// restoreState(exportState()) of the post-operation state — on which
// Propagator::run, HeuristicMiner::mine and NotificationManager::diff are
// timed one by one; the clone's mined violations and what-if evaluations
// must equal the replay manager's latestGuidance().  The replay's final
// digest must equal the live session's.  On the wire workload the traced
// run also replays each stream through a bench-owned service::Session,
// whose whole apply() stands in for the server's (it cannot be timed from
// outside the server process).
//
// The replay's journal doubles as the recovery input of the in-process
// workloads, whose live stores are volatile.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <thread>

#include "bench.hpp"
#include "constraint/miner.hpp"
#include "constraint/propagate.hpp"
#include "dddl/writer.hpp"
#include "dpm/manager.hpp"
#include "dpm/notification.hpp"
#include "dpm/operation_io.hpp"
#include "dpm/state_io.hpp"
#include "expr/sweep.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "service/bus.hpp"
#include "service/store.hpp"
#include "service/wal.hpp"
#include "teamsim/client.hpp"
#include "util/json.hpp"
#include "util/executor.hpp"
#include "util/strings.hpp"

namespace adpm::bench {

namespace {

namespace fs = std::filesystem;
namespace json = util::json;

struct ReplayJob {
  const SessionResult* live = nullptr;
  const Scenario* scenario = nullptr;
  std::string id;
  /// Sessions in the recovery set journal into the recovery directory.
  fs::path journalDir;
  SpanBuffer* spans = nullptr;
  std::size_t mismatches = 0;
  std::string firstMismatch;

  void mismatch(const std::string& what) {
    if (mismatches++ == 0) firstMismatch = "session " + id + ": " + what;
  }
};

/// Encodes the operation as the Apply request and the record as its Result
/// response, and decodes the request again — the frame work one operation
/// costs on the wire.  Returns the bytes of both frames.
std::size_t frameRoundTrip(
    const std::string& id, std::size_t stage, const dpm::Operation& op,
    const dpm::DesignProcessManager::ExecResult& result) {
  json::Value request{json::Object{}};
  request.set("session", id);
  request.set("op", dpm::operationToJson(op));
  request.set("req", stage);
  const std::string requestFrame =
      net::encodeFrame(net::FrameType::Apply, json::serialize(request));
  net::FrameParser parser;
  parser.feed(requestFrame.data(), requestFrame.size());
  const std::optional<net::Frame> frame = parser.next();
  const dpm::Operation decoded =
      dpm::operationFromJson(json::parse(frame->payload).at("op"));
  (void)decoded;
  json::Value response{json::Object{}};
  response.set("req", stage);
  response.set("record", net::operationRecordToJson(result.record));
  response.set("notifications", result.notifications.size());
  const std::string responseFrame =
      net::encodeFrame(net::FrameType::Result, json::serialize(response));
  return requestFrame.size() + responseFrame.size();
}

/// One sampled session's replay stack, driven one turn step per strand task.
class SessionReplay {
 public:
  SessionReplay(const RunConfig& config, service::NotificationBus& bus,
                ReplayJob& job)
      : config_(config),
        job_(job),
        live_(*job.live),
        scenario_(*job.scenario),
        spans_(*job.spans),
        session_(static_cast<std::uint32_t>(job.live->index)),
        basePath_((job.journalDir / (job.id + ".wal")).string()),
        dpm_(dpm::DesignProcessManager::Options{.adpm = job.live->adpm}),
        bus_(bus) {
    sessionConfig_.id = job.id;
    sessionConfig_.adpm = live_.adpm;
    sessionConfig_.scenarioName = scenario_.spec.name;
    sessionConfig_.scenarioDddl = dddl::write(scenario_.spec);
    logOptions_.sync = cadence_.walSync;
    logOptions_.segmentOps = cadence_.segmentOps;
    log_ = std::make_unique<service::SegmentedLog>(basePath_, sessionConfig_,
                                                   logOptions_);
    dpm::instantiate(scenario_.spec, dpm_);
    dpm_.bootstrap();
    teamsim::SimulationOptions sim;
    sim.adpm = live_.adpm;
    sim.seed = sessionSeed(config.seed, live_.index);
    team_.emplace(dpm_, sim);
    for (const std::string& designer : scenario_.designers) {
      queues_.push_back(bus_.subscribe(job.id, designer));
    }
    if (config.workload.wire && config.trace) {
      whole_ = std::make_unique<service::Session>(
          sessionConfig_, scenario_.spec,
          std::make_unique<service::SegmentedLog>(
              (job.journalDir / "whole" / (job.id + ".wal")).string(),
              sessionConfig_, logOptions_),
          cadence_);
    }
  }

  /// The reads that precede each operation in the live turn.
  void readGuidance() {
    std::optional<constraint::GuidanceReport> g;
    if (const auto* p = dpm_.latestGuidance()) g = *p;
  }
  void readSnapshot() {
    (void)util::fnv1a64Hex(service::snapshotText(dpm_));
  }

  /// Re-proposes operation i with the live session's designers; the
  /// proposal must be the recorded operation (determinism of f_o).
  void propose(std::size_t i) {
    const std::optional<dpm::Operation> op = team_->propose(dpm_);
    if (!op || dpm::operationToJsonLine(*op) !=
                   dpm::operationToJsonLine(live_.stream[i])) {
      job_.mismatch("re-proposed operation differs at stage " +
                    std::to_string(i + 1));
    }
  }

  void observe() { team_->observe(dpm_, lastRecord_); }

  /// Operation i through the decomposed stack, then (traced) the clone split.
  void apply(std::size_t i) {
    const dpm::Operation& op = live_.stream[i];
    const std::size_t stage = i + 1;
    const auto stage32 = static_cast<std::uint32_t>(stage);
    const std::vector<constraint::Status> statusBefore = dpm_.knownStatuses();
    std::optional<constraint::GuidanceReport> guidanceBefore;
    if (config_.trace && dpm_.latestGuidance() != nullptr) {
      guidanceBefore = *dpm_.latestGuidance();
    }

    const std::size_t segmentBefore = log_->segmentSeq();
    const std::size_t tailBefore = log_->current().tailOffset();
    const auto t0 = Clock::now();
    log_->appendOperation(op);
    const auto t1 = Clock::now();
    const dpm::DesignProcessManager::ExecResult result = dpm_.execute(op);
    const auto t2 = Clock::now();
    lastRecord_ = result.record;
    bus_.publish(job_.id, result.notifications);
    const auto t3 = Clock::now();
    for (const auto& queue : queues_) {
      while (queue->tryPop()) {
      }
    }
    const std::uint32_t root = spans_.add("replay.op", SpanBuffer::kNoParent,
                                          session_, stage32, t0, t3);
    spans_.add("wal.append", root, session_, stage32, t0, t1);
    spans_.add("dpm.execute", root, session_, stage32, t1, t2);
    spans_.add("bus.publish", root, session_, stage32, t2, t3);
    spans_.count("wal.append_bytes",
                 static_cast<double>(
                     log_->segmentSeq() == segmentBefore
                         ? log_->current().tailOffset() - tailBefore
                         : log_->current().tailOffset()));
    spans_.count("replay.ops", 1);

    const bool markDue = stage % cadence_.markEvery == 0;
    const bool checkpointDue = stage % cadence_.checkpointEvery == 0;
    if (markDue || checkpointDue) {
      const auto s0 = Clock::now();
      const std::string text = service::snapshotText(dpm_);
      const std::string digest = util::fnv1a64Hex(text);
      const auto s1 = Clock::now();
      spans_.add("service.snapshot", root, session_, stage32, s0, s1);
      spans_.count("service.snapshot_bytes", text.size());
      spans_.count("service.snapshots", 1);
      if (markDue) {
        log_->appendMark(stage, digest);
        spans_.add("wal.mark", root, session_, stage32, s1, Clock::now());
        lastMark_ = stage;
      }
      if (checkpointDue) {
        const auto c0 = Clock::now();
        log_->writeCheckpoint(dpm::managerStateToJson(dpm_.exportState()),
                              stage, digest, cadence_.checkpointKeep);
        spans_.add("wal.checkpoint", root, session_, stage32, c0,
                   Clock::now());
        spans_.count("wal.checkpoint_bytes",
                     static_cast<double>(fs::file_size(service::checkpointPath(
                         basePath_, log_->checkpointsWritten()))));
        spans_.count("wal.checkpoints", 1);
      }
    }

    const auto f0 = Clock::now();
    const std::size_t frameBytes = frameRoundTrip(job_.id, stage, op, result);
    spans_.add("net.frame_codec", root, session_, stage32, f0, Clock::now());
    spans_.count("net.frame_bytes", frameBytes);

    if (config_.trace) {
      splitOnClone(stage, root, statusBefore, guidanceBefore);
    }
  }

  /// Operation i through the bench-owned whole Session (wire, traced).
  void applyWhole(std::size_t i) {
    const auto a0 = Clock::now();
    whole_->apply(live_.stream[i]);
    spans_.add("replay.session_apply", SpanBuffer::kNoParent, session_,
               static_cast<std::uint32_t>(i + 1), a0, Clock::now());
  }

  /// Seals the journal with the final digest, as Session's destructor does,
  /// and checks the replayed state against the live session's.
  void finish() {
    const std::string digest = util::fnv1a64Hex(service::snapshotText(dpm_));
    const std::size_t stage = live_.stream.size();
    if (stage > 0 && lastMark_ != stage) log_->appendMark(stage, digest);
    if (digest != live_.digest) {
      job_.mismatch("replay digest " + digest + " != live digest " +
                    live_.digest);
    }
    if (whole_ && whole_->snapshot().digest != live_.digest) {
      job_.mismatch("whole-session replay digest differs from the live one");
    }
  }

 private:
  /// Propagate, mine and diff one by one on a copy of the post-operation
  /// state; the clone's mined guidance must equal the replay manager's.
  void splitOnClone(
      std::size_t stage, std::uint32_t root,
      const std::vector<constraint::Status>& statusBefore,
      const std::optional<constraint::GuidanceReport>& guidanceBefore) {
    const auto stage32 = static_cast<std::uint32_t>(stage);
    dpm::DesignProcessManager clone(
        dpm::DesignProcessManager::Options{.adpm = live_.adpm});
    dpm::instantiate(scenario_.spec, clone);
    clone.restoreState(dpm_.exportState());
    constraint::Network& net = clone.network();
    const std::uint64_t sweepsBefore = expr::sweepCount();
    std::vector<constraint::Status> statusAfter = dpm_.knownStatuses();
    std::optional<constraint::GuidanceReport> mined;
    if (live_.adpm) {
      const auto p0 = Clock::now();
      const constraint::PropagationResult propagation = propagator_.run(net);
      const auto p1 = Clock::now();
      mined = miner_.mine(net, propagation);
      const auto p2 = Clock::now();
      spans_.add("constraint.propagate", root, session_, stage32, p0, p1);
      spans_.add("constraint.mine", root, session_, stage32, p1, p2);
      spans_.count("constraint.revises", propagation.evaluations);
      spans_.count("constraint.passes", propagation.passes);
      spans_.count("constraint.whatif_evals", mined->extraEvaluations);
      spans_.count("constraint.sweeps",
                   static_cast<double>(expr::sweepCount() - sweepsBefore));
      spans_.count("replay.adpm_ops", 1);
      const constraint::GuidanceReport* expected = dpm_.latestGuidance();
      if (expected == nullptr || expected->violated != mined->violated ||
          expected->extraEvaluations != mined->extraEvaluations) {
        job_.mismatch("clone guidance differs from the replay's at stage " +
                      std::to_string(stage));
      }
      statusAfter = propagation.status;
    }
    const auto d0 = Clock::now();
    (void)nm_.diff(
        stage, net, statusBefore, statusAfter,
        guidanceBefore ? &*guidanceBefore : nullptr, mined ? &*mined : nullptr,
        [&clone](const constraint::Constraint& c) {
          std::set<std::string> audience;
          for (const constraint::PropertyId arg : c.arguments()) {
            const std::string owner = clone.ownerOfProperty(arg);
            if (!owner.empty()) audience.insert(owner);
          }
          return std::vector<std::string>(audience.begin(), audience.end());
        },
        [&clone](constraint::PropertyId p) {
          return clone.ownerOfProperty(p);
        });
    spans_.add("dpm.nm_diff", root, session_, stage32, d0, Clock::now());
    std::size_t active = 0;
    for (const constraint::ConstraintId c : net.constraintIds()) {
      if (net.isActive(c)) ++active;
    }
    spans_.count("constraint.active", static_cast<double>(active));
  }

  const RunConfig& config_;
  ReplayJob& job_;
  const SessionResult& live_;
  const Scenario& scenario_;
  SpanBuffer& spans_;
  const std::uint32_t session_;
  const service::Session::Options cadence_ = journalOptions();
  const std::string basePath_;
  service::SessionConfig sessionConfig_;
  service::SegmentedLog::Options logOptions_;
  std::unique_ptr<service::SegmentedLog> log_;
  dpm::DesignProcessManager dpm_;
  service::NotificationBus& bus_;
  std::vector<std::shared_ptr<service::NotificationBus::Queue>> queues_;
  const dpm::DesignConstraintManager::Options dcm_ =
      dpm::DesignProcessManager::Options{}.dcm;
  const constraint::Propagator propagator_{dcm_.propagation};
  const constraint::HeuristicMiner miner_{dcm_.miner};
  const dpm::NotificationManager nm_;
  std::unique_ptr<service::Session> whole_;
  std::optional<teamsim::TeamClient> team_;
  dpm::OperationRecord lastRecord_;
  std::size_t lastMark_ = 0;
};

}  // namespace

std::size_t replaySample(const RunConfig& config, LiveResult& live,
                         std::string& firstMismatch) {
  const WorkloadSpec& w = config.workload;
  PrepareTimes ignored;
  const std::vector<Scenario> scenarios = prepareScenarios(w, ignored);
  // In process, the recovery set journals into the directory the recovery
  // timing rebuilds; everything else (and every wire session, whose
  // recovery input is the server's own log) into a scratch directory.
  const fs::path scratchDir = config.workDir / "replay";
  fs::create_directories(scratchDir / "whole");

  std::vector<ReplayJob> jobs;
  for (const SessionResult& r : live.sessions) {
    if (r.index >= w.sampleSessions) break;
    ReplayJob job;
    job.live = &r;
    job.scenario = &scenarios[r.scenario];
    job.id = sessionId(w, r.index);
    job.journalDir = !w.wire && r.index < w.recoverSessions
                         ? recoverDirOf(live.walDir, r.index)
                         : scratchDir;
    fs::create_directories(job.journalDir);
    // Spans per operation: the op, its parts, the clone split, the whole
    // apply; plus headroom.
    job.spans = &live.spans.emplace_back(r.stream.size() * 16 + 64);
    jobs.push_back(std::move(job));
  }

  // Closed-loop drivers on an executor shaped like the service's: every
  // step is a strand task its driver waits for, so the replayed parts hop
  // between worker threads and share the CPUs with waking clients, as the
  // live ones did.
  {
    util::Executor executor(util::Executor::Options{.threads = kClients});
    service::NotificationBus bus;  // shared, like the store's
    // Strands outlive every task they ran: the executor touches a strand
    // after its last task returns, until drain() says it is done.
    std::vector<std::shared_ptr<util::Executor::Strand>> strands;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      strands.push_back(executor.makeStrand());
    }
    std::atomic<std::size_t> next{0};
    {
      std::vector<std::jthread> drivers;
      for (unsigned d = 0; d < kClients; ++d) {
        drivers.emplace_back([&] {
          for (std::size_t j = next.fetch_add(1); j < jobs.size();
               j = next.fetch_add(1)) {
            ReplayJob& job = jobs[j];
            util::Executor::Strand& strand = *strands[j];
            const auto step = [&job, &strand](const auto& fn) {
              auto done = std::make_shared<std::promise<void>>();
              std::future<void> finished = done->get_future();
              strand.post([&job, &fn, done] {
                try {
                  fn();
                } catch (const std::exception& e) {
                  job.mismatch(std::string("replay failed: ") + e.what());
                }
                done->set_value();
              });
              finished.wait();
              return job.mismatches == 0;  // stop at the first failure
            };
            std::unique_ptr<SessionReplay> replay;
            bool ok = step([&] {
              replay = std::make_unique<SessionReplay>(config, bus, job);
            });
            for (std::size_t i = 0; ok && i < job.live->stream.size(); ++i) {
              for (std::size_t r = 0; ok && r < w.guidanceReads; ++r) {
                ok = step([&] { replay->readGuidance(); });
              }
              for (std::size_t r = 0; ok && r < w.snapshotReads; ++r) {
                ok = step([&] { replay->readSnapshot(); });
              }
              if (ok && !w.wire) ok = step([&] { replay->propose(i); });
              if (ok) ok = step([&] { replay->apply(i); });
              if (ok && !w.wire) ok = step([&] { replay->observe(); });
              if (ok && w.wire && config.trace) {
                ok = step([&] { replay->applyWhole(i); });
              }
            }
            if (ok) step([&] { replay->finish(); });
          }
        });
      }
    }
    executor.drain();
  }

  std::size_t mismatches = 0;
  for (const ReplayJob& job : jobs) {
    if (job.mismatches > 0 && mismatches == 0) {
      firstMismatch = job.firstMismatch;
    }
    mismatches += job.mismatches;
  }
  if (!w.wire && !jobs.empty()) {
    jobs.front().spans->count("wal.disk_bytes", directoryBytes(live.walDir) +
                                                    directoryBytes(scratchDir));
  }
  return mismatches;
}

namespace {

/// One SessionStore::recover() over `dir` in a fresh store; returns its
/// seconds.  With `inspect`, records errors and each session's digest and
/// replayed operations.
double recoverOnce(const fs::path& dir, bool inspect, json::Array& errors,
                   json::Value& sessions) {
  service::SessionStore::Options options;
  options.executor.threads = kClients;
  options.walDir = dir.string();
  options.session = journalOptions();
  service::SessionStore store(std::move(options));
  const auto t0 = Clock::now();
  const std::vector<std::string> ids = store.recover();
  const double seconds = microsBetween(t0, Clock::now()) * 1e-6;
  if (!inspect) return seconds;

  for (const std::string& error : store.recoverErrors()) {
    errors.push_back(error);
  }
  std::map<std::string, std::size_t> replayed;
  for (const service::RecoveryEvent& event : store.recoverReport()) {
    replayed[fs::path(event.path).stem().string()] = event.operationsReplayed;
  }
  for (const std::string& id : ids) {
    const service::SessionSnapshot snap = store.snapshot(id).get();
    const auto r = replayed.find(id);
    json::Value session{json::Object{}};
    session.set("digest", snap.digest);
    // No recovery event means no checkpoint: the whole log was replayed.
    session.set("replayed", r != replayed.end() ? r->second : snap.stage);
    sessions.set(id, std::move(session));
  }
  return seconds;
}

}  // namespace

int recoverMain(const fs::path& walDir) {
  std::vector<fs::path> chunks;
  for (const auto& entry : fs::directory_iterator(walDir)) {
    if (entry.is_directory()) chunks.push_back(entry.path());
  }
  std::sort(chunks.begin(), chunks.end());

  json::Array seconds;
  json::Array errors;
  json::Value sessions{json::Object{}};
  // Fresh stores over the same directories (recovery leaves a sealed chain
  // as it found it), repeated until a second and a half has been spent.
  const auto begin = Clock::now();
  for (int rep = 0;
       rep == 0 || (rep < 500 && microsBetween(begin, Clock::now()) < 1.5e6);
       ++rep) {
    double total = 0.0;
    for (const fs::path& chunk : chunks) {
      total += recoverOnce(chunk, rep == 0, errors, sessions);
    }
    seconds.push_back(total);
  }
  json::Value out{json::Object{}};
  out.set("seconds", std::move(seconds));
  out.set("errors", std::move(errors));
  out.set("sessions", std::move(sessions));
  std::printf("%s\n", json::serialize(out).c_str());
  return 0;
}

RecoveryResult timeRecovery(const RunConfig& config, const LiveResult& live) {
  const WorkloadSpec& w = config.workload;
  RecoveryResult out;
  const auto mismatch = [&out](const std::string& what) {
    if (out.mismatches++ == 0) out.firstMismatch = what;
  };

  const fs::path log = config.workDir / "recover.json";
  ChildProcess child({executablePath().string(), "--recover",
                      live.walDir.string()},
                     log);
  if (const ChildProcess::Exit exit = child.wait(); exit.code != 0) {
    mismatch("recovery child exited with code " + std::to_string(exit.code));
    return out;
  }
  std::ifstream in(log);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const json::Value report = json::parse(text);

  std::vector<double> seconds;
  for (const json::Value& v : report.at("seconds").asArray()) {
    seconds.push_back(v.asNumber());
  }
  out.medianS = median(seconds);
  for (const json::Value& e : report.at("errors").asArray()) {
    mismatch(e.asString());
  }
  const json::Object& recovered = report.at("sessions").asObject();
  out.sessions = recovered.size();
  std::size_t expected = 0;
  for (const SessionResult& r : live.sessions) {
    if (r.index >= w.recoverSessions) break;
    ++expected;
    const std::string id = sessionId(w, r.index);
    const json::Value* session = report.at("sessions").find(id);
    if (session == nullptr) {
      mismatch("session " + id + " was not recovered");
      continue;
    }
    if (session->at("digest").asString() != r.digest) {
      mismatch("recovered " + id + " at digest " +
               session->at("digest").asString() + ", live digest " +
               r.digest);
    }
    out.opsReplayed += session->at("replayed").asNumber();
  }
  if (recovered.size() != expected) {
    mismatch("recovered " + std::to_string(recovered.size()) +
             " sessions, " + std::to_string(expected) + " were journaled");
  }
  return out;
}

}  // namespace adpm::bench
