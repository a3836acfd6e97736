#include "service/store.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <optional>
#include <set>
#include <thread>

#include "dddl/writer.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace adpm::service {

namespace {

bool safeId(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  return std::all_of(id.begin(), id.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
  });
}

/// One session's recovery, as a job of one recover() call.  Exactly one of
/// `session`, `error` and `fatal` is set once the job has run.
struct RecoverJob {
  std::string id;
  std::string path;
  std::unique_ptr<Session> session;
  SalvageOutcome salvage;
  /// An adpm::Error's text: the session is skipped and reported.
  std::optional<std::string> error;
  /// Anything else, rethrown by the caller in id order.
  std::exception_ptr fatal;
};

/// The jobs of one recover() call and the index they are pulled from.  The
/// calling thread and the pool helpers run the same loop; helpers hold the
/// batch by shared_ptr, so one that is dequeued after the call returned
/// finds no job left and touches nothing else.
struct RecoverBatch {
  RecoverBatch(std::vector<RecoverJob> jobsIn, Session::Options optionsIn,
               RecoveryPolicy policyIn)
      : jobs(std::move(jobsIn)),
        count(jobs.size()),
        options(std::move(optionsIn)),
        policy(policyIn) {}

  /// Runs jobs until the index is exhausted.  Never throws: each job keeps
  /// its own outcome.
  void work() {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      RecoverJob& job = jobs[i];
      if (!job.error) {  // not already failed by the store.recover failpoint
        try {
          job.session = recoverSession(job.path, options, policy, &job.salvage);
        } catch (const adpm::Error& e) {
          job.error = e.what();
        } catch (...) {
          job.fatal = std::current_exception();
        }
      }
      util::LockGuard lock(mutex);
      if (++finished == count) allFinished.notify_all();
    }
  }

  /// Blocks until every job has run (whoever ran it).
  void wait() {
    util::UniqueLock lock(mutex);
    while (finished != count) allFinished.wait(lock);
  }

  std::vector<RecoverJob> jobs;
  const std::size_t count;
  const Session::Options options;
  const RecoveryPolicy policy;
  std::atomic<std::size_t> next{0};
  util::Mutex mutex;
  util::CondVar allFinished;
  std::size_t finished ADPM_GUARDED_BY(mutex) = 0;
};

}  // namespace

SessionStore::SessionStore() : SessionStore(Options{}) {}

SessionStore::SessionStore(Options options)
    : options_(std::move(options)),
      retryRng_(options_.command.jitterSeed),
      bus_(options_.bus),
      executor_(options_.executor) {
  if (!options_.walDir.empty()) {
    std::filesystem::create_directories(options_.walDir);
  }
}

SessionStore::~SessionStore() {
  // Unblock any producer parked on a Block-policy queue before draining,
  // or drain() could wait forever on a strand task stuck in push().
  bus_.closeAll();
  executor_.drain();
}

std::string SessionStore::walPathOf(const std::string& id) const {
  return options_.walDir + "/" + id + ".wal";
}

void SessionStore::open(const std::string& id, const dpm::ScenarioSpec& spec,
                        bool adpm) {
  if (ADPM_FAULT_POINT("store.open") != util::FaultAction::None) {
    throw adpm::FaultInjectedError("injected failure opening session '" + id +
                                   "'");
  }
  if (!safeId(id)) {
    throw adpm::InvalidArgumentError("session id '" + id +
                                     "' is not filesystem-safe");
  }
  SessionConfig config;
  config.id = id;
  config.adpm = adpm;
  config.scenarioName = spec.name;
  // The log must be self-contained, so the scenario rides along as DDDL —
  // also pins the exact spec replay will instantiate.
  config.scenarioDddl = dddl::write(spec);

  // Instantiating the scenario and its bootstrap DCM pass run before the
  // lock: every command on every session looks its entry up under mutex_,
  // so building a large session inside it would stall them all.  A
  // duplicate open() therefore wastes one construction, on an error path.
  auto session = std::make_unique<Session>(std::move(config), spec, nullptr,
                                           options_.session);

  // One critical section covers the duplicate-id check, the WAL-exists
  // check, the header write, and the map insertion: two racing open("x")
  // calls must not both write a header (OperationLog::read rejects a
  // two-header log as corrupt, which would make the session unrecoverable).
  util::LockGuard lock(mutex_);
  if (sessions_.contains(id)) {
    throw adpm::InvalidArgumentError("session '" + id + "' already open");
  }
  if (!options_.walDir.empty()) {
    const std::string path = walPathOf(id);
    const SessionFiles existing = listSessionFiles(path);
    if (!existing.segments.empty() || !existing.checkpoints.empty()) {
      // close() keeps WALs and crashes leave them; a fresh open() always
      // writes a fresh header, so appending to a leftover chain would
      // corrupt it.  The caller decides: recover() the session or remove
      // its files (segments *and* checkpoints) first.
      throw adpm::InvalidArgumentError(
          "session '" + id + "' has existing log/checkpoint files at '" +
          path + "'; recover() it or remove them before reopening the id");
    }
    SegmentedLog::Options logOptions;
    logOptions.sync = options_.session.walSync;
    logOptions.segmentBytes = options_.session.segmentBytes;
    logOptions.segmentOps = options_.session.segmentOps;
    session->attachLog(
        std::make_unique<SegmentedLog>(path, session->config(), logOptions));
  }
  adoptLocked(id, std::move(session));
}

std::vector<std::string> SessionStore::recover() {
  std::vector<std::string> recovered;
  std::vector<std::string> errors;
  std::vector<RecoveryEvent> events;
  {
    // Each call owns the whole report: a second recover() must not stack
    // its outcome on top of the first one's.
    util::LockGuard lock(mutex_);
    recoverErrors_.clear();
    recoverEvents_.clear();
  }
  if (options_.walDir.empty()) return recovered;

  // Discover session ids from every chain file (segments *and*
  // checkpoints): a session whose seq-0 segment was compacted away is
  // still recoverable from its newest checkpoint plus tail segments.
  std::set<std::string> idsOnDisk;  // deterministic recovery order
  {
    std::error_code ec;
    std::filesystem::directory_iterator dir(options_.walDir, ec);
    if (!ec) {
      for (const auto& entry : dir) {
        if (!entry.is_regular_file()) continue;
        const std::optional<WalFileName> parsed =
            parseWalFileName(entry.path().filename().string());
        if (parsed) idsOnDisk.insert(parsed->sessionId);
      }
    }
  }

  // Ids, live-session skips and the store.recover failpoint are decided
  // here, in id order, so a fault plan fails the same ids whatever the pool
  // size.  Skipping live sessions before touching their files matters:
  // re-replaying the chain under a live session would re-report (and under
  // Salvage re-mutate) a log that is actively being appended to.
  std::vector<RecoverJob> jobs;
  for (const std::string& id : idsOnDisk) {
    {
      util::LockGuard lock(mutex_);
      if (sessions_.contains(id)) continue;
    }
    RecoverJob& job = jobs.emplace_back();
    job.id = id;
    job.path = walPathOf(id);
    if (ADPM_FAULT_POINT("store.recover") != util::FaultAction::None) {
      job.error = "injected failure recovering '" + job.path + "'";
    }
  }

  // Sessions share no state, so their replays run as jobs on the pool.  The
  // calling thread works the same index as the helpers, which is why this
  // cannot deadlock on a pool whose workers are all busy (or on the
  // inline executor, which has none: the caller then runs every job in
  // order).
  auto batch = std::make_shared<RecoverBatch>(
      std::move(jobs), options_.session, options_.recovery);
  const std::size_t helpers = std::min<std::size_t>(
      executor_.workerCount(), batch->count > 0 ? batch->count - 1 : 0);
  for (std::size_t i = 0; i < helpers; ++i) {
    try {
      executor_.post([batch] { batch->work(); });
    } catch (const adpm::FaultInjectedError&) {
      continue;  // one helper fewer; the others and the caller take its share
    }
  }
  batch->work();
  batch->wait();
  // Every job has run, so no helper touches the jobs any more; taking them
  // makes every session not adopted below die on this thread.
  jobs = std::move(batch->jobs);

  // Install and report in id order, exactly as a serial run would.  One bad
  // session (corrupt, diverged, id raced in) must not abort recovery of the
  // remaining ones; it is skipped and reported instead.
  for (RecoverJob& job : jobs) {
    if (job.fatal) std::rethrow_exception(job.fatal);
    if (job.error) {
      errors.push_back(job.path + ": " + *job.error);
      RecoveryEvent event;
      event.path = job.path;
      event.detail = *job.error;
      event.sessionLost = true;
      events.push_back(std::move(event));
      continue;
    }
    {
      util::LockGuard lock(mutex_);
      if (sessions_.contains(job.id)) continue;  // open(id) raced in
      adoptLocked(job.id, std::move(job.session));
    }
    recovered.push_back(job.id);
    const SalvageOutcome& salvage = job.salvage;
    if (salvage.salvaged || salvage.checkpointFallbacks > 0 ||
        salvage.checkpointUsed) {
      RecoveryEvent event;
      event.path = job.path;
      event.detail = salvage.reason;
      event.salvaged = salvage.salvaged;
      event.keptStage = salvage.keptStage;
      event.droppedOperations = salvage.droppedOperations;
      event.droppedBytes = salvage.droppedBytes;
      event.checkpointUsed = salvage.checkpointUsed;
      event.checkpointSeq = salvage.checkpointSeq;
      event.checkpointStage = salvage.checkpointStage;
      event.checkpointFallbacks = salvage.checkpointFallbacks;
      event.segmentsReplayed = salvage.segmentsReplayed;
      event.operationsReplayed = salvage.operationsReplayed;
      events.push_back(std::move(event));
    }
  }
  util::LockGuard lock(mutex_);
  recoverErrors_ = std::move(errors);
  recoverEvents_ = std::move(events);
  return recovered;
}

std::vector<std::string> SessionStore::recoverErrors() const {
  util::LockGuard lock(mutex_);
  return recoverErrors_;
}

std::vector<RecoveryEvent> SessionStore::recoverReport() const {
  util::LockGuard lock(mutex_);
  return recoverEvents_;
}

void SessionStore::backoffBeforeRetry(unsigned attempt) {
  const CommandPolicy& policy = options_.command;
  double micros = static_cast<double>(policy.backoffBase.count());
  for (unsigned i = 1; i < attempt; ++i) micros *= 2.0;
  micros = std::min(micros, static_cast<double>(policy.backoffCap.count()));
  double factor = 1.0;
  {
    util::LockGuard lock(retryMutex_);
    ++retries_;
    if (policy.jitter > 0.0) {
      factor = retryRng_.uniform(1.0 - policy.jitter, 1.0 + policy.jitter);
    }
  }
  const auto delay =
      std::chrono::microseconds(static_cast<std::int64_t>(micros * factor));
  if (delay.count() > 0) std::this_thread::sleep_for(delay);
}

void SessionStore::noteTimeout() {
  util::LockGuard lock(retryMutex_);
  ++timeouts_;
}

std::size_t SessionStore::retries() const {
  util::LockGuard lock(retryMutex_);
  return retries_;
}

std::size_t SessionStore::timeouts() const {
  util::LockGuard lock(retryMutex_);
  return timeouts_;
}

void SessionStore::adoptLocked(const std::string& id,
                               std::unique_ptr<Session> session) {
  auto entry = std::make_shared<Entry>();
  entry->session = std::move(session);
  entry->strand = executor_.makeStrand();
  entry->session->setNotificationSink(
      [this, id](const std::vector<dpm::Notification>& batch) {
        bus_.publish(id, batch);
      });
  sessions_.emplace(id, std::move(entry));  // caller checked for duplicates
}

void SessionStore::close(const std::string& id) {
  std::shared_ptr<Entry> entry;
  {
    util::LockGuard lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    entry = std::move(it->second);
    sessions_.erase(it);
  }
  bus_.closeSession(id);
  // Queued commands still hold the entry via their captures; the session
  // object dies with the last of them.
}

std::shared_ptr<SessionStore::Entry> SessionStore::entryOf(
    const std::string& id) const {
  util::LockGuard lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw adpm::InvalidArgumentError("unknown session '" + id + "'");
  }
  return it->second;
}

std::vector<std::string> SessionStore::ids() const {
  util::LockGuard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(sessions_.size());
  for (const auto& [id, entry] : sessions_) out.push_back(id);
  return out;
}

std::size_t SessionStore::sessionCount() const {
  util::LockGuard lock(mutex_);
  return sessions_.size();
}

bool SessionStore::has(const std::string& id) const {
  util::LockGuard lock(mutex_);
  return sessions_.contains(id);
}

std::future<dpm::DesignProcessManager::ExecResult>
SessionStore::applyOperation(const std::string& id, dpm::Operation op) {
  // The lambda keeps ownership of `op` and applies a *copy* per attempt, so
  // a TransientError retry replays the identical operation.
  return submit(id, "applyOperation", [op = std::move(op)](Session& session) {
    if (ADPM_FAULT_POINT("store.apply") != util::FaultAction::None) {
      throw adpm::FaultInjectedError("injected failure applying operation");
    }
    return session.apply(dpm::Operation(op));
  });
}

std::future<std::shared_ptr<const constraint::GuidanceReport>>
SessionStore::queryGuidance(const std::string& id) {
  return submit(id, "queryGuidance", [](Session& session) {
    return session.manager().sharedGuidance();
  });
}

std::future<Session::VerifyResult> SessionStore::verify(
    const std::string& id) {
  return submit(id, "verify",
                [](Session& session) { return session.verify(); });
}

std::future<SessionSnapshot> SessionStore::snapshot(const std::string& id) {
  return submit(id, "snapshot",
                [](Session& session) { return session.snapshot(); });
}

std::shared_ptr<NotificationBus::Queue> SessionStore::subscribe(
    const std::string& id, const std::string& designer) {
  // Hold the store lock across the existence check *and* the bus
  // registration: a concurrent close(id) then either runs after us (and
  // closes the new queue with the rest) or before us (and we throw) — never
  // a live queue left on a dead session, which would hang its consumer's
  // blocking pop() forever.  Lock order store→bus is consistent everywhere;
  // the bus never calls back into the store.
  util::LockGuard lock(mutex_);
  if (!sessions_.contains(id)) {
    throw adpm::InvalidArgumentError("unknown session '" + id + "'");
  }
  return bus_.subscribe(id, designer);
}

}  // namespace adpm::service
