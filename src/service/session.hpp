// One hosted design session: a DesignProcessManager plus its instantiated
// scenario, journaled through a durable operation log.
//
// A Session is pure state — it performs no locking and owns no thread.  The
// SessionStore serializes all access through the session's strand
// (util/executor.hpp); every method here must be called with that exclusive
// access (on the strand, or single-threaded before the session is shared).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dpm/manager.hpp"
#include "dpm/scenario.hpp"
#include "service/wal.hpp"

namespace adpm::service {

/// Canonical state digest used by the deterministic-replay guarantee: two
/// sessions with equal snapshot text are in bit-identical observable states.
struct SessionSnapshot {
  std::string id;
  /// Operations applied so far.
  std::size_t stage = 0;
  bool complete = false;
  std::size_t evaluations = 0;
  std::size_t violations = 0;
  /// Canonical rendering of: per-property bindings and current hull, known
  /// constraint statuses, violation set, and (λ=T) the full GuidanceReport
  /// (feasible subspaces, α/β, monotone lists, repair votes).  All doubles
  /// are %.17g, so equality here is bit-equality of the underlying state.
  std::string text;
  /// fnv1a-64 of `text`, as 16 hex digits — what WAL marks store.
  std::string digest;
};

/// What RecoveryPolicy::Salvage had to give up to reopen a session, plus
/// checkpoint accounting (filled under either policy).
struct SalvageOutcome {
  /// True when anything was dropped or truncated (tail trim or rollback).
  bool salvaged = false;
  /// Operations surviving in the reopened session.
  std::size_t keptStage = 0;
  /// Journaled operations that had to be dropped (torn tail + any rollback
  /// to the last verified snapshot mark).
  std::size_t droppedOperations = 0;
  /// Untrusted bytes trimmed off the log file.
  std::size_t droppedBytes = 0;
  /// The structural error or digest divergence that forced the salvage.
  std::string reason;

  // -- bounded-recovery accounting --------------------------------------------
  /// Recovery restored a checkpoint instead of replaying from stage 0.
  bool checkpointUsed = false;
  /// Sequence and stage of the restored checkpoint (when checkpointUsed).
  std::size_t checkpointSeq = 0;
  std::size_t checkpointStage = 0;
  /// Checkpoints that existed but could not be trusted (torn, bit-flipped,
  /// digest mismatch against the rebuilt state) — each one degraded to an
  /// older checkpoint or, ultimately, full-segment replay.
  std::size_t checkpointFallbacks = 0;
  /// Segments whose operations were (partially) replayed.
  std::size_t segmentsReplayed = 0;
  /// Operations actually re-executed to rebuild the session.
  std::size_t operationsReplayed = 0;
};

class Session {
 public:
  struct Options {
    /// Append a snapshot-digest mark to the log every N operations
    /// (0 = only on explicit snapshot() calls with a log attached... never).
    std::size_t markEvery = 32;
    /// fsync the WAL after every record: storage durability (survives OS
    /// crash / power loss) at one fsync per operation.  Off = flush-only,
    /// which survives a process crash but not the machine dying.
    bool walSync = false;
    /// Rotate the WAL to a fresh segment past this size (0 = one segment
    /// forever — the pre-segmentation layout).
    std::size_t segmentBytes = 0;
    /// Rotate past this many operations per segment (0 = never by count).
    std::size_t segmentOps = 0;
    /// Write a durable state checkpoint every N operations (0 = never);
    /// recovery then replays only the ops past the newest intact
    /// checkpoint.  A failed checkpoint never fails the operation that
    /// triggered it — checkpoints are an optimization, not a dependency.
    std::size_t checkpointEvery = 0;
    /// Checkpoints retained by compaction (min 1; default 2 so a corrupt
    /// newest checkpoint still recovers boundedly from the runner-up).
    std::size_t checkpointKeep = 2;
  };

  /// Builds the session from its config: parses nothing — the caller
  /// supplies the spec matching config.scenarioDddl.  When `log` is
  /// non-null the session owns it and journals every applied operation.
  /// (Two overloads, not `Options options = {}`: GCC rejects brace-init
  /// defaults of a nested aggregate inside the incomplete enclosing class.)
  Session(SessionConfig config, const dpm::ScenarioSpec& spec,
          std::unique_ptr<SegmentedLog> log);
  Session(SessionConfig config, const dpm::ScenarioSpec& spec,
          std::unique_ptr<SegmentedLog> log, Options options);

  /// Seals the log: a journaled session appends one final snapshot mark on
  /// teardown (unless the current stage already carries one), so every WAL
  /// ends with a digest and recovery always validates the *final* state —
  /// short sessions would otherwise never reach a markEvery boundary.
  ~Session();

  const SessionConfig& config() const noexcept { return config_; }
  const std::string& id() const noexcept { return config_.id; }

  dpm::DesignProcessManager& manager() noexcept { return *dpm_; }
  const dpm::DesignProcessManager& manager() const noexcept { return *dpm_; }

  /// Sink for the NM fan-out of each applied operation (the store wires
  /// this to the NotificationBus).
  using NotificationSink =
      std::function<void(const std::vector<dpm::Notification>&)>;
  void setNotificationSink(NotificationSink sink) { sink_ = std::move(sink); }

  /// Applies one operation: journals it (WAL first — the log is
  /// write-ahead), executes δ, publishes the notification fan-out, and
  /// appends a periodic snapshot mark.
  dpm::DesignProcessManager::ExecResult apply(dpm::Operation op);

  /// Re-applies a recovered operation: identical to apply() except the
  /// operation is NOT re-journaled (it is already in the log).
  dpm::DesignProcessManager::ExecResult replayApply(dpm::Operation op);

  std::size_t stage() const noexcept { return dpm_->stage(); }
  bool complete() const { return dpm_->designComplete(); }

  SessionSnapshot snapshot() const;

  /// Service-level audit: force-evaluates every active constraint whose
  /// arguments are bound (a batch verification-tool run, charged to the
  /// network counter like any other tool run) and returns the violated ids.
  struct VerifyResult {
    std::vector<constraint::ConstraintId> violated;
    std::size_t evaluations = 0;
  };
  VerifyResult verify();

  const SegmentedLog* log() const noexcept { return log_.get(); }

  /// Attaches the (already positioned) log the session journals to from
  /// now on, before any operation is applied: SessionStore::open() builds
  /// the session without a log outside its lock, and recovery attaches one
  /// once the replay is complete.
  void attachLog(std::unique_ptr<SegmentedLog> log) { log_ = std::move(log); }

  /// Writes a durable state checkpoint at the current stage (no-op without
  /// a log).  Called automatically every `checkpointEvery` operations;
  /// exposed for drivers that checkpoint at their own boundaries.  Throws
  /// what the WAL layer throws — the periodic path catches and counts.
  void checkpointNow();

  /// Periodic checkpoints that failed (and were absorbed) since creation.
  std::size_t checkpointFailures() const noexcept {
    return checkpointFailures_;
  }

 private:
  friend std::unique_ptr<Session> recoverSession(const std::string& logPath,
                                                 Options options,
                                                 RecoveryPolicy policy,
                                                 SalvageOutcome* outcome);

  dpm::DesignProcessManager::ExecResult applyImpl(dpm::Operation op,
                                                  bool journal);

  SessionConfig config_;
  Options options_;
  std::unique_ptr<dpm::DesignProcessManager> dpm_;
  std::unique_ptr<SegmentedLog> log_;
  NotificationSink sink_;
  /// Stage of the most recent mark in the log (0 = none yet); suppresses
  /// duplicate seal marks across recover/teardown cycles.
  std::size_t lastMarkStage_ = 0;
  std::size_t checkpointFailures_ = 0;
};

/// The canonical snapshot text for any manager (exposed for tests and the
/// replay validator).
std::string snapshotText(const dpm::DesignProcessManager& dpm);

/// Rebuilds a session from its on-disk log chain (`logPath` is the seq-0
/// segment path, `<dir>/<id>.wal`): restores the newest intact checkpoint
/// (if any), replays the tail segments past it, and re-derives + checks
/// every snapshot mark along the way.  The returned session keeps
/// appending to the chain.  Recovery cost is O(work since the last
/// checkpoint), not O(session lifetime).
///
/// Checkpoints degrade, never fail, under *either* policy: a torn,
/// bit-flipped, missing, or digest-divergent checkpoint falls back to the
/// previous checkpoint and ultimately to full-segment replay (possible
/// whenever segment 0 survives); `outcome->checkpointFallbacks` counts the
/// demotions.  Segment damage keeps the PR-5 semantics: Strict throws on
/// any structural problem or divergence; Salvage trims a torn tail, stops
/// the chain at a damaged middle segment (dropping later segments), and
/// rolls a digest divergence back to the last verified mark — mutating the
/// files to match what was kept.  A session whose *entire* chain is
/// unusable (no intact checkpoint and no segment starting at stage 0)
/// still throws: there is nothing to rebuild from.
std::unique_ptr<Session> recoverSession(
    const std::string& logPath, Session::Options options = {},
    RecoveryPolicy policy = RecoveryPolicy::Strict,
    SalvageOutcome* outcome = nullptr);

}  // namespace adpm::service
