// The Design Process Manager (DPM) and ADPM's transition function δ.
//
// The DPM executes design operations against the current design state s_n
// and produces s_{n+1} (eq. 2 of the paper).  Two flows are implemented,
// selected by the λ option exactly as in TeamSim's evaluation:
//
//  * λ = true (ADPM):  after every operation the DPM sends the constraint
//    network to the DCM, which propagates constraints, computes all
//    statuses, and mines heuristic-support data (v_F, α, β, monotone lists);
//    the NM then notifies the affected designers.  Cross-subproblem
//    constraints are propagated from the moment they exist.
//
//  * λ = false (conventional): no propagation.  Designers learn about
//    violations and infeasible values only by requesting verification
//    operations, which evaluate a problem's constraints whose inputs are
//    bound.  Status knowledge goes stale when an involved property is
//    rebound.
//
// All constraint evaluations are charged to the network's counter; each
// operation's consumption is recorded in its OperationRecord — these are the
// quantities behind every figure in the paper's Section 3.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "constraint/network.hpp"
#include "dpm/dcm.hpp"
#include "dpm/history.hpp"
#include "dpm/notification.hpp"
#include "dpm/operation.hpp"
#include "dpm/problem.hpp"

namespace adpm::dpm {

/// Value snapshot of every mutable field δ touches: what a durable
/// checkpoint must capture so a manager restored from it replays the tail
/// of an operation log bit-identically to a full replay.  Static model
/// structure (objects, properties, constraints, problems) is *not* here —
/// it is rebuilt by re-instantiating the scenario; the state only carries
/// what operations changed since stage 0.  DCM caches are deliberately
/// absent: they are pure memoization, so a cold-cache manager recomputes
/// identical values (only the evaluation counter would drift, and that is
/// restored explicitly).
struct ManagerState {
  /// Operations applied when the snapshot was taken.
  std::size_t stage = 0;
  /// Network evaluation counter at the snapshot.
  std::size_t evaluations = 0;
  /// (property, value) for every bound property, ascending by id.
  std::vector<std::pair<constraint::PropertyId, double>> bindings;
  /// Every active constraint id, ascending (activation is monotonic:
  /// staged constraints activate, nothing ever deactivates).
  std::vector<constraint::ConstraintId> activeConstraints;
  /// Per-object version strings (synthesis bumps the touched objects).
  std::vector<std::string> objectVersions;
  std::vector<ProblemStatus> problemStatuses;
  std::vector<constraint::Status> knownStatuses;
  std::vector<bool> stale;
  bool guidanceValid = false;
  constraint::GuidanceReport guidance;
  /// The NM diffs consecutive guidance reports, so the previous one must
  /// survive a restore or the first post-restore operation would notify
  /// against the wrong baseline.
  bool previousGuidanceValid = false;
  constraint::GuidanceReport previousGuidance;
  /// Staged constraints not yet generated, with their trigger problems.
  std::vector<std::pair<constraint::ConstraintId, ProblemId>> staged;
  std::map<constraint::PropertyId, std::vector<double>> failedAssignments;
};

class DesignProcessManager {
 public:
  struct Options {
    /// The paper's λ: true simulates ADPM, false the conventional approach.
    bool adpm = true;
    DesignConstraintManager::Options dcm{};
    NotificationManager::Sizes nm{};
  };

  DesignProcessManager() : DesignProcessManager(Options{}) {}
  explicit DesignProcessManager(Options options);

  DesignProcessManager(const DesignProcessManager&) = delete;
  DesignProcessManager& operator=(const DesignProcessManager&) = delete;

  bool adpmEnabled() const noexcept { return options_.adpm; }

  constraint::Network& network() noexcept { return net_; }
  const constraint::Network& network() const noexcept { return net_; }

  // -- model building (the scenario initialisation script) -------------------

  void addObject(std::string name, std::string parent = "");
  /// Adds a property; its `object` must already exist.
  constraint::PropertyId addProperty(constraint::PropertySpec spec);
  /// Adds a constraint to the network.  New constraints are propagated from
  /// the next operation on (ADPM) or verified on request (conventional).
  constraint::ConstraintId addConstraint(std::string name, expr::Expr lhs,
                                         constraint::Relation rel,
                                         expr::Expr rhs);

  /// Registers a constraint that the DPM *generates* later in the process
  /// (paper §2.2: "this DPM also generates any necessary constraints and
  /// incorporates them in C_n").  The constraint gets a stable id now but
  /// stays inactive until its generating problem leaves the Unassigned
  /// state (typically via a decomposition operation).
  constraint::ConstraintId stageConstraint(std::string name, expr::Expr lhs,
                                           constraint::Relation rel,
                                           expr::Expr rhs,
                                           ProblemId generatedBy);

  struct ProblemSpec {
    std::string name;
    std::string object;
    std::string owner;
    std::vector<constraint::PropertyId> inputs;
    std::vector<constraint::PropertyId> outputs;
    std::vector<constraint::ConstraintId> constraints;
    std::optional<ProblemId> parent;
    std::vector<ProblemId> predecessors;
    /// Problems start Ready unless released by a decomposition operation.
    bool startReady = true;
  };
  ProblemId addProblem(ProblemSpec spec);

  /// Binds a top-level requirement during scenario initialisation (stage 0,
  /// not an operation).  Requirement properties are *frozen*: simulated
  /// designers never pick them as repair or binding targets (relaxing the
  /// spec to dodge a conflict would be cheating); only scripted operations
  /// (e.g. the team leader tightening a requirement) may rebind them.
  void initializeRequirement(constraint::PropertyId p, double value);

  /// True for properties bound by initializeRequirement.
  bool isFrozen(constraint::PropertyId p) const noexcept;

  // -- process ----------------------------------------------------------------

  struct ExecResult {
    OperationRecord record;
    std::vector<Notification> notifications;
  };

  /// Evaluates the initial state s_0 (ADPM only): runs the DCM over the
  /// freshly-instantiated network so designers start with guidance instead
  /// of flying blind until the first operation.  The evaluations consumed
  /// are part of ADPM's cost and stay on the network counter.  No-op in the
  /// conventional flow.
  void bootstrap();

  /// Applies one operation: the next-state function δ.
  ExecResult execute(Operation op);

  std::size_t stage() const noexcept { return baseStage_ + history_.size(); }
  /// Operation records since the last restoreState (the full run when the
  /// manager was never restored).  A restored manager's history restarts at
  /// the checkpoint horizon — the complete record lives in the WAL segments.
  const std::vector<OperationRecord>& history() const noexcept {
    return history_;
  }
  /// Stage the in-memory history starts at (> 0 only after restoreState).
  std::size_t historyBaseStage() const noexcept { return baseStage_; }

  /// The full journaled history H_n: per-stage assignment, constraint-status
  /// and problem-status deltas with query API (see dpm/history.hpp).
  const DesignHistory& designHistory() const noexcept { return designHistory_; }

  // -- queries ----------------------------------------------------------------

  const DesignProblem& problem(ProblemId id) const;
  std::vector<ProblemId> problemIds() const;
  std::vector<ProblemId> problemsOf(const std::string& designer) const;
  const DesignObject* object(const std::string& name) const noexcept;
  std::vector<std::string> objectNames() const;
  std::vector<std::string> designers() const;

  /// Current status knowledge: ADPM keeps every constraint fresh via
  /// propagation; conventional knows only what verification reported (and
  /// loses it when an involved property is rebound).
  const std::vector<constraint::Status>& knownStatuses() const noexcept {
    return knownStatus_;
  }
  std::vector<constraint::ConstraintId> knownViolations() const;
  std::size_t knownViolationCount() const;
  /// True when the constraint's last known status may be out of date
  /// (conventional mode only).
  bool isStale(constraint::ConstraintId c) const;

  /// Latest heuristic guidance; null when running the conventional flow.
  const constraint::GuidanceReport* latestGuidance() const noexcept {
    return options_.adpm ? guidance_.get() : nullptr;
  }
  /// The same report as a shared handle.  Reports are immutable once mined
  /// (each DCM pass installs a new one), so a reader on another thread may
  /// keep it while later operations replace it.
  std::shared_ptr<const constraint::GuidanceReport> sharedGuidance()
      const noexcept {
    return options_.adpm ? guidance_ : nullptr;
  }

  /// A constraint is cross-subsystem when its arguments span more than one
  /// design object — the basis of spin classification.
  bool crossSubsystem(constraint::ConstraintId c) const;

  std::string ownerOfObject(const std::string& objectName) const;
  std::string ownerOfProperty(constraint::PropertyId p) const;

  bool allOutputsBound() const;
  /// Termination condition: every problem solved, every output bound, no
  /// known violation, and (conventional) no stale constraint left unverified.
  bool designComplete() const;

  // -- design history consulted by designers (tabu) ---------------------------

  /// "The design history is consulted to avoid combinations of assignments
  /// that have previously led to violations." (paper, Section 3.1.1)
  void recordFailedAssignment(constraint::PropertyId p, double value);
  bool isFailedAssignment(constraint::PropertyId p, double value,
                          double tolerance) const;

  // -- checkpointing ----------------------------------------------------------

  /// Captures the complete mutable state (see ManagerState).
  ManagerState exportState() const;

  /// Restores a snapshot onto a freshly instantiated manager (same scenario
  /// script, bootstrap not required — every field it would set is
  /// overwritten).  Shape mismatches (wrong counts, out-of-range ids, an
  /// init-active constraint the state claims inactive) throw
  /// InvalidArgumentError — the caller treats the checkpoint as damaged and
  /// falls back.  After the restore, stage() == state.stage and in-memory
  /// history restarts empty at that horizon.
  void restoreState(const ManagerState& state);

 private:
  void generateStagedConstraints(OperationRecord& record);
  void applySynthesis(const Operation& op);
  void applyVerification(const Operation& op, OperationRecord& record);
  void applyDecomposition(const Operation& op);
  void runDcmPass(OperationRecord& record,
                  std::vector<constraint::Status>& before);
  void refreshProblemStatuses();
  bool refreshProblemStatusesOnce();
  void markStaleFor(constraint::PropertyId p);

  Options options_;
  constraint::Network net_;
  DesignConstraintManager dcm_;
  NotificationManager nm_;

  std::vector<DesignObject> objects_;
  std::vector<DesignProblem> problems_;
  std::vector<OperationRecord> history_;
  /// Stage the in-memory history starts at; nonzero only after restoreState.
  std::size_t baseStage_ = 0;
  DesignHistory designHistory_;

  std::vector<constraint::Status> knownStatus_;
  std::vector<bool> stale_;  // conventional-mode staleness per constraint
  /// Latest and previous DCM reports; null means none yet.
  std::shared_ptr<const constraint::GuidanceReport> guidance_;
  std::shared_ptr<const constraint::GuidanceReport> previousGuidance_;

  std::map<constraint::PropertyId, std::vector<double>> failedAssignments_;
  std::vector<bool> frozen_;  // indexed by PropertyId::value
  /// Staged (not yet generated) constraints and their generating problems.
  std::vector<std::pair<constraint::ConstraintId, ProblemId>> staged_;
};

}  // namespace adpm::dpm
