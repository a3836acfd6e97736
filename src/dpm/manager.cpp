#include "dpm/manager.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>

#include "util/error.hpp"

namespace adpm::dpm {

const char* problemStatusName(ProblemStatus s) noexcept {
  switch (s) {
    case ProblemStatus::Unassigned: return "Unassigned";
    case ProblemStatus::Ready: return "Ready";
    case ProblemStatus::InProgress: return "InProgress";
    case ProblemStatus::Waiting: return "Waiting";
    case ProblemStatus::Solved: return "Solved";
  }
  return "?";
}

const char* operatorKindName(OperatorKind k) noexcept {
  switch (k) {
    case OperatorKind::Synthesis: return "Synthesis";
    case OperatorKind::Verification: return "Verification";
    case OperatorKind::Decomposition: return "Decomposition";
  }
  return "?";
}

DesignProcessManager::DesignProcessManager(Options options)
    : options_(options), dcm_(options.dcm), nm_(options.nm) {}

void DesignProcessManager::addObject(std::string name, std::string parent) {
  if (object(name) != nullptr) {
    throw adpm::InvalidArgumentError("duplicate object '" + name + "'");
  }
  if (!parent.empty() && object(parent) == nullptr) {
    throw adpm::InvalidArgumentError("unknown parent object '" + parent + "'");
  }
  DesignObject obj;
  obj.name = std::move(name);
  obj.parent = std::move(parent);
  objects_.push_back(std::move(obj));
}

constraint::PropertyId DesignProcessManager::addProperty(
    constraint::PropertySpec spec) {
  DesignObject* obj = nullptr;
  for (auto& o : objects_) {
    if (o.name == spec.object) obj = &o;
  }
  if (obj == nullptr) {
    throw adpm::InvalidArgumentError("property '" + spec.name +
                                     "' references unknown object '" +
                                     spec.object + "'");
  }
  const constraint::PropertyId id = net_.addProperty(std::move(spec));
  obj->properties.push_back(id);
  return id;
}

constraint::ConstraintId DesignProcessManager::addConstraint(
    std::string name, expr::Expr lhs, constraint::Relation rel,
    expr::Expr rhs) {
  const constraint::ConstraintId id =
      net_.addConstraint(std::move(name), std::move(lhs), rel, std::move(rhs));
  knownStatus_.resize(net_.constraintCount(), constraint::Status::Consistent);
  stale_.resize(net_.constraintCount(), !options_.adpm);
  return id;
}

constraint::ConstraintId DesignProcessManager::stageConstraint(
    std::string name, expr::Expr lhs, constraint::Relation rel,
    expr::Expr rhs, ProblemId generatedBy) {
  const constraint::ConstraintId id = net_.addConstraint(
      std::move(name), std::move(lhs), rel, std::move(rhs), /*active=*/false);
  knownStatus_.resize(net_.constraintCount(), constraint::Status::Consistent);
  stale_.resize(net_.constraintCount(), false);  // stale only once generated
  staged_.emplace_back(id, generatedBy);
  return id;
}

ProblemId DesignProcessManager::addProblem(ProblemSpec spec) {
  if (object(spec.object) == nullptr) {
    throw adpm::InvalidArgumentError("problem '" + spec.name +
                                     "' references unknown object '" +
                                     spec.object + "'");
  }
  const ProblemId id{static_cast<std::uint32_t>(problems_.size())};
  DesignProblem p;
  p.id = id;
  p.name = std::move(spec.name);
  p.object = std::move(spec.object);
  p.owner = std::move(spec.owner);
  p.inputs = std::move(spec.inputs);
  p.outputs = std::move(spec.outputs);
  p.constraints = std::move(spec.constraints);
  p.parent = spec.parent;
  p.predecessors = std::move(spec.predecessors);
  p.status = spec.startReady ? ProblemStatus::Ready : ProblemStatus::Unassigned;
  if (p.parent) {
    if (p.parent->value >= problems_.size()) {
      throw adpm::InvalidArgumentError("problem '" + p.name +
                                       "' has unknown parent");
    }
    problems_[p.parent->value].children.push_back(id);
  }
  problems_.push_back(std::move(p));
  refreshProblemStatuses();
  return id;
}

void DesignProcessManager::initializeRequirement(constraint::PropertyId p,
                                                 double value) {
  net_.bind(p, value);
  markStaleFor(p);
  if (frozen_.size() < net_.propertyCount()) {
    frozen_.resize(net_.propertyCount(), false);
  }
  frozen_[p.value] = true;
  designHistory_.recordInitialBinding(p, value);
}

bool DesignProcessManager::isFrozen(constraint::PropertyId p) const noexcept {
  return p.value < frozen_.size() && frozen_[p.value];
}

void DesignProcessManager::bootstrap() {
  if (!options_.adpm) return;
  OperationRecord ignored;
  std::vector<constraint::Status> before = knownStatus_;
  runDcmPass(ignored, before);
  refreshProblemStatuses();
}

DesignProcessManager::ExecResult DesignProcessManager::execute(Operation op) {
  if (op.problem.value >= problems_.size()) {
    throw adpm::InvalidArgumentError("operation targets unknown problem");
  }

  OperationRecord record;
  record.stage = stage() + 1;
  record.op = op;

  // Spin classification: the operation was provoked by a violation that
  // spans subsystems (the paper's costly late iteration).
  if (op.triggeredBy && crossSubsystem(*op.triggeredBy)) record.spin = true;

  const std::size_t evalsBefore = net_.evaluationCount();
  std::vector<constraint::Status> statusBefore = knownStatus_;

  // Journal inputs for the history deltas.
  HistoryEntry historyEntry;
  for (const auto& [pid, value] : op.assignments) {
    AssignmentDelta delta;
    delta.property = pid;
    delta.before = net_.property(pid).value;
    delta.after = value;
    historyEntry.assignments.push_back(delta);
  }
  std::vector<ProblemStatus> problemStatusBefore;
  problemStatusBefore.reserve(problems_.size());
  for (const DesignProblem& p : problems_) {
    problemStatusBefore.push_back(p.status);
  }

  switch (op.kind) {
    case OperatorKind::Synthesis:
      applySynthesis(op);
      break;
    case OperatorKind::Verification:
      applyVerification(op, record);
      break;
    case OperatorKind::Decomposition:
      applyDecomposition(op);
      break;
  }

  // "This DPM also generates any necessary constraints and incorporates
  // them in C_n": staged constraints whose generating problem is now part
  // of the process become active before the DCM sees the new state.
  generateStagedConstraints(record);

  // ADPM: DCM pass after *every* operation.
  if (options_.adpm) runDcmPass(record, statusBefore);

  // Newly discovered violations = Violated now, not Violated before.
  for (std::uint32_t i = 0; i < knownStatus_.size(); ++i) {
    const bool was = i < statusBefore.size() &&
                     statusBefore[i] == constraint::Status::Violated;
    if (!was && knownStatus_[i] == constraint::Status::Violated) {
      record.violationsFound.push_back(constraint::ConstraintId{i});
    }
  }
  record.violationsKnownAfter = knownViolationCount();
  record.evaluations = net_.evaluationCount() - evalsBefore;

  refreshProblemStatuses();

  ExecResult result;
  result.notifications = nm_.diff(
      record.stage, net_, statusBefore, knownStatus_,
      previousGuidance_.get(), guidance_.get(),
      [this](const constraint::Constraint& c) {
        std::set<std::string> audience;
        for (constraint::PropertyId arg : c.arguments()) {
          const std::string owner = ownerOfProperty(arg);
          if (!owner.empty()) audience.insert(owner);
        }
        return std::vector<std::string>(audience.begin(), audience.end());
      },
      [this](constraint::PropertyId p) { return ownerOfProperty(p); });

  // Requirement changes (e.g. the walkthrough's team leader tightening the
  // input impedance spec) are broadcast to every other designer.
  for (const auto& [pid, value] : op.assignments) {
    if (!isFrozen(pid)) continue;
    for (const std::string& designer : designers()) {
      if (designer == op.designer) continue;
      Notification n;
      n.kind = NotificationKind::RequirementChanged;
      n.designer = designer;
      n.stage = record.stage;
      n.propertyId = pid;
      n.text = "RequirementChanged: " + net_.property(pid).name + " = " +
               std::to_string(value);
      result.notifications.push_back(std::move(n));
    }
  }

  // Journal the status and problem deltas.
  for (std::uint32_t i = 0; i < knownStatus_.size(); ++i) {
    const constraint::Status before =
        i < statusBefore.size() ? statusBefore[i]
                                : constraint::Status::Consistent;
    if (before != knownStatus_[i]) {
      historyEntry.statusChanges.push_back(
          {constraint::ConstraintId{i}, before, knownStatus_[i]});
    }
  }
  for (std::uint32_t i = 0; i < problems_.size(); ++i) {
    if (problemStatusBefore[i] != problems_[i].status) {
      historyEntry.problemChanges.push_back(
          {ProblemId{i}, problemStatusBefore[i], problems_[i].status});
    }
  }
  // Problem completions are announced to the owner and the parent's owner.
  for (const ProblemDelta& d : historyEntry.problemChanges) {
    if (d.after != ProblemStatus::Solved) continue;
    const DesignProblem& solved = problems_[d.problem.value];
    std::set<std::string> audience;
    if (!solved.owner.empty()) audience.insert(solved.owner);
    if (solved.parent) {
      const std::string& parentOwner = problems_[solved.parent->value].owner;
      if (!parentOwner.empty()) audience.insert(parentOwner);
    }
    for (const std::string& designer : audience) {
      Notification n;
      n.kind = NotificationKind::ProblemSolved;
      n.designer = designer;
      n.stage = record.stage;
      n.text = "ProblemSolved: " + solved.name;
      result.notifications.push_back(std::move(n));
    }
  }

  historyEntry.record = record;
  designHistory_.append(std::move(historyEntry));

  history_.push_back(record);
  result.record = record;
  return result;
}

void DesignProcessManager::generateStagedConstraints(OperationRecord& record) {
  for (auto it = staged_.begin(); it != staged_.end();) {
    const auto [cid, trigger] = *it;
    if (trigger.value >= problems_.size() ||
        problems_[trigger.value].status == ProblemStatus::Unassigned) {
      ++it;
      continue;
    }
    net_.activate(cid);
    // The freshly generated constraint has never been evaluated.
    knownStatus_[cid.value] = constraint::Status::Consistent;
    stale_[cid.value] = !options_.adpm;
    record.constraintsGenerated.push_back(cid);
    it = staged_.erase(it);
  }
}

void DesignProcessManager::applySynthesis(const Operation& op) {
  DesignProblem& p = problems_[op.problem.value];
  std::set<std::string> touchedObjects;
  for (const auto& [pid, value] : op.assignments) {
    net_.bind(pid, value);
    markStaleFor(pid);
    touchedObjects.insert(net_.property(pid).object);
  }
  // Every synthesis creates a new version of the touched design objects
  // (Fig. 2's browser shows "Version number: 1.0.1 (current)").
  for (DesignObject& obj : objects_) {
    if (!touchedObjects.contains(obj.name)) continue;
    const auto dot = obj.version.rfind('.');
    if (dot != std::string::npos) {
      const int revision = std::atoi(obj.version.c_str() + dot + 1);
      obj.version = obj.version.substr(0, dot + 1) +
                    std::to_string(revision + 1);
    }
  }
  if (p.status == ProblemStatus::Ready || p.status == ProblemStatus::Solved) {
    p.status = ProblemStatus::InProgress;
  }
}

void DesignProcessManager::applyVerification(const Operation& op,
                                             OperationRecord& record) {
  (void)record;
  const DesignProblem& p = problems_[op.problem.value];

  std::vector<constraint::ConstraintId> toCheck = op.checks;
  if (toCheck.empty()) toCheck = p.constraints;

  for (constraint::ConstraintId cid : toCheck) {
    if (!net_.isActive(cid)) continue;  // not generated yet
    // A verification tool can only run once its inputs exist: skip
    // constraints with unbound arguments (no charge — the tool never ran).
    const constraint::Constraint& c = net_.constraint(cid);
    const bool runnable = std::all_of(
        c.arguments().begin(), c.arguments().end(),
        [&](constraint::PropertyId a) { return net_.property(a).bound(); });
    if (!runnable) continue;

    knownStatus_[cid.value] = net_.evaluate(cid);
    stale_[cid.value] = false;
  }
}

void DesignProcessManager::applyDecomposition(const Operation& op) {
  DesignProblem& p = problems_[op.problem.value];
  p.status = ProblemStatus::InProgress;
  for (ProblemId child : p.children) {
    DesignProblem& c = problems_[child.value];
    if (c.status == ProblemStatus::Unassigned) c.status = ProblemStatus::Ready;
  }
}

void DesignProcessManager::runDcmPass(
    OperationRecord& record, std::vector<constraint::Status>& before) {
  (void)record;
  (void)before;
  DesignConstraintManager::Evaluation eval = dcm_.evaluate(net_);
  knownStatus_ = std::move(eval.propagation.status);
  std::fill(stale_.begin(), stale_.end(), false);

  previousGuidance_ = std::move(guidance_);
  guidance_ = std::make_shared<const constraint::GuidanceReport>(
      std::move(eval.guidance));
}

void DesignProcessManager::refreshProblemStatuses() {
  // Solved status flows child -> parent and predecessor -> successor, so
  // iterate to a fixpoint (bounded by the problem count).
  for (std::size_t pass = 0; pass <= problems_.size(); ++pass) {
    if (!refreshProblemStatusesOnce()) break;
  }
}

bool DesignProcessManager::refreshProblemStatusesOnce() {
  bool changed = false;
  for (DesignProblem& p : problems_) {
    if (p.status == ProblemStatus::Unassigned) continue;

    // Predecessor ordering.
    const bool blocked = std::any_of(
        p.predecessors.begin(), p.predecessors.end(), [&](ProblemId pre) {
          return problems_[pre.value].status != ProblemStatus::Solved;
        });
    if (blocked) {
      if (p.status != ProblemStatus::Solved &&
          p.status != ProblemStatus::Waiting) {
        p.status = ProblemStatus::Waiting;
        changed = true;
      }
      continue;
    }
    if (p.status == ProblemStatus::Waiting) {
      p.status = ProblemStatus::Ready;
      changed = true;
    }

    // Solved check: outputs bound and T_i clean (known fresh non-violated).
    const bool outputsBound = std::all_of(
        p.outputs.begin(), p.outputs.end(),
        [&](constraint::PropertyId o) { return net_.property(o).bound(); });
    bool clean = outputsBound && !p.outputs.empty();
    if (clean) {
      for (constraint::ConstraintId cid : p.constraints) {
        if (!net_.isActive(cid)) continue;  // not generated yet
        if (knownStatus_[cid.value] == constraint::Status::Violated ||
            stale_[cid.value]) {
          clean = false;
          break;
        }
      }
    }
    // Children must be solved before a parent can be.
    if (clean) {
      clean = std::all_of(p.children.begin(), p.children.end(),
                          [&](ProblemId ch) {
                            return problems_[ch.value].status ==
                                   ProblemStatus::Solved;
                          });
    }
    if (clean && p.status != ProblemStatus::Solved) {
      p.status = ProblemStatus::Solved;
      changed = true;
    } else if (!clean && p.status == ProblemStatus::Solved) {
      p.status = ProblemStatus::InProgress;
      changed = true;
    }
  }
  return changed;
}

void DesignProcessManager::markStaleFor(constraint::PropertyId p) {
  if (options_.adpm) return;  // propagation refreshes everything anyway
  for (constraint::ConstraintId cid : net_.constraintsOf(p)) {
    if (!net_.isActive(cid)) continue;  // not generated yet
    stale_[cid.value] = true;
    // The last verified verdict no longer applies to the new value.
    knownStatus_[cid.value] = constraint::Status::Consistent;
  }
}

const DesignProblem& DesignProcessManager::problem(ProblemId id) const {
  if (id.value >= problems_.size()) {
    throw adpm::InvalidArgumentError("unknown problem id " +
                                     std::to_string(id.value));
  }
  return problems_[id.value];
}

std::vector<ProblemId> DesignProcessManager::problemIds() const {
  std::vector<ProblemId> ids;
  ids.reserve(problems_.size());
  for (const auto& p : problems_) ids.push_back(p.id);
  return ids;
}

std::vector<ProblemId> DesignProcessManager::problemsOf(
    const std::string& designer) const {
  std::vector<ProblemId> ids;
  for (const auto& p : problems_) {
    if (p.owner == designer) ids.push_back(p.id);
  }
  return ids;
}

const DesignObject* DesignProcessManager::object(
    const std::string& name) const noexcept {
  for (const auto& o : objects_) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

std::vector<std::string> DesignProcessManager::objectNames() const {
  std::vector<std::string> names;
  names.reserve(objects_.size());
  for (const auto& o : objects_) names.push_back(o.name);
  return names;
}

std::vector<std::string> DesignProcessManager::designers() const {
  std::set<std::string> names;
  for (const auto& p : problems_) {
    if (!p.owner.empty()) names.insert(p.owner);
  }
  return {names.begin(), names.end()};
}

std::vector<constraint::ConstraintId> DesignProcessManager::knownViolations()
    const {
  std::vector<constraint::ConstraintId> out;
  for (std::uint32_t i = 0; i < knownStatus_.size(); ++i) {
    if (knownStatus_[i] == constraint::Status::Violated) {
      out.push_back(constraint::ConstraintId{i});
    }
  }
  return out;
}

std::size_t DesignProcessManager::knownViolationCount() const {
  return static_cast<std::size_t>(
      std::count(knownStatus_.begin(), knownStatus_.end(),
                 constraint::Status::Violated));
}

bool DesignProcessManager::isStale(constraint::ConstraintId c) const {
  return c.value < stale_.size() && stale_[c.value];
}

bool DesignProcessManager::crossSubsystem(constraint::ConstraintId c) const {
  const constraint::Constraint& con = net_.constraint(c);
  std::set<std::string> objects;
  for (constraint::PropertyId arg : con.arguments()) {
    objects.insert(net_.property(arg).object);
  }
  return objects.size() > 1;
}

std::string DesignProcessManager::ownerOfObject(
    const std::string& objectName) const {
  for (const auto& p : problems_) {
    if (p.object == objectName && !p.owner.empty()) return p.owner;
  }
  return {};
}

std::string DesignProcessManager::ownerOfProperty(
    constraint::PropertyId p) const {
  // Prefer a problem that outputs the property; fall back to the object's
  // owner.
  for (const auto& prob : problems_) {
    if (prob.hasOutput(p) && !prob.owner.empty()) return prob.owner;
  }
  return ownerOfObject(net_.property(p).object);
}

bool DesignProcessManager::allOutputsBound() const {
  for (const auto& p : problems_) {
    for (constraint::PropertyId o : p.outputs) {
      if (!net_.property(o).bound()) return false;
    }
  }
  return true;
}

bool DesignProcessManager::designComplete() const {
  if (!allOutputsBound()) return false;
  if (knownViolationCount() > 0) return false;
  if (!staged_.empty()) return false;  // constraints still to be generated
  if (!options_.adpm) {
    // Conventional flow: every *generated* constraint must have been
    // verified since the last change of any involved property.
    for (std::uint32_t i = 0; i < stale_.size(); ++i) {
      if (stale_[i] && net_.isActive(constraint::ConstraintId{i})) {
        return false;
      }
    }
  }
  return std::all_of(problems_.begin(), problems_.end(),
                     [](const DesignProblem& p) {
                       return p.status == ProblemStatus::Solved ||
                              p.status == ProblemStatus::Unassigned;
                     });
}

void DesignProcessManager::recordFailedAssignment(constraint::PropertyId p,
                                                  double value) {
  failedAssignments_[p].push_back(value);
}

bool DesignProcessManager::isFailedAssignment(constraint::PropertyId p,
                                              double value,
                                              double tolerance) const {
  const auto it = failedAssignments_.find(p);
  if (it == failedAssignments_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(), [&](double v) {
    return std::fabs(v - value) <= tolerance;
  });
}

ManagerState DesignProcessManager::exportState() const {
  ManagerState s;
  s.stage = stage();
  s.evaluations = net_.evaluationCount();
  for (std::uint32_t i = 0; i < net_.propertyCount(); ++i) {
    const constraint::PropertyId pid{i};
    const constraint::Property& p = net_.property(pid);
    if (p.bound()) s.bindings.emplace_back(pid, *p.value);
  }
  for (std::uint32_t i = 0; i < net_.constraintCount(); ++i) {
    const constraint::ConstraintId cid{i};
    if (net_.isActive(cid)) s.activeConstraints.push_back(cid);
  }
  s.objectVersions.reserve(objects_.size());
  for (const DesignObject& o : objects_) s.objectVersions.push_back(o.version);
  s.problemStatuses.reserve(problems_.size());
  for (const DesignProblem& p : problems_) s.problemStatuses.push_back(p.status);
  s.knownStatuses = knownStatus_;
  s.stale = stale_;
  s.guidanceValid = guidance_ != nullptr;
  if (guidance_) s.guidance = *guidance_;
  s.previousGuidanceValid = previousGuidance_ != nullptr;
  if (previousGuidance_) s.previousGuidance = *previousGuidance_;
  s.staged = staged_;
  s.failedAssignments = failedAssignments_;
  return s;
}

void DesignProcessManager::restoreState(const ManagerState& state) {
  // Validate every shape before mutating anything, so a damaged checkpoint
  // leaves the manager untouched and the caller can fall back.
  if (state.objectVersions.size() != objects_.size() ||
      state.problemStatuses.size() != problems_.size() ||
      state.knownStatuses.size() != net_.constraintCount() ||
      state.stale.size() != net_.constraintCount()) {
    throw adpm::InvalidArgumentError(
        "manager state shape does not match the instantiated scenario");
  }
  for (const auto& [pid, value] : state.bindings) {
    (void)value;
    if (pid.value >= net_.propertyCount()) {
      throw adpm::InvalidArgumentError("manager state binds unknown property");
    }
  }
  std::vector<bool> shouldBeActive(net_.constraintCount(), false);
  for (constraint::ConstraintId cid : state.activeConstraints) {
    if (cid.value >= net_.constraintCount()) {
      throw adpm::InvalidArgumentError(
          "manager state activates unknown constraint");
    }
    shouldBeActive[cid.value] = true;
  }
  for (std::uint32_t i = 0; i < net_.constraintCount(); ++i) {
    // Activation is monotonic (nothing ever deactivates), so a constraint
    // active right after instantiation cannot be inactive at a later stage.
    if (net_.isActive(constraint::ConstraintId{i}) && !shouldBeActive[i]) {
      throw adpm::InvalidArgumentError(
          "manager state deactivates an init-active constraint");
    }
  }
  for (const auto& [cid, trigger] : state.staged) {
    if (cid.value >= net_.constraintCount() ||
        trigger.value >= problems_.size()) {
      throw adpm::InvalidArgumentError(
          "manager state stages unknown constraint or problem");
    }
  }
  for (const auto& [pid, values] : state.failedAssignments) {
    (void)values;
    if (pid.value >= net_.propertyCount()) {
      throw adpm::InvalidArgumentError(
          "manager state records failed assignments for unknown property");
    }
  }

  std::vector<bool> shouldBeBound(net_.propertyCount(), false);
  for (const auto& [pid, value] : state.bindings) {
    (void)value;
    shouldBeBound[pid.value] = true;
  }
  for (std::uint32_t i = 0; i < net_.propertyCount(); ++i) {
    const constraint::PropertyId pid{i};
    if (!shouldBeBound[i] && net_.property(pid).bound()) net_.unbind(pid);
  }
  for (const auto& [pid, value] : state.bindings) net_.bind(pid, value);
  for (constraint::ConstraintId cid : state.activeConstraints) {
    if (!net_.isActive(cid)) net_.activate(cid);
  }
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    objects_[i].version = state.objectVersions[i];
  }
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    problems_[i].status = state.problemStatuses[i];
  }
  knownStatus_ = state.knownStatuses;
  stale_ = state.stale;
  guidance_ = state.guidanceValid
                  ? std::make_shared<const constraint::GuidanceReport>(
                        state.guidance)
                  : nullptr;
  previousGuidance_ =
      state.previousGuidanceValid
          ? std::make_shared<const constraint::GuidanceReport>(
                state.previousGuidance)
          : nullptr;
  staged_ = state.staged;
  failedAssignments_ = state.failedAssignments;
  // The counter restarts at the snapshot's total: post-restore operations
  // charge exactly what they would have charged in the original run.
  net_.resetEvaluationCount();
  net_.chargeEvaluations(state.evaluations);
  history_.clear();
  baseStage_ = state.stage;
}

}  // namespace adpm::dpm
