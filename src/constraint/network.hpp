// The constraint network C_n: all properties and constraints of the current
// design state, with binding operations and status evaluation.
//
// This module is the equivalent of the paper's CCM constraint-management
// infrastructure (Carballo & Director, DAC'99): constraints are generated
// into the network as the design process runs, and the Design Constraint
// Manager evaluates/propagates them.  Every status evaluation and every
// HC4 revise increments the network's evaluation counter — the paper's
// "number of constraint evaluations" cost metric (a proxy for verification
// tool runs).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "constraint/constraint.hpp"
#include "constraint/property.hpp"

namespace adpm::constraint {

/// Exact memo of HC4 revises, shared by every Propagator on one network.
///
/// A revise (forward sweep, toleranced target, HC4 revise, classify) is a
/// pure function of the constraint and the bit patterns of its argument
/// intervals, so an entry keyed on exactly those bits can never go stale:
/// the expressions and targets never change.  A hit still counts as one
/// revise, so the revise sequence, the sweep boundaries and every charged
/// evaluation are the ones a memo-less run produces.  Keys compare bit for
/// bit: -0.0 and +0.0 are different keys.
///
/// The memo keeps two generations: the one being recorded (current) and
/// the one before it (previous).  The first main run (`Propagator::run`) of
/// a new network generation makes the current generation the previous one,
/// clears the other and records every revise into it, replaying hits from
/// the previous generation as it goes: most of an operation's pass repeats
/// the last operation's pass bit for bit.  Later main runs at that
/// generation and the what-if runs (`Propagator::runRelaxed`) record
/// nothing and replay hits from the current generation, then the previous
/// one.  Recording only appends; a generation's hash index is built on its
/// first lookup after a recording, so a frozen previous generation is
/// indexed at most once and a pass with no lookup into its own generation
/// pays for the appends only.
///
/// Storage is one fixed block (ARCHITECTURE §4b) holding both generations,
/// mapped straight from the operating system on the first recording and
/// reused by every later generation: its size is a compile-time bound,
/// untouched pages cost no memory, and a closed session returns its pages
/// instead of leaving a hole in the malloc arena of whichever pool thread
/// grew it.  Argument intervals are stored once per distinct value a run
/// produced and referenced by 4-byte ids, about 50 B per entry in all.
class ReviseMemo {
 public:
  /// Revises recorded per generation at most.  Recording also stops when
  /// the value or id arrays fill first (only with unusually wide
  /// constraints).  A constant, not an option.
  static constexpr std::size_t kMaxEntries = 8192;

  /// A revise's result: everything the propagator reads back besides the
  /// narrowed box.
  struct Outcome {
    bool feasible = false;
    /// The revise narrowed at least one argument.
    bool narrowed = false;
    /// Violated when infeasible, else what `classify` gave.
    Status status = Status::Consistent;
  };

  ReviseMemo() = default;
  ReviseMemo(ReviseMemo&& other) noexcept;
  ReviseMemo& operator=(ReviseMemo&& other) noexcept;

  /// Starts the main run of `generation` over `box`: when the memo's
  /// current generation is another one, makes it the previous generation,
  /// clears the other half for `generation` and returns true (the run
  /// should record).  Returns false when this generation was already
  /// recorded (or no storage could be mapped).
  bool beginRecording(std::uint64_t generation,
                      std::span<const interval::Interval> box);

  /// Appends one revise of `c` over `args` to the current generation, hits
  /// replayed by the recording run included; `box` is the run's box after
  /// the revise.  Ignored once the generation is full.
  void record(ConstraintId c, const Outcome& outcome,
              std::span<const PropertyId> args,
              std::span<const interval::Interval> box);

  /// Looks up the revise of `c` over exactly the argument intervals
  /// `before`, in the current generation and then the previous one.  On a
  /// hit, writes the recorded narrowing of `args` into `box` and returns
  /// the recorded outcome.
  std::optional<Outcome> replay(ConstraintId c,
                                std::span<const interval::Interval> before,
                                std::span<const PropertyId> args,
                                std::span<interval::Interval> box);

  /// As replay(), but in the previous generation only: the lookup of a
  /// recording run, whose own generation is still incomplete.
  std::optional<Outcome> replayPrevious(
      ConstraintId c, std::span<const interval::Interval> before,
      std::span<const PropertyId> args, std::span<interval::Interval> box);

  /// Revises recorded at the current generation.
  std::size_t size() const noexcept {
    return state_.half[state_.current].entries;
  }
  /// Neither generation holds a revise.
  bool empty() const noexcept {
    return state_.half[0].entries == 0 && state_.half[1].entries == 0;
  }
  /// Bytes of address space reserved for storage; 0 before the first
  /// recording.  Only the pages written are resident.
  std::size_t mappedBytes() const noexcept;
  /// Revises replayed from the memo since construction.
  std::uint64_t hits() const noexcept { return state_.hits; }

 private:
  struct Storage;
  struct Unmap {
    void operator()(Storage* s) const noexcept;
  };
  /// One generation's fill counters; its arrays are a half of Storage.
  struct Fill {
    std::uint64_t generation = std::numeric_limits<std::uint64_t>::max();
    /// Room left: cleared when an array fills, so entries stay a prefix.
    bool recording = false;
    std::size_t entries = 0;
    std::size_t ids = 0;
    std::size_t values = 0;
    /// Entries covered by the index, and the index's slot count.
    std::size_t indexed = 0;
    std::size_t slots = 0;
  };
  struct State {
    Fill half[2];
    /// The half being recorded (or last recorded); the other is previous.
    std::size_t current = 0;
    std::uint64_t hits = 0;
  };

  std::optional<Outcome> find(std::size_t half, std::uint64_t hash,
                              ConstraintId c,
                              std::span<const interval::Interval> before,
                              std::span<const PropertyId> args,
                              std::span<interval::Interval> box);
  void buildIndex(std::size_t half);

  std::unique_ptr<Storage, Unmap> storage_;
  /// While recording: the value id of each property's current interval.
  std::vector<std::uint32_t> valueIds_;
  State state_;
};

/// Everything needed to register a property.
struct PropertySpec {
  std::string name;
  std::string object;
  interval::Domain initial;
  std::string unit;
  std::vector<std::string> abstractionLevels;
  /// -1 prefer small, +1 prefer large, 0 no preference.
  int preference = 0;
};

class Network {
 public:
  Network() = default;

  // Non-copyable (constraints hold compiled scratch); movable.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  // -- construction ----------------------------------------------------------

  PropertyId addProperty(PropertySpec spec);

  /// Adds lhs REL rhs.  All variables in the expressions must be ids of
  /// already-registered properties.  An inactive constraint is registered
  /// (stable id, adjacency) but invisible to evaluation and propagation
  /// until activated — the paper's DPM "generates any necessary constraints"
  /// as the process unfolds, which is modelled as activation.
  ConstraintId addConstraint(std::string name, expr::Expr lhs, Relation rel,
                             expr::Expr rhs, bool active = true);

  bool isActive(ConstraintId c) const;
  void activate(ConstraintId c);
  /// Number of currently active constraints (what the Fig. 8 statistics
  /// window displays as "number of constraints").
  std::size_t activeConstraintCount() const noexcept;

  /// Expression variable for a property (names the variable after it).
  expr::Expr var(PropertyId p) const;

  // -- lookup ----------------------------------------------------------------

  std::size_t propertyCount() const noexcept { return properties_.size(); }
  std::size_t constraintCount() const noexcept { return constraints_.size(); }

  const Property& property(PropertyId p) const;
  Property& property(PropertyId p);
  const Constraint& constraint(ConstraintId c) const;
  Constraint& constraint(ConstraintId c);

  std::optional<PropertyId> findProperty(std::string_view name) const noexcept;
  std::optional<ConstraintId> findConstraint(std::string_view name) const noexcept;

  /// Constraints mentioning property p (the basis of β_i).
  const std::vector<ConstraintId>& constraintsOf(PropertyId p) const;

  std::vector<PropertyId> propertyIds() const;
  std::vector<ConstraintId> constraintIds() const;

  // -- binding ---------------------------------------------------------------

  /// Binds p to value v (v need not lie in E_i; designers can and do pick
  /// out-of-range values in conventional mode, which is how conflicts arise).
  void bind(PropertyId p, double v);
  void unbind(PropertyId p);

  /// The evaluation box: bound properties appear as points, unbound ones as
  /// their full range hull.
  std::vector<interval::Interval> currentBox() const;

  // -- evaluation ------------------------------------------------------------

  /// Forward-evaluates one constraint over the current box; counts one
  /// evaluation.  This is the conventional flow's primitive (a verification
  /// tool run).
  Status evaluate(ConstraintId c);

  /// Evaluates a set of constraints; returns their statuses in order.
  std::vector<Status> evaluate(const std::vector<ConstraintId>& ids);

  /// Total evaluations since construction or the last reset.
  std::size_t evaluationCount() const noexcept { return evaluations_; }
  void resetEvaluationCount() noexcept { evaluations_ = 0; }
  /// Used by the propagation engine to charge its revises to this network.
  void chargeEvaluations(std::size_t n) noexcept { evaluations_ += n; }

  /// Box generation: bumped by every mutation routed through this API that
  /// can change `currentBox()` or the active set (add/bind/unbind/activate).
  /// The miner keys its per-constraint residual/monotonicity caches on this,
  /// so repeated mines over an unchanged box (what-if reporting, repeated
  /// browser refreshes) skip recomputation.  Mutating a Property obtained
  /// from the non-const `property()` accessor bypasses the counter — bind
  /// through the network, as all in-tree code does.
  std::uint64_t generation() const noexcept { return generation_; }

  /// The revise memo the propagators on this network share (see
  /// ReviseMemo).  Like Constraint::MiningCache it is pure memoization:
  /// nothing it holds is observable except through speed.
  ReviseMemo& reviseMemo() noexcept { return reviseMemo_; }

 private:
  std::vector<Property> properties_;
  std::vector<std::unique_ptr<Constraint>> constraints_;
  std::vector<bool> active_;
  std::vector<std::vector<ConstraintId>> byProperty_;
  std::size_t evaluations_ = 0;
  std::uint64_t generation_ = 0;
  ReviseMemo reviseMemo_;
};

}  // namespace adpm::constraint
