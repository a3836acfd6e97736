// Property value domains.
//
// In the paper a property a_i "can take one or more values from a range
// E_i = {v_j}" — continuous design variables (widths, inductances) have
// interval ranges, while discrete choices (e.g. number of resonator beams)
// have finite enumerated value sets.  Domain is the closed union of those two
// shapes, with the operations the heuristic miner needs: intersection with a
// propagated interval, a normalised size measure (for the smallest-feasible-
// subspace heuristic), and ordered value picking (for the value selection
// function f_v, which "chooses the top or bottom value").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "interval/interval.hpp"

namespace adpm::interval {

/// Either a continuous interval or a finite sorted set of numeric values.
class Domain {
 public:
  /// Default: empty continuous domain.
  Domain() noexcept = default;

  static Domain continuous(Interval range) noexcept;
  static Domain continuous(double lo, double hi) noexcept;
  /// Values are sorted and deduplicated.
  static Domain discrete(std::vector<double> values);
  static Domain point(double v) noexcept;

  bool isDiscrete() const noexcept { return discrete_.has_value(); }
  bool empty() const noexcept;

  /// Number of values in a discrete domain; throws for continuous.
  std::size_t count() const;
  const std::vector<double>& values() const;

  /// Smallest interval containing the domain.
  Interval hull() const noexcept;

  bool contains(double v, double tol = 0.0) const noexcept;

  /// True if the domain is a single value.
  bool isPoint() const noexcept;

  /// Keeps only values inside `window` (discrete) or intersects (continuous).
  Domain intersect(const Interval& window) const;

  /// Lebesgue-style size: width for continuous, count-1 spacing-free proxy
  /// (count as a real number) for discrete.  Only meaningful as a *ratio*
  /// against another measure of the same domain family — see
  /// `relativeMeasure`.
  double measure() const noexcept;

  /// Size of this domain relative to a reference domain (typically the
  /// initial range E_i).  Returns a value in [0, 1]; this is the
  /// unit-independent quantity the smallest-feasible-subspace heuristic
  /// ranks on (the paper notes raw value-set size is "unit-dependent").
  double relativeMeasure(const Domain& reference) const noexcept;

  /// Smallest / largest value in the domain; must not be empty.
  double minValue() const;
  double maxValue() const;

  /// Nearest domain value to `v`; must not be empty.
  double nearest(double v) const;

  /// "{a, b, c}" for a discrete domain, Interval::str for a continuous one;
  /// appendTo writes it in place.
  std::string str(int digits = 6) const;
  void appendTo(std::string& out, int digits = 6) const;

  bool operator==(const Domain& other) const noexcept;

 private:
  Interval range_ = Interval::emptySet();
  std::optional<std::vector<double>> discrete_;
};

}  // namespace adpm::interval
