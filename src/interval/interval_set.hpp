// Unions of disjoint closed intervals.
//
// Hull (single-interval) arithmetic is what propagation runs on, but some
// feedback is genuinely disjunctive: the values of a property compatible
// with |f_c − f_target| <= df form two lobes, and the rebinding window of a
// variable under an even-power constraint is a symmetric pair.  IntervalSet
// represents such sets exactly for analysis and display
// (constraint::solveUnivariate, the browser's REQUIRED WINDOWS pane).
#pragma once

#include <string>
#include <vector>

#include "interval/interval.hpp"

namespace adpm::interval {

/// A finite union of disjoint, sorted, non-empty closed intervals.
class IntervalSet {
 public:
  /// The empty set.
  IntervalSet() = default;

  /// Singleton set (empty interval => empty set).
  explicit IntervalSet(const Interval& iv);

  /// Normalises arbitrary pieces: drops empties, sorts, merges overlapping
  /// or touching intervals.
  static IntervalSet fromPieces(std::vector<Interval> pieces);

  bool empty() const noexcept { return pieces_.empty(); }
  std::size_t pieceCount() const noexcept { return pieces_.size(); }
  const std::vector<Interval>& pieces() const noexcept { return pieces_; }

  /// Smallest interval containing the whole set.
  Interval hull() const noexcept;

  /// Total length (sum of piece widths).
  double measure() const noexcept;

  bool contains(double v) const noexcept;

  /// Set union / intersection with normalisation.
  IntervalSet unite(const IntervalSet& other) const;
  IntervalSet intersect(const IntervalSet& other) const;
  IntervalSet intersect(const Interval& iv) const;

  /// The piece containing `v`, or the one nearest to it; must not be empty.
  Interval nearestPiece(double v) const;

  /// "[a, b] u [c, d]" rendering (pieces as Interval::str).
  std::string str(int digits = 6) const;

  bool operator==(const IntervalSet& other) const noexcept;

 private:
  std::vector<Interval> pieces_;  // invariant: sorted, disjoint, non-empty
};

}  // namespace adpm::interval
