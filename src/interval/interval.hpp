// Closed-interval arithmetic.
//
// Property ranges E_i and feasible subspaces v_F(a_i) in the paper are value
// intervals; the Design Constraint Manager narrows them by constraint
// propagation.  This module provides the interval algebra that the expression
// evaluator (forward pass) and the HC4 projector (backward pass) are built
// on.
//
// Representation notes:
//  * The empty interval is canonicalised to [+inf, -inf]; `empty()` tests
//    lo > hi.
//  * Bounds may be infinite; [-inf, +inf] is the "entire" interval.
//  * Arithmetic uses plain double rounding rather than directed rounding.
//    Soundness for the simulator is preserved by `inflate()`, which the
//    propagation engine applies before pruning decisions; the few ULPs of
//    slack are negligible at the scale of the paper's design ranges.
#pragma once

#include <limits>
#include <string>

namespace adpm::interval {

/// A closed real interval [lo, hi]; possibly empty or unbounded.
class Interval {
 public:
  /// Default-constructs the empty interval.
  constexpr Interval() noexcept = default;

  /// Degenerate (point) interval [v, v].
  constexpr explicit Interval(double v) noexcept : lo_(v), hi_(v) {}

  /// [lo, hi]; if lo > hi the result is the canonical empty interval.
  constexpr Interval(double lo, double hi) noexcept : lo_(lo), hi_(hi) {
    if (!(lo_ <= hi_)) *this = Interval::empty_();
  }

  static constexpr Interval entire() noexcept {
    return Interval(-std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity());
  }
  static constexpr Interval emptySet() noexcept { return Interval::empty_(); }
  static constexpr Interval nonNegative() noexcept {
    return Interval(0.0, std::numeric_limits<double>::infinity());
  }
  static constexpr Interval nonPositive() noexcept {
    return Interval(-std::numeric_limits<double>::infinity(), 0.0);
  }

  constexpr double lo() const noexcept { return lo_; }
  constexpr double hi() const noexcept { return hi_; }

  constexpr bool empty() const noexcept { return !(lo_ <= hi_); }
  constexpr bool isPoint() const noexcept { return lo_ == hi_; }
  constexpr bool isEntire() const noexcept {
    return lo_ == -std::numeric_limits<double>::infinity() &&
           hi_ == std::numeric_limits<double>::infinity();
  }
  bool isBounded() const noexcept;

  /// Width hi-lo; 0 for empty, +inf for unbounded intervals.
  double width() const noexcept;

  /// Midpoint; finite clamp for half-bounded intervals.
  double mid() const noexcept;

  constexpr bool contains(double v) const noexcept {
    return !empty() && lo_ <= v && v <= hi_;
  }
  constexpr bool contains(const Interval& other) const noexcept {
    return other.empty() || (!empty() && lo_ <= other.lo_ && other.hi_ <= hi_);
  }
  constexpr bool intersects(const Interval& other) const noexcept {
    return !empty() && !other.empty() && lo_ <= other.hi_ && other.lo_ <= hi_;
  }

  /// Exact comparison of bounds (empty == empty).
  constexpr bool operator==(const Interval& other) const noexcept {
    if (empty() && other.empty()) return true;
    return lo_ == other.lo_ && hi_ == other.hi_;
  }

  /// Clamps a value into the interval; v must not be called on empty.
  double clamp(double v) const noexcept;

  /// Widens each finite bound outward by max(rel*|bound|, abs_).
  Interval inflate(double rel, double abs_) const noexcept;

  /// "[lo, hi]" with bounds as printf("%.*g", digits) renders them (util's
  /// double codec); "{}" when empty.  appendTo writes it in place.
  std::string str(int digits = 6) const;
  void appendTo(std::string& out, int digits = 6) const;

 private:
  static constexpr Interval empty_() noexcept {
    Interval e;
    return e;
  }

  double lo_ = std::numeric_limits<double>::infinity();
  double hi_ = -std::numeric_limits<double>::infinity();
};

// -- set operations ---------------------------------------------------------

Interval intersect(const Interval& a, const Interval& b) noexcept;
/// Convex hull (smallest interval containing both).
Interval hull(const Interval& a, const Interval& b) noexcept;

// -- arithmetic (forward evaluation) ----------------------------------------

Interval operator+(const Interval& a, const Interval& b) noexcept;
Interval operator-(const Interval& a, const Interval& b) noexcept;
Interval operator*(const Interval& a, const Interval& b) noexcept;
/// Hull of a/b; division by an interval containing 0 widens appropriately
/// (entire when 0 is interior, half-line when 0 is an endpoint).
Interval operator/(const Interval& a, const Interval& b) noexcept;
Interval operator-(const Interval& a) noexcept;

Interval sqr(const Interval& a) noexcept;
Interval sqrt(const Interval& a) noexcept;       // domain-clipped to x >= 0
Interval pow(const Interval& a, int n) noexcept; // integer powers, n may be < 0
Interval exp(const Interval& a) noexcept;
Interval log(const Interval& a) noexcept;        // domain-clipped to x > 0
Interval abs(const Interval& a) noexcept;
Interval min(const Interval& a, const Interval& b) noexcept;
Interval max(const Interval& a, const Interval& b) noexcept;

// -- projections (backward/HC4 support) --------------------------------------

/// Extended division z/y as up to two disjoint intervals (when y straddles 0).
struct IntervalPair {
  Interval first;
  Interval second;  // empty when the result is a single interval
};
IntervalPair extendedDiv(const Interval& z, const Interval& y) noexcept;

/// Refines x given z = x + y: x' = x ∩ (z - y).
Interval projectAddLhs(const Interval& z, const Interval& x,
                       const Interval& y) noexcept;
/// Refines x given z = x * y: x' = x ∩ (z ÷ y), using extended division.
Interval projectMulLhs(const Interval& z, const Interval& x,
                       const Interval& y) noexcept;
/// Refines x given z = x^2.
Interval projectSqr(const Interval& z, const Interval& x) noexcept;
/// Refines x given z = x^n.
Interval projectPow(const Interval& z, const Interval& x, int n) noexcept;
/// Refines x given z = |x|.
Interval projectAbs(const Interval& z, const Interval& x) noexcept;
/// Refines x given z = min(x, y) (use with swapped args for the y side).
Interval projectMinLhs(const Interval& z, const Interval& x,
                       const Interval& y) noexcept;
/// Refines x given z = max(x, y).
Interval projectMaxLhs(const Interval& z, const Interval& x,
                       const Interval& y) noexcept;

}  // namespace adpm::interval
