#include "interval/interval_set.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace adpm::interval {

IntervalSet::IntervalSet(const Interval& iv) {
  if (!iv.empty()) pieces_.push_back(iv);
}

IntervalSet IntervalSet::fromPieces(std::vector<Interval> pieces) {
  pieces.erase(std::remove_if(pieces.begin(), pieces.end(),
                              [](const Interval& p) { return p.empty(); }),
               pieces.end());
  std::sort(pieces.begin(), pieces.end(),
            [](const Interval& a, const Interval& b) {
              return a.lo() < b.lo() || (a.lo() == b.lo() && a.hi() < b.hi());
            });
  IntervalSet out;
  for (const Interval& p : pieces) {
    if (!out.pieces_.empty() && p.lo() <= out.pieces_.back().hi()) {
      // Overlapping or touching: merge into the previous piece.
      out.pieces_.back() =
          Interval(out.pieces_.back().lo(),
                   std::max(out.pieces_.back().hi(), p.hi()));
    } else {
      out.pieces_.push_back(p);
    }
  }
  return out;
}

Interval IntervalSet::hull() const noexcept {
  if (pieces_.empty()) return Interval::emptySet();
  return Interval(pieces_.front().lo(), pieces_.back().hi());
}

double IntervalSet::measure() const noexcept {
  double total = 0.0;
  for (const Interval& p : pieces_) total += p.width();
  return total;
}

bool IntervalSet::contains(double v) const noexcept {
  for (const Interval& p : pieces_) {
    if (p.contains(v)) return true;
  }
  return false;
}

IntervalSet IntervalSet::unite(const IntervalSet& other) const {
  std::vector<Interval> all = pieces_;
  all.insert(all.end(), other.pieces_.begin(), other.pieces_.end());
  return fromPieces(std::move(all));
}

IntervalSet IntervalSet::intersect(const IntervalSet& other) const {
  std::vector<Interval> out;
  for (const Interval& a : pieces_) {
    for (const Interval& b : other.pieces_) {
      const Interval c = adpm::interval::intersect(a, b);
      if (!c.empty()) out.push_back(c);
    }
  }
  return fromPieces(std::move(out));
}

IntervalSet IntervalSet::intersect(const Interval& iv) const {
  return intersect(IntervalSet(iv));
}

Interval IntervalSet::nearestPiece(double v) const {
  if (pieces_.empty()) {
    throw adpm::InvalidArgumentError("nearestPiece() on empty IntervalSet");
  }
  const Interval* best = &pieces_.front();
  double bestDistance = std::numeric_limits<double>::infinity();
  for (const Interval& p : pieces_) {
    const double distance =
        p.contains(v) ? 0.0 : std::min(std::fabs(v - p.lo()),
                                       std::fabs(v - p.hi()));
    if (distance < bestDistance) {
      bestDistance = distance;
      best = &p;
    }
  }
  return *best;
}

std::string IntervalSet::str(int digits) const {
  if (pieces_.empty()) return "{}";
  std::string out;
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    if (i) out += " u ";
    pieces_[i].appendTo(out, digits);
  }
  return out;
}

bool IntervalSet::operator==(const IntervalSet& other) const noexcept {
  return pieces_ == other.pieces_;
}

}  // namespace adpm::interval
