#include "interval/domain.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/number.hpp"

namespace adpm::interval {

Domain Domain::continuous(Interval range) noexcept {
  Domain d;
  d.range_ = range;
  return d;
}

Domain Domain::continuous(double lo, double hi) noexcept {
  return continuous(Interval(lo, hi));
}

Domain Domain::discrete(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  Domain d;
  d.discrete_ = std::move(values);
  if (!d.discrete_->empty()) {
    d.range_ = Interval(d.discrete_->front(), d.discrete_->back());
  }
  return d;
}

Domain Domain::point(double v) noexcept {
  return continuous(Interval(v));
}

bool Domain::empty() const noexcept {
  if (discrete_) return discrete_->empty();
  return range_.empty();
}

std::size_t Domain::count() const {
  if (!discrete_) throw InvalidArgumentError("count() on continuous domain");
  return discrete_->size();
}

const std::vector<double>& Domain::values() const {
  if (!discrete_) throw InvalidArgumentError("values() on continuous domain");
  return *discrete_;
}

Interval Domain::hull() const noexcept { return range_; }

bool Domain::contains(double v, double tol) const noexcept {
  if (discrete_) {
    for (double d : *discrete_) {
      if (std::fabs(d - v) <= tol) return true;
    }
    return false;
  }
  return range_.contains(v) ||
         (!range_.empty() && (std::fabs(v - range_.lo()) <= tol ||
                              std::fabs(v - range_.hi()) <= tol));
}

bool Domain::isPoint() const noexcept {
  if (discrete_) return discrete_->size() == 1;
  return range_.isPoint();
}

Domain Domain::intersect(const Interval& window) const {
  if (discrete_) {
    std::vector<double> kept;
    for (double v : *discrete_) {
      if (window.contains(v)) kept.push_back(v);
    }
    return Domain::discrete(std::move(kept));
  }
  return Domain::continuous(adpm::interval::intersect(range_, window));
}

double Domain::measure() const noexcept {
  if (discrete_) return static_cast<double>(discrete_->size());
  return range_.width();
}

double Domain::relativeMeasure(const Domain& reference) const noexcept {
  const double ref = reference.measure();
  if (ref <= 0.0) return empty() ? 0.0 : 1.0;
  return std::clamp(measure() / ref, 0.0, 1.0);
}

double Domain::minValue() const {
  if (empty()) throw InvalidArgumentError("minValue() on empty domain");
  if (discrete_) return discrete_->front();
  return range_.lo();
}

double Domain::maxValue() const {
  if (empty()) throw InvalidArgumentError("maxValue() on empty domain");
  if (discrete_) return discrete_->back();
  return range_.hi();
}

double Domain::nearest(double v) const {
  if (empty()) throw InvalidArgumentError("nearest() on empty domain");
  if (!discrete_) return range_.clamp(v);
  double best = discrete_->front();
  double bestDist = std::fabs(v - best);
  for (double d : *discrete_) {
    const double dist = std::fabs(v - d);
    if (dist < bestDist) {
      best = d;
      bestDist = dist;
    }
  }
  return best;
}

std::string Domain::str(int digits) const {
  std::string out;
  appendTo(out, digits);
  return out;
}

void Domain::appendTo(std::string& out, int digits) const {
  if (!discrete_) {
    range_.appendTo(out, digits);
    return;
  }
  out += '{';
  for (std::size_t i = 0; i < discrete_->size(); ++i) {
    if (i) out += ", ";
    util::appendDouble(out, (*discrete_)[i], digits);
  }
  out += '}';
}

bool Domain::operator==(const Domain& other) const noexcept {
  if (discrete_.has_value() != other.discrete_.has_value()) return false;
  if (discrete_) return *discrete_ == *other.discrete_;
  return range_ == other.range_;
}

}  // namespace adpm::interval
