// Span recording for the traced run.
//
// A span is one timed call into a layer's public function, recorded from the
// benchmark's own code (nothing inside src/ is instrumented): name, start,
// end, the span that caused it, and the request it belongs to (session index
// and stage).  Each driving thread owns one SpanBuffer whose storage is
// reserved up front, so recording never allocates while the timed phase
// runs; strand lambdas write into the buffer of the client thread that is
// blocked on their future, which orders the writes without a lock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace adpm::bench {

using Clock = std::chrono::steady_clock;

inline double microsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Span {
  /// Points at a string literal; spans are grouped by it.
  const char* name = nullptr;
  std::uint32_t parent = 0;
  std::uint32_t session = 0;
  std::uint32_t stage = 0;
  Clock::time_point start;
  Clock::time_point end;
};

class SpanBuffer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit SpanBuffer(std::size_t capacity) { spans_.reserve(capacity); }

  /// True once fewer than `headroom` slots remain; callers stop opening new
  /// requests then, so a request in flight never loses its child spans.
  bool nearlyFull(std::size_t headroom = 64) const noexcept {
    return spans_.size() + headroom >= spans_.capacity();
  }

  /// Records a finished span; returns its index (kNoParent when full).
  std::uint32_t add(const char* name, std::uint32_t parent,
                    std::uint32_t session, std::uint32_t stage,
                    Clock::time_point start, Clock::time_point end) {
    if (spans_.size() >= spans_.capacity()) return kNoParent;
    spans_.push_back(Span{name, parent, session, stage, start, end});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  /// Opens a span whose end is filled in by close() once its children ran.
  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint32_t session, std::uint32_t stage,
                     Clock::time_point start) {
    return add(name, parent, session, stage, start, start);
  }
  void close(std::uint32_t index, Clock::time_point end) {
    if (index < spans_.size()) spans_[index].end = end;
  }

  /// Per-boundary counts (bytes, revises, ...), recorded where the work
  /// happens so ratios are measured at the layer, not inferred.
  void count(const std::string& name, double amount) {
    counters_[name] += amount;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::map<std::string, double>& counters() const noexcept {
    return counters_;
  }

 private:
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// Every buffer of a run (client threads, replay threads).  A deque keeps
/// buffer addresses stable while threads hold references to them.
using SpanSet = std::deque<SpanBuffer>;

/// Durations in microseconds of every span called `name`, across buffers.
std::vector<double> spanMicros(const SpanSet& set, const std::string& name);

/// Sum of `counter` across buffers.
double counterTotal(const SpanSet& set, const std::string& name);

/// Per-request sums: (session, stage) -> total microseconds of the spans
/// called `name` belonging to that request.
std::map<std::pair<std::uint32_t, std::uint32_t>, double> microsByRequest(
    const SpanSet& set, const std::string& name);

/// Writes every span as JSON:
///   {"origin":"steady_clock","names":[...],
///    "spans":[[buffer,name,parent,session,stage,start_ns,end_ns],...]}
/// with times relative to `origin`.  Throws on I/O failure.
void writeSpans(const std::string& path, const SpanSet& set,
                Clock::time_point origin);

}  // namespace adpm::bench
