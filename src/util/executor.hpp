// Fixed thread-pool executor with per-session strands.
//
// The design-session service hosts many concurrent sessions on a small,
// fixed worker pool.  Each session owns a *strand*: tasks posted to the same
// strand execute one at a time and in FIFO order (so a session's operations
// serialize without a per-session thread), while tasks on distinct strands
// run in parallel across the pool.  A strand dispatches at most one task per
// pool slot and re-enqueues itself while work remains, which keeps scheduling
// fair when there are more live sessions than workers.
//
// Deterministic mode (`Options::deterministic`) runs every task inline on
// the posting thread, preserving FIFO order for nested posts.  With a single
// driving thread this makes service runs bit-stable — the mode the replay
// tests and the WAL determinism guarantee rely on.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace adpm::util {

class Executor {
 public:
  struct Options {
    /// Worker threads; 0 = hardware_concurrency (clamped to at least 1).
    unsigned threads = 0;
    /// Run tasks inline at post() time on the posting thread (no workers).
    bool deterministic = false;
  };

  // Two overloads instead of `Options options = {}`: GCC rejects a
  // brace-init default argument of a nested aggregate with default member
  // initializers while the enclosing class is incomplete.
  Executor();
  explicit Executor(Options options);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueues a task on the pool (inline in deterministic mode).
  void post(std::function<void()> task);

  /// Blocks until every posted task (including strand tasks) has finished.
  /// New tasks posted while draining are waited for too.
  void drain();

  unsigned workerCount() const noexcept { return workerCount_; }
  bool deterministic() const noexcept { return options_.deterministic; }

  /// Serialized task queue over this executor.  Thread-safe.  Owned by
  /// shared_ptr; a pending dispatch holds a reference of its own, so the
  /// owner may drop its last one at any time, even from a task running on
  /// the strand: queued tasks still run.
  class Strand : public std::enable_shared_from_this<Strand> {
   public:
    /// Enqueues a task; tasks on one strand never run concurrently and run
    /// in post order.
    void post(std::function<void()> task);

   private:
    friend class Executor;
    explicit Strand(Executor& executor) : executor_(executor) {}

    /// Runs one queued task on a pool thread, then reschedules if needed.
    void runOne();
    void drainInline();

    Executor& executor_;
    Mutex mutex_;
    std::deque<std::function<void()>> queue_ ADPM_GUARDED_BY(mutex_);
    /// True while a pool dispatch is pending/running (or, deterministic
    /// mode, while the posting thread is draining) — the serialization bit.
    bool active_ ADPM_GUARDED_BY(mutex_) = false;
  };

  std::shared_ptr<Strand> makeStrand();

 private:
  friend class Strand;

  void workerLoop();
  void finishOne();

  Options options_;
  unsigned workerCount_ = 0;

  Mutex mutex_;
  CondVar wake_;
  CondVar idle_;
  std::deque<std::function<void()>> queue_ ADPM_GUARDED_BY(mutex_);
  /// Posted but not yet finished tasks.
  std::size_t pending_ ADPM_GUARDED_BY(mutex_) = 0;
  bool stop_ ADPM_GUARDED_BY(mutex_) = false;
  /// Written only before/after the workers exist (ctor/dtor).
  std::vector<std::thread> workers_;
};

}  // namespace adpm::util
