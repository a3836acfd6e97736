#include "util/executor.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace adpm::util {

Executor::Executor() : Executor(Options{}) {}

Executor::Executor(Options options) : options_(options) {
  if (options_.deterministic) {
    workerCount_ = 0;
    return;
  }
  unsigned threads = options_.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;  // hardware_concurrency may be unknown
  }
  workerCount_ = threads;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

Executor::~Executor() {
  drain();
  {
    LockGuard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void Executor::post(std::function<void()> task) {
  if (ADPM_FAULT_POINT("executor.post") != FaultAction::None) {
    // Fails the submission itself — the task is never queued, so callers
    // holding its future see a broken_promise-free, typed rejection.
    throw adpm::FaultInjectedError("injected failure posting task");
  }
  if (options_.deterministic) {
    task();
    return;
  }
  {
    LockGuard lock(mutex_);
    ++pending_;
    // The pool queue itself carries no completion bookkeeping (strand
    // dispatches ride it too, uncounted), so the posted task retires itself.
    queue_.push_back([this, task = std::move(task)]() mutable {
      task();
      finishOne();
    });
  }
  wake_.notify_one();
}

void Executor::drain() {
  if (options_.deterministic) return;
  UniqueLock lock(mutex_);
  while (pending_ != 0) idle_.wait(lock);
}

void Executor::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lock(mutex_);
      while (!stop_ && queue_.empty()) wake_.wait(lock);
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Dispatch probe: a worker cannot "fail" to run a dequeued task, so only
    // Delay (stall a worker) and Abort (die mid-dispatch) are meaningful
    // here; Error/ShortWrite results are ignored.
    (void)ADPM_FAULT_POINT("executor.dispatch");
    task();
  }
}

void Executor::finishOne() {
  std::size_t left;
  {
    LockGuard lock(mutex_);
    left = --pending_;
  }
  if (left == 0) idle_.notify_all();
}

// -- Strand -------------------------------------------------------------------

std::shared_ptr<Executor::Strand> Executor::makeStrand() {
  return std::shared_ptr<Strand>(new Strand(*this));
}

void Executor::Strand::post(std::function<void()> task) {
  if (ADPM_FAULT_POINT("executor.post") != FaultAction::None) {
    throw adpm::FaultInjectedError("injected failure posting task");
  }
  if (executor_.options_.deterministic) {
    bool drainHere = false;
    {
      LockGuard lock(mutex_);
      queue_.push_back(std::move(task));
      if (!active_) {
        active_ = true;
        drainHere = true;  // nested posts land in the outer drain loop
      }
    }
    if (drainHere) {
      // A task may drop the owner's last reference to this strand.
      const std::shared_ptr<Strand> self = shared_from_this();
      drainInline();
    }
    return;
  }

  // Count the task before it becomes consumable: once it sits in the strand
  // queue, an already-active dispatch on a pool thread may run it and
  // finishOne() immediately, so incrementing pending_ afterwards would let
  // the count transiently hit 0 (drain() returning with work still queued)
  // and then underflow.
  {
    LockGuard lock(executor_.mutex_);
    ++executor_.pending_;
  }
  bool schedule = false;
  {
    LockGuard lock(mutex_);
    queue_.push_back(std::move(task));
    if (!active_) {
      active_ = true;
      schedule = true;
    }
  }
  if (schedule) {
    {
      LockGuard lock(executor_.mutex_);
      // Internal dispatch: runs one strand task per pool slot; not counted
      // as a task itself (pending_ tracks user tasks only).  It holds the
      // strand alive until it has run.
      executor_.queue_.push_back(
          [self = shared_from_this()] { self->runOne(); });
    }
    executor_.wake_.notify_one();
  }
}

void Executor::Strand::runOne() {
  std::function<void()> task;
  {
    LockGuard lock(mutex_);
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  (void)ADPM_FAULT_POINT("executor.dispatch");  // Delay/Abort only (see above)
  task();

  // Reschedule (or go idle) *before* retiring the task from the executor's
  // pending count: once pending_ hits 0 a drain()ing owner goes on, and must
  // find the strand settled.  The strand object itself outlives this call:
  // the dispatch holds it.
  bool reschedule = false;
  {
    LockGuard lock(mutex_);
    if (queue_.empty()) {
      active_ = false;
    } else {
      reschedule = true;
    }
  }
  if (reschedule) {
    {
      LockGuard lock(executor_.mutex_);
      executor_.queue_.push_back(
          [self = shared_from_this()] { self->runOne(); });
    }
    executor_.wake_.notify_one();
  }
  executor_.finishOne();
}

void Executor::Strand::drainInline() {
  for (;;) {
    std::function<void()> task;
    {
      LockGuard lock(mutex_);
      if (queue_.empty()) {
        active_ = false;
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace adpm::util
