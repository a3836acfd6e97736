#include "util/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace adpm::util {
namespace {

TEST(Executor, RunsPostedTasks) {
  Executor ex(Executor::Options{.threads = 2});
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) ex.post([&] { ran.fetch_add(1); });
  ex.drain();
  EXPECT_EQ(ran.load(), 100);
}

TEST(Executor, ThreadsZeroFallsBackToAtLeastOneWorker) {
  Executor ex(Executor::Options{.threads = 0});
  EXPECT_GE(ex.workerCount(), 1u);
  std::atomic<bool> ran{false};
  ex.post([&] { ran = true; });
  ex.drain();
  EXPECT_TRUE(ran.load());
}

TEST(Executor, DeterministicModeRunsInlineOnPostingThread) {
  Executor ex(Executor::Options{.deterministic = true});
  EXPECT_TRUE(ex.deterministic());
  EXPECT_EQ(ex.workerCount(), 0u);
  const std::thread::id self = std::this_thread::get_id();
  bool ran = false;
  ex.post([&] {
    ran = true;
    EXPECT_EQ(std::this_thread::get_id(), self);
  });
  EXPECT_TRUE(ran);  // already done at post() return
  ex.drain();        // no-op, must not hang
}

TEST(Executor, StrandSerializesAndPreservesFifo) {
  Executor ex(Executor::Options{.threads = 4});
  auto strand = ex.makeStrand();

  std::vector<int> order;
  std::atomic<int> inFlight{0};
  std::atomic<bool> overlapped{false};
  for (int i = 0; i < 500; ++i) {
    strand->post([&, i] {
      if (inFlight.fetch_add(1) != 0) overlapped = true;
      order.push_back(i);  // safe: strand serializes
      inFlight.fetch_sub(1);
    });
  }
  ex.drain();
  EXPECT_FALSE(overlapped.load());
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(order[i], i);
}

TEST(Executor, DistinctStrandsRunInParallel) {
  Executor ex(Executor::Options{.threads = 2});
  auto a = ex.makeStrand();
  auto b = ex.makeStrand();

  // Rendezvous: each strand's task waits for the other to start.  If the
  // strands shared a serialization bit, the test would deadlock — with the
  // latch below we fail fast instead of hanging forever.
  std::mutex m;
  std::condition_variable cv;
  int arrived = 0;
  bool bothArrived = false;
  const auto rendezvous = [&] {
    std::unique_lock<std::mutex> lock(m);
    if (++arrived == 2) {
      bothArrived = true;
      cv.notify_all();
    } else {
      cv.wait_for(lock, std::chrono::seconds(30), [&] { return arrived == 2; });
    }
  };
  a->post(rendezvous);
  b->post(rendezvous);
  ex.drain();
  EXPECT_TRUE(bothArrived);
}

TEST(Executor, StrandFifoHoldsUnderConcurrentPosts) {
  // Many external threads post to one strand; each thread's own sequence
  // must come out in order (cross-thread interleaving is unspecified).
  Executor ex(Executor::Options{.threads = 3});
  auto strand = ex.makeStrand();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;

  std::vector<int> seen;  // strand-serialized
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int value = t * kPerThread + i;
        strand->post([&seen, value] { seen.push_back(value); });
      }
    });
  }
  for (std::thread& p : posters) p.join();
  ex.drain();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<int> last(kThreads, -1);
  for (const int v : seen) {
    const int t = v / kPerThread;
    EXPECT_LT(last[t], v);
    last[t] = v;
  }
}

TEST(Executor, DeterministicStrandHandlesNestedPostsWithoutRecursion) {
  Executor ex(Executor::Options{.deterministic = true});
  auto strand = ex.makeStrand();
  std::vector<int> order;
  strand->post([&] {
    order.push_back(0);
    strand->post([&] { order.push_back(2); });  // queued, not run inline
    order.push_back(1);
  });
  // The outer drain loop ran the nested task after the outer one returned.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Executor, ChainedStrandTasksComplete) {
  // A task that posts its own successor (the load generator's pump pattern);
  // drain() must wait for the whole chain.
  Executor ex(Executor::Options{.threads = 2});
  auto strand = ex.makeStrand();
  auto counter = std::make_shared<std::atomic<int>>(0);

  std::function<void()> step = [&ex, strand, counter, &step] {
    if (counter->fetch_add(1) + 1 < 50) strand->post(step);
  };
  strand->post(step);
  ex.drain();
  EXPECT_EQ(counter->load(), 50);
}

TEST(Executor, DrainCoversStrandTasksPostedBeforeItStarts) {
  // Regression for a counting race: Strand::post used to publish the task
  // and only then increment the executor's pending count in a second
  // critical section, so an already-active dispatch could retire the new
  // task first, pending_ transiently hit zero, and drain() could return
  // while counted work was still queued.  The invariant checked here is
  // one-sided safe: every task whose post() returned before drain() was
  // called must be complete when drain() returns, no matter what a
  // concurrent poster does to the same strand.
  Executor ex(Executor::Options{.threads = 2});
  auto strand = ex.makeStrand();
  constexpr int kTasks = 16;
  for (int round = 0; round < 300; ++round) {
    std::atomic<int> doneBefore{0};
    std::atomic<int> doneRacing{0};
    for (int i = 0; i < kTasks; ++i) {
      strand->post([&] { doneBefore.fetch_add(1); });
    }
    std::thread racer([&] {
      for (int i = 0; i < kTasks; ++i) {
        strand->post([&] { doneRacing.fetch_add(1); });
      }
    });
    ex.drain();  // races with the posts above
    ASSERT_EQ(doneBefore.load(), kTasks);
    racer.join();
    ex.drain();
    ASSERT_EQ(doneRacing.load(), kTasks);
  }
}

TEST(Executor, ConcurrentDrainersAllObserveCompletion) {
  // Regression companion to the thread-safety-annotation migration: drain()
  // and workerLoop() were restructured from predicate-lambda waits into
  // explicit while loops around CondVar::wait (predicate lambdas defeat
  // Clang's analysis — the lambda body is checked as a separate function
  // that does not hold the caller's lock).  The rewrite must keep the
  // many-drainers contract: every thread blocked in drain() wakes once
  // pending work hits zero, including drainers that arrive mid-burst.
  Executor ex(Executor::Options{.threads = 4});
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    constexpr int kTasks = 64;
    for (int i = 0; i < kTasks; ++i) {
      ex.post([&] { ran.fetch_add(1); });
    }
    constexpr int kDrainers = 4;
    std::vector<std::thread> drainers;
    drainers.reserve(kDrainers);
    for (int d = 0; d < kDrainers; ++d) {
      drainers.emplace_back([&] {
        ex.drain();
        // drain() returning means every counted task has finished.
        ASSERT_EQ(ran.load(), kTasks);
      });
    }
    for (std::thread& t : drainers) t.join();
  }
}

TEST(Executor, DrainIsReusable) {
  Executor ex(Executor::Options{.threads = 2});
  std::atomic<int> ran{0};
  ex.post([&] { ran.fetch_add(1); });
  ex.drain();
  EXPECT_EQ(ran.load(), 1);
  ex.post([&] { ran.fetch_add(1); });
  ex.drain();
  EXPECT_EQ(ran.load(), 2);
}

TEST(Executor, StrandOutlivesTheLastReferenceDroppedByItsOwnTask) {
  // The owner's only reference dies inside the strand's running task while
  // another task waits behind it.  The pending dispatch holds the strand,
  // so the queued task still runs and nothing touches freed memory.
  Executor ex(Executor::Options{.threads = 1});
  auto strand = ex.makeStrand();
  std::promise<void> queued;
  std::future<void> behind = queued.get_future();
  std::atomic<int> ran{0};
  strand->post([&] {
    behind.wait();
    strand.reset();
    ran.fetch_add(1);
  });
  strand->post([&] { ran.fetch_add(1); });
  queued.set_value();
  ex.drain();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(strand, nullptr);
}

TEST(Executor, DeterministicStrandOutlivesTheLastReferenceDroppedByItsOwnTask) {
  Executor ex(Executor::Options{.deterministic = true});
  auto strand = ex.makeStrand();
  std::vector<int> order;
  strand->post([&] {
    strand->post([&] { order.push_back(1); });  // queued behind this task
    strand.reset();
    order.push_back(0);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(strand, nullptr);
}

}  // namespace
}  // namespace adpm::util
