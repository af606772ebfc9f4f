// Runtime behavior of the annotated synchronization wrappers in
// rst/common/mutex.h (DESIGN.md §16). The *static* contract (mis-locked
// access fails to compile under clang) lives in
// tests/compile/thread_safety_negative.cc; this file pins the dynamic
// semantics — mutual exclusion, try-lock, and CondVar wait/notify over the
// adopt-lock bridge — and gives TSan real concurrency to chew on.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "rst/common/mutex.h"

namespace rst {
namespace {

struct GuardedCounter {
  Mutex mu;
  int value RST_GUARDED_BY(mu) = 0;
};

TEST(MutexTest, MutualExclusionUnderContention) {
  GuardedCounter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&counter.mu);
        ++counter.value;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MutexLock lock(&counter.mu);
  EXPECT_EQ(counter.value, kThreads * kIncrements);
}

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;  // guarded by mu
  int observed = 0;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(mu);
    observed = 1;
  });
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
  EXPECT_EQ(observed, 1);
}

TEST(CondVarTest, WaitUntilTimesOutWithoutNotify) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  // Nobody notifies: the wait must come back with timeout, still holding mu.
  while (cv.WaitUntil(mu, deadline) != std::cv_status::timeout) {
  }
  SUCCEED();
}

TEST(CondVarTest, WaitForReturnsNoTimeoutWhenNotified) {
  Mutex mu;
  CondVar cv;
  bool ready = false;  // guarded by mu
  std::thread notifier([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
  });
  bool saw_ready = false;
  {
    MutexLock lock(&mu);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!ready) {
      if (cv.WaitUntil(mu, deadline) == std::cv_status::timeout) break;
    }
    saw_ready = ready;
  }
  notifier.join();
  EXPECT_TRUE(saw_ready);
}

}  // namespace
}  // namespace rst
