// DeadlineTimer: every timer rides one shared timer thread. A timer sets
// its token only after its deadline, never once disarmed, in deadline
// order across timers, and an armed timer can be destroyed at any time.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "service/executor.hpp"

namespace systolize::service {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

/// Waits up to `limit` for `t` to fire; returns whether it did.
bool wait_fired(const DeadlineTimer& t, milliseconds limit) {
  const auto give_up = Clock::now() + limit;
  while (!t.fired()) {
    if (Clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

TEST(DeadlineTimer, FiresAfterItsDeadline) {
  DeadlineTimer t;
  EXPECT_FALSE(t.fired());
  const auto armed_at = Clock::now();
  t.arm(30);
  ASSERT_TRUE(wait_fired(t, milliseconds(10'000)));
  EXPECT_GE(Clock::now() - armed_at, milliseconds(30));
  EXPECT_TRUE(t.token()->load());
  // Re-arming resets the token and fires again.
  t.arm(5);
  EXPECT_TRUE(wait_fired(t, milliseconds(10'000)));
}

TEST(DeadlineTimer, DisarmedTimerNeverFires) {
  DeadlineTimer t;
  t.arm(20);
  t.disarm();
  // A later timer firing proves the thread got past the disarmed deadline.
  DeadlineTimer later;
  later.arm(60);
  ASSERT_TRUE(wait_fired(later, milliseconds(10'000)));
  EXPECT_FALSE(t.fired());
  // A non-positive deadline arms nothing.
  DeadlineTimer none;
  none.arm(0);
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(none.fired());
}

TEST(DeadlineTimer, SixtyFourTimersFireInDeadlineOrder) {
  constexpr int kTimers = 64;
  std::vector<std::unique_ptr<DeadlineTimer>> timers;
  std::vector<int> delay(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<DeadlineTimer>());
    delay[i] = 20 + 3 * i;
  }
  // Armed in a shuffled order, so some arms bring the earliest deadline
  // forward and some do not. Each deadline is known to lie between the
  // clock read just before its arm and just after it, plus its delay.
  std::vector<int> order(kTimers);
  for (int i = 0; i < kTimers; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937(7));
  std::vector<Clock::time_point> earliest(kTimers), latest(kTimers);
  for (const int i : order) {
    earliest[i] = Clock::now() + milliseconds(delay[i]);
    timers[i]->arm(delay[i]);
    latest[i] = Clock::now() + milliseconds(delay[i]);
  }
  // Poll from the latest deadline down: a timer seen fired had every
  // earlier one fire before it, so an earlier timer read later in the same
  // poll is seen fired too.
  std::vector<int> seen_at(kTimers, -1);
  const auto give_up = Clock::now() + milliseconds(20'000);
  int fired = 0;
  for (int poll = 0; fired < kTimers && Clock::now() < give_up; ++poll) {
    for (int i = kTimers - 1; i >= 0; --i) {
      if (seen_at[i] < 0 && timers[i]->fired()) {
        seen_at[i] = poll;
        ++fired;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(fired, kTimers);
  for (int i = 0; i < kTimers; ++i) {
    for (int j = 0; j < kTimers; ++j) {
      if (latest[i] < earliest[j]) {
        EXPECT_LE(seen_at[i], seen_at[j])
            << "timer " << j << " fired before the earlier timer " << i;
      }
    }
  }
}

TEST(DeadlineTimer, DestroyingAnArmedTimerIsSafe) {
  for (int i = 0; i < 32; ++i) {
    auto t = std::make_unique<DeadlineTimer>();
    t->arm(1 + i % 3);
    if (i % 2 == 0) std::this_thread::sleep_for(milliseconds(1));
    t.reset();  // armed, fired or racing its deadline
  }
  // The shared thread still serves timers afterwards.
  DeadlineTimer t;
  t.arm(5);
  EXPECT_TRUE(wait_fired(t, milliseconds(10'000)));
}

}  // namespace
}  // namespace systolize::service
