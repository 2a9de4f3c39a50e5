// Unit tests for the common substrate: event queue determinism, RNG
// statistics, time-weighted integrals, sample means.

#include <gtest/gtest.h>

#include <vector>

#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/rng.hpp"
#include "cdsim/common/stats.hpp"
#include "cdsim/common/types.hpp"

namespace cdsim {
namespace {

// --- types -----------------------------------------------------------------

TEST(Types, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(65));
  EXPECT_EQ(log2_pow2(1), 0u);
  EXPECT_EQ(log2_pow2(64), 6u);
  EXPECT_EQ(log2_pow2(1ull << 33), 33u);
}

// --- event queue -------------------------------------------------------------

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameCycleFifoOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1, [&] {
    ++fired;
    q.schedule_in(1, [&] {
      ++fired;
      q.schedule_in(0, [&] { ++fired; });
    });
  });
  q.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(q.now(), 2u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenDrained) {
  EventQueue q;
  q.schedule_at(7, [] {});
  q.run_until(100);
  EXPECT_EQ(q.now(), 100u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilStopsBeforeLaterEvents) {
  EventQueue q;
  bool late = false;
  q.schedule_at(200, [&] { late = true; });
  q.run_until(100);
  EXPECT_FALSE(late);
  EXPECT_EQ(q.now(), 100u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, ExecutedCounter) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule_at(static_cast<Cycle>(i), [] {});
  q.run();
  EXPECT_EQ(q.executed(), 5u);
}

// --- RNG ----------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(123), b(123), c(124);
  bool all_equal = true, any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next(), vb = b.next(), vc = c.next();
    all_equal = all_equal && (va == vb);
    any_diff = any_diff || (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Xoshiro256 r(99);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceFrequencyMatchesProbability) {
  Xoshiro256 r(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// --- stats ---------------------------------------------------------------------

TEST(TimeWeightedValue, ExactIntegral) {
  TimeWeightedValue v(0.0);
  v.set(10, 4.0);   // 0 over [0,10)
  v.set(20, 2.0);   // 4 over [10,20)
  // 2 over [20,50)
  EXPECT_DOUBLE_EQ(v.integral(50), 4.0 * 10 + 2.0 * 30);
}

TEST(TimeWeightedValue, AddDelta) {
  TimeWeightedValue v(0.0);
  v.add(0, 1.0);
  v.add(10, 1.0);   // 2 from t=10
  v.add(20, -2.0);  // 0 from t=20
  EXPECT_DOUBLE_EQ(v.integral(30), 1.0 * 10 + 2.0 * 10);
  EXPECT_DOUBLE_EQ(v.value(), 0.0);
}

TEST(SampleMean, MeanIsExactSumOverCount) {
  SampleMean m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  m.add(3);
  m.add(17);
  m.add(1000);
  EXPECT_EQ(m.count(), 3u);
  EXPECT_DOUBLE_EQ(m.mean(), (3 + 17 + 1000) / 3.0);
}

TEST(SafeDiv, ZeroDenominator) {
  EXPECT_DOUBLE_EQ(safe_div(4.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(safe_div(4.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_div(4.0, 0.0, -1.0), -1.0);
}

}  // namespace
}  // namespace cdsim
