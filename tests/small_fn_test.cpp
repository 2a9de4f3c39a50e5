// Unit tests for SmallFn (the kernel's move-only callable) and the
// calendar-queue behaviors the EventQueue rewrite introduced: overflow
// spilling, same-cycle appends, and scheduling at now() after run_until
// scanned past it.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/small_fn.hpp"

namespace cdsim {
namespace {

// --- SmallFn ---------------------------------------------------------------

TEST(SmallFn, InvokesInlineTarget) {
  SmallFn<int(int), 48> f = [](int x) { return x + 1; };
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(41), 42);
}

TEST(SmallFn, DefaultConstructedIsEmpty) {
  SmallFn<void(), 48> f;
  EXPECT_FALSE(static_cast<bool>(f));
  SmallFn<void(), 48> g = nullptr;
  EXPECT_FALSE(static_cast<bool>(g));
}

TEST(SmallFn, AcceptsMoveOnlyCaptures) {
  auto p = std::make_unique<int>(7);
  SmallFn<int(), 48> f = [p = std::move(p)] { return *p; };
  EXPECT_EQ(f(), 7);
  // Move transfers the target; the source becomes empty.
  SmallFn<int(), 48> g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_EQ(g(), 7);
}

TEST(SmallFn, MoveAssignReplacesTarget) {
  int destroyed = 0;
  struct Probe {
    int* counter;
    explicit Probe(int* c) : counter(c) {}
    Probe(Probe&& o) noexcept : counter(o.counter) { o.counter = nullptr; }
    ~Probe() {
      if (counter != nullptr) ++*counter;
    }
  };
  {
    SmallFn<int(), 48> f = [p = Probe(&destroyed)] { return 1; };
    SmallFn<int(), 48> g = [p = Probe(&destroyed)] { return 2; };
    f = std::move(g);  // destroys f's old target
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(f(), 2);
    EXPECT_FALSE(static_cast<bool>(g));
  }
  EXPECT_EQ(destroyed, 2);  // no double-destroy, no leak
}

// assign() builds the new target in place over whatever the SmallFn held:
// the old target is destroyed exactly once, the new one exactly once at
// the end of its life, and the argument's moved-from shell never counts.
TEST(SmallFn, InPlaceAssignDestroysOldTargetOnce) {
  struct Probe {
    int* counter;
    explicit Probe(int* c) : counter(c) {}
    Probe(Probe&& o) noexcept : counter(o.counter) { o.counter = nullptr; }
    ~Probe() {
      if (counter != nullptr) ++*counter;
    }
  };
  struct Big {
    char blob[200] = {};
  };
  using Fn = SmallFn<int(), 48>;
  enum class Old { kEmpty, kTrivial, kManaged, kHeap };
  for (const Old kind : {Old::kEmpty, Old::kTrivial, Old::kManaged, Old::kHeap}) {
    SCOPED_TRACE(static_cast<int>(kind));
    for (const bool new_on_heap : {false, true}) {
      int old_destroyed = 0;
      int new_destroyed = 0;
      {
        Fn f;
        switch (kind) {
          case Old::kEmpty:
            break;
          case Old::kTrivial:
            f = [x = 5] { return x; };
            break;
          case Old::kManaged:
            f = [p = Probe(&old_destroyed)] { return 1; };
            break;
          case Old::kHeap:
            static_assert(!Fn::fits_inline_v<decltype([b = Big{}] {
              return 0;
            })>);
            f = [p = Probe(&old_destroyed), b = Big{}] {
              return static_cast<int>(b.blob[0]) + 2;
            };
            break;
        }
        if (new_on_heap) {
          f.assign([p = Probe(&new_destroyed), b = Big{}] {
            return static_cast<int>(b.blob[0]) + 40;
          });
        } else {
          f.assign([p = Probe(&new_destroyed)] { return 41; });
        }
        const bool old_counted = kind == Old::kManaged || kind == Old::kHeap;
        EXPECT_EQ(old_destroyed, old_counted ? 1 : 0);
        EXPECT_EQ(new_destroyed, 0);
        EXPECT_EQ(f(), new_on_heap ? 40 : 41);
      }
      EXPECT_EQ(new_destroyed, 1);
      EXPECT_LE(old_destroyed, 1);
    }
  }
}

TEST(SmallFn, AssignMovesASmallFnIn) {
  SmallFn<int(), 48> src = [] { return 3; };
  SmallFn<int(), 48> dst = [] { return 4; };
  dst.assign(std::move(src));
  EXPECT_FALSE(static_cast<bool>(src));
  EXPECT_EQ(dst(), 3);
}

TEST(SmallFn, OversizedCapturesFallBackToHeap) {
  struct Big {
    char blob[200];
  };
  static_assert(!SmallFn<int(), 48>::fits_inline_v<decltype([b = Big{}] {
    return 0;
  })>);
  Big big{};
  big.blob[199] = 9;
  SmallFn<int(), 48> f = [big] { return static_cast<int>(big.blob[199]); };
  SmallFn<int(), 48> g = std::move(f);
  EXPECT_EQ(g(), 9);
}

TEST(SmallFn, HotPathCapturesStayInline) {
  struct FakeThis {};
  FakeThis* self = nullptr;
  std::uint64_t addr = 0;
  // The shapes the L2 controller schedules on every access.
  auto small = [self, addr] { (void)self; (void)addr; };
  static_assert(EventQueue::Callback::fits_inline_v<decltype(small)>);
  static_assert(EventQueue::Callback::fits_inline_v<decltype([] {})>);
}

// --- EventQueue calendar behaviors ----------------------------------------

TEST(EventQueue, FarEventsBeyondRingWindowStillRunInOrder) {
  EventQueue q;
  std::vector<int> order;
  // Far beyond the 1024-cycle ring window -> overflow list.
  q.schedule_at(5000, [&] { order.push_back(3); });
  q.schedule_at(2000, [&] { order.push_back(2); });
  q.schedule_at(10, [&] { order.push_back(1); });
  EXPECT_EQ(q.pending(), 3u);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 5000u);
}

TEST(EventQueue, SameFarCycleKeepsScheduleOrderAcrossSpills) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5000, [&] { order.push_back(1); });  // overflow, first
  q.schedule_at(100, [&] {
    // Scheduled later than the first 5000-cycle event; must run after it
    // even though it may enter the ring by a different route.
    q.schedule_at(5000, [&] { order.push_back(2); });
  });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ScheduleAtNowAfterRunUntilStillRuns) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(500, [&] { ++fired; });
  q.run_until(100);  // the scan passed cycle 100's (empty) bucket
  EXPECT_EQ(q.now(), 100u);
  q.schedule_at(100, [&] { fired += 10; });  // same cycle as now()
  q.run();
  EXPECT_EQ(fired, 11);
  EXPECT_EQ(q.now(), 500u);
}

TEST(EventQueue, EventChainsAcrossManyRevolutions) {
  EventQueue q;
  // A self-rescheduling event with a period exceeding the ring span
  // exercises spill_overflow repeatedly (the decay sweeper's shape).
  int ticks = 0;
  std::function<void()> rearm = [&] {
    ++ticks;
    if (ticks < 20) q.schedule_in(3000, [&] { rearm(); });
  };
  q.schedule_in(3000, [&] { rearm(); });
  q.run();
  EXPECT_EQ(ticks, 20);
  EXPECT_EQ(q.now(), 20u * 3000u);
  EXPECT_EQ(q.executed(), 20u);
}

TEST(EventQueue, OverflowEventMayShareBucketWithScheduleAtNow) {
  // Regression: an overflow event one full ring revolution ahead maps to
  // the same bucket as a schedule_at(now()) issued while run_until() is
  // parked one cycle before the revolution boundary. A premature overflow
  // spill used to alias the two cycles in one bucket and abort.
  EventQueue q;
  std::vector<Cycle> fired;
  q.schedule_at(2047, [&] { fired.push_back(q.now()); });  // overflow
  q.run_until(1023);  // park exactly one cycle before the ring boundary
  EXPECT_EQ(q.now(), 1023u);
  q.schedule_at(1023, [&] { fired.push_back(q.now()); });  // same bucket
  q.run();
  EXPECT_EQ(fired, (std::vector<Cycle>{1023, 2047}));
}

TEST(EventQueue, PendingCountsRingAndOverflow) {
  EventQueue q;
  q.schedule_at(1, [] {});
  q.schedule_at(100000, [] {});
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_FALSE(q.empty());
  q.run();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

}  // namespace
}  // namespace cdsim
