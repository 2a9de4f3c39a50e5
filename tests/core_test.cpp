// Unit tests for the core model, driven by a scriptable LoadStorePort.

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <set>
#include <vector>

#include "cdsim/common/event_queue.hpp"
#include "cdsim/core/core_model.hpp"
#include "cdsim/workload/scripted.hpp"

namespace cdsim::core {
namespace {

using workload::MemOp;

/// Test port: loads hit synchronously with `hit_latency` unless their line
/// address is in `miss_set`, in which case they complete after
/// `miss_latency`. Stores always accepted unless `reject_stores`.
class FakePort final : public LoadStorePort {
 public:
  explicit FakePort(EventQueue& eq) : eq_(eq) {}

  LoadOutcome try_load(Addr addr, LoadCallback on_done) override {
    ++loads;
    if (reject_next_loads > 0) {
      --reject_next_loads;
      return {};
    }
    if (miss_set.count(addr & ~63ull) == 0) {
      return {.accepted = true, .completed = true, .latency = hit_latency};
    }
    ++misses;
    eq_.schedule_in(miss_latency, [cb = std::move(on_done), this] {
      cb(eq_.now());
    });
    return {.accepted = true};
  }

  bool try_store(Addr) override {
    ++stores;
    return !reject_stores;
  }

  void set_resources_freed(core::FreedCallback cb) override {
    freed = std::move(cb);
  }

  EventQueue& eq_;
  std::set<Addr> miss_set;
  Cycle hit_latency = 2;
  Cycle miss_latency = 100;
  int loads = 0, stores = 0, misses = 0;
  int reject_next_loads = 0;
  bool reject_stores = false;
  core::FreedCallback freed;
};

MemOp load(Addr a, std::uint32_t gap = 0, bool dep = false,
           std::uint8_t chain = 0) {
  return MemOp{AccessType::kLoad, a, gap, dep, chain};
}
MemOp store(Addr a, std::uint32_t gap = 0) {
  return MemOp{AccessType::kStore, a, gap, false, 0};
}

TEST(CoreModel, FinishesBudgetAndCountsCommits) {
  EventQueue eq;
  FakePort port(eq);
  workload::ScriptedWorkload w({load(0x40, 3)});
  CoreConfig cfg;
  CoreModel core(eq, cfg, 0, w, port, 100);
  bool finished = false;
  core.start([&] { finished = true; });
  eq.run();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(core.done());
  EXPECT_GE(core.committed(), 100u);
  EXPECT_GT(core.finish_cycle(), 0u);
}

TEST(CoreModel, GapsPaceInstructionsAtIssueWidth) {
  EventQueue eq;
  FakePort port(eq);
  // Every op: 8 gap instructions + 1 load hit. At width 4 that is 2 cycles
  // per op; hits are free.
  workload::ScriptedWorkload w({load(0x40, 8)});
  CoreConfig cfg;
  cfg.issue_width = 4;
  CoreModel core(eq, cfg, 0, w, port, 9000);
  core.start();
  eq.run();
  const double cpi = static_cast<double>(core.finish_cycle()) / 9000.0;
  EXPECT_NEAR(cpi, 2.0 / 9.0, 0.01);  // 2 cycles per 9 instructions
}

TEST(CoreModel, IndependentMissesOverlap) {
  EventQueue eq;
  FakePort port(eq);
  port.miss_set = {0x1000, 0x2000, 0x3000, 0x4000};
  workload::ScriptedWorkload w({
      load(0x1000, 1), load(0x2000, 1), load(0x3000, 1), load(0x4000, 1),
  });
  CoreConfig cfg;
  CoreModel core(eq, cfg, 0, w, port, 8);  // one pass over the script
  core.start();
  eq.run();
  // Four overlapping 100-cycle misses: finish well under 4x100.
  EXPECT_LT(core.finish_cycle(), 160u);
  EXPECT_EQ(port.misses, 4);
}

TEST(CoreModel, DependentLoadsSerializeWithinTheirChain) {
  EventQueue eq;
  FakePort port(eq);
  port.miss_set = {0x1000, 0x2000};
  workload::ScriptedWorkload w({
      load(0x1000, 1, false, /*chain=*/1),
      load(0x2000, 1, true, /*chain=*/1),  // waits for 0x1000
  });
  CoreConfig cfg;
  CoreModel core(eq, cfg, 0, w, port, 4);
  core.start();
  eq.run();
  // Two chained 100-cycle misses: at least ~200 cycles.
  EXPECT_GE(core.finish_cycle(), 200u);
  EXPECT_GT(core.stall_cycles(), 0u);
  EXPECT_GT(core.stall_breakdown(CoreModel::StallReason::kDep), 0u);
}

TEST(CoreModel, DependentLoadIgnoresOtherChains) {
  EventQueue eq;
  FakePort port(eq);
  port.miss_set = {0x1000};
  workload::ScriptedWorkload w({
      load(0x1000, 1, false, /*chain=*/1),  // slow miss on chain 1
      load(0x2000, 1, true, /*chain=*/2),   // dependent, but chain 2: hit
      load(0x3000, 1, true, /*chain=*/2),
      load(0x4000, 1, true, /*chain=*/2),
  });
  CoreConfig cfg;
  CoreModel core(eq, cfg, 0, w, port, 8);
  core.start();
  eq.run();
  // Chain-2 loads all hit and never wait for the chain-1 miss: the run is
  // bounded by the single miss, not by serialization.
  EXPECT_LT(core.finish_cycle(), 140u);
  EXPECT_EQ(core.stall_breakdown(CoreModel::StallReason::kDep), 0u);
}

TEST(CoreModel, LoadQueueCapStalls) {
  EventQueue eq;
  FakePort port(eq);
  std::vector<MemOp> ops;
  for (Addr a = 0; a < 8; ++a) {
    port.miss_set.insert(0x1000 + a * 64);
    ops.push_back(load(0x1000 + a * 64, 0));
  }
  workload::ScriptedWorkload w(ops);
  CoreConfig cfg;
  cfg.max_outstanding_loads = 2;  // tiny LQ
  cfg.rob_window = 10000;
  CoreModel core(eq, cfg, 0, w, port, 8);
  core.start();
  eq.run();
  EXPECT_GT(core.stall_breakdown(CoreModel::StallReason::kLoadQueue), 0u);
  // MLP of 2 over 8 misses of 100 cycles: at least ~400.
  EXPECT_GE(core.finish_cycle(), 400u);
}

TEST(CoreModel, RobWindowLimitsRunahead) {
  EventQueue eq;
  FakePort port(eq);
  port.miss_set = {0x1000};
  // One miss followed by a long stretch of gap instructions: the ROB fills.
  workload::ScriptedWorkload w({load(0x1000, 0), load(0x40, 50)});
  CoreConfig cfg;
  cfg.rob_window = 64;
  CoreModel core(eq, cfg, 0, w, port, 400);
  core.start();
  eq.run();
  EXPECT_GT(core.stall_breakdown(CoreModel::StallReason::kRob), 0u);
}

TEST(CoreModel, PortRejectionParksUntilFreed) {
  EventQueue eq;
  FakePort port(eq);
  port.reject_next_loads = 1;
  workload::ScriptedWorkload w({load(0x40, 1)});
  CoreConfig cfg;
  CoreModel core(eq, cfg, 0, w, port, 4);
  core.start();
  eq.run_until(50);
  EXPECT_FALSE(core.done());  // parked on the rejected load
  port.freed();               // resource freed: core resumes
  eq.run();
  EXPECT_TRUE(core.done());
  EXPECT_GT(core.stall_breakdown(CoreModel::StallReason::kPort), 0u);
}

TEST(CoreModel, FullWriteBufferStallsStores) {
  EventQueue eq;
  FakePort port(eq);
  port.reject_stores = true;
  workload::ScriptedWorkload w({store(0x40, 1)});
  CoreConfig cfg;
  CoreModel core(eq, cfg, 0, w, port, 4);
  core.start();
  eq.run_until(100);
  EXPECT_FALSE(core.done());
  port.reject_stores = false;
  port.freed();
  eq.run();
  EXPECT_TRUE(core.done());
  EXPECT_GT(core.stall_breakdown(CoreModel::StallReason::kStore), 0u);
}

TEST(CoreModel, LoadLatencyHistogramSeesHitsAndMisses) {
  EventQueue eq;
  FakePort port(eq);
  port.miss_set = {0x1000};
  workload::ScriptedWorkload w({load(0x40, 1), load(0x1000, 1)});
  CoreConfig cfg;
  CoreModel core(eq, cfg, 0, w, port, 4);
  core.start();
  eq.run();
  EXPECT_EQ(core.load_latency().count(), core.loads_issued());
  // Mean sits between the hit latency and the miss latency.
  EXPECT_GT(core.load_latency().mean(), 2.0);
  EXPECT_LT(core.load_latency().mean(), 100.0);
}

TEST(CoreModel, IpcReflectsFinishTime) {
  EventQueue eq;
  FakePort port(eq);
  workload::ScriptedWorkload w({load(0x40, 7)});
  CoreConfig cfg;
  CoreModel core(eq, cfg, 0, w, port, 800);
  core.start();
  eq.run();
  EXPECT_NEAR(core.ipc(eq.now()),
              static_cast<double>(core.committed()) /
                  static_cast<double>(core.finish_cycle()),
              1e-12);
}

}  // namespace
}  // namespace cdsim::core
