// The grant contract both fabrics share through noc::Interconnect, run on a
// SnoopBus and on a DirectoryMesh with the same minimal coherent caches: a
// validator drop vanishes before the snoop phase, reaches the observer as a
// cancelled write-back, and a dirty owner's supply folds into the result.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cdsim/bus/snoop_bus.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/mem/memory.hpp"
#include "cdsim/noc/directory_mesh.hpp"
#include "mini_cache.hpp"

namespace cdsim {
namespace {

using coherence::BusTxKind;
using coherence::MesiState;
using test::MiniCache;

/// Records every write-back resolution the fabric reports.
class WritebackLog final : public verify::AccessObserver {
 public:
  struct Entry {
    CoreId core;
    Addr line;
    bool cancelled;
  };
  std::vector<Entry> entries;

  void on_writeback_resolved(CoreId core, Addr line, Cycle, bool cancelled,
                             bool) override {
    entries.push_back({core, line, cancelled});
  }
};

class GrantContract : public ::testing::TestWithParam<noc::Topology> {
 protected:
  static constexpr Addr kLine = 0x1000;

  GrantContract() {
    if (GetParam() == noc::Topology::kSnoopBus) {
      ic_ = std::make_unique<bus::SnoopBus>(eq_, bus::BusConfig{}, mem_);
    } else {
      ic_ = std::make_unique<noc::DirectoryMesh>(
          eq_, noc::DirectoryMeshConfig{}, /*line_bytes=*/64, mem_, 4);
    }
    for (MiniCache& c : caches_) ic_->attach(&c);
  }

  /// A fill that installs its state at the grant, run to completion.
  void fill(CoreId who, bool write) {
    noc::RequestHooks hooks;
    hooks.on_grant = [this, who, write](const noc::BusResult& r) {
      caches_[who].lines[kLine] = coherence::fill_state(write, r.shared);
    };
    ic_->request(write ? BusTxKind::kBusRdX : BusTxKind::kBusRd, kLine, who,
                 64, std::move(hooks));
    eq_.run();
  }

  [[nodiscard]] int total_snoops() const {
    int n = 0;
    for (const MiniCache& c : caches_) n += c.snoops_seen;
    return n;
  }

  EventQueue eq_;
  mem::MemoryConfig mcfg_;
  mem::MemoryController mem_{eq_, mcfg_};
  std::unique_ptr<noc::Interconnect> ic_;
  MiniCache caches_[4];
};

TEST_P(GrantContract, DroppedRequestSnoopsNobodyAndOnlyCancels) {
  // Core 1 owns the line, so an admitted request from core 0 would snoop
  // it on either fabric.
  fill(1, /*write=*/true);
  const int snoops_before = total_snoops();
  const std::uint64_t mem_before = mem_.total_bytes();
  for (const BusTxKind kind : {BusTxKind::kBusRd, BusTxKind::kBusRdX,
                               BusTxKind::kBusUpgr, BusTxKind::kWriteBack}) {
    SCOPED_TRACE(coherence::to_string(kind));
    int cancels = 0;
    int grants = 0;
    int dones = 0;
    noc::RequestHooks hooks;
    hooks.validator = [] { return false; };
    hooks.on_cancel = [&cancels] { ++cancels; };
    hooks.on_grant = [&grants](const noc::BusResult&) { ++grants; };
    hooks.on_done = [&dones](const noc::BusResult&) { ++dones; };
    const std::uint64_t dropped = ic_->cancelled_transactions();
    ic_->request(kind, kLine, 0, kind == BusTxKind::kBusUpgr ? 0 : 64,
                 std::move(hooks));
    eq_.run();
    EXPECT_EQ(cancels, 1);
    EXPECT_EQ(grants, 0);
    EXPECT_EQ(dones, 0);
    EXPECT_EQ(ic_->cancelled_transactions(), dropped + 1);
    EXPECT_EQ(total_snoops(), snoops_before);
  }
  EXPECT_EQ(mem_.total_bytes(), mem_before);
  EXPECT_EQ(caches_[1].probe(kLine), MesiState::kModified);
}

TEST_P(GrantContract, DroppedWritebackReachesTheObserverAsCancelled) {
  WritebackLog log;
  ic_->set_observer(&log);
  noc::RequestHooks dropped;
  dropped.validator = [] { return false; };
  ic_->request(BusTxKind::kWriteBack, kLine, 2, 64, std::move(dropped));
  eq_.run();
  ic_->request(BusTxKind::kWriteBack, kLine + 64, 3, 64,
               noc::Interconnect::Completion{});
  eq_.run();
  ASSERT_EQ(log.entries.size(), 2u);
  EXPECT_EQ(log.entries[0].core, 2u);
  EXPECT_EQ(log.entries[0].line, kLine);
  EXPECT_TRUE(log.entries[0].cancelled);
  EXPECT_EQ(log.entries[1].core, 3u);
  EXPECT_FALSE(log.entries[1].cancelled);
}

TEST_P(GrantContract, DirtyOwnerSupplyReportsSuppliedAndShared) {
  fill(1, /*write=*/true);
  ASSERT_EQ(caches_[1].probe(kLine), MesiState::kModified);
  noc::BusResult at_grant;
  noc::BusResult at_done;
  noc::RequestHooks hooks;
  hooks.on_grant = [&at_grant](const noc::BusResult& r) { at_grant = r; };
  hooks.on_done = [&at_done](const noc::BusResult& r) { at_done = r; };
  ic_->request(BusTxKind::kBusRd, kLine, 0, 64, std::move(hooks));
  eq_.run();
  EXPECT_TRUE(at_grant.supplied_by_cache);
  EXPECT_TRUE(at_grant.shared);
  EXPECT_TRUE(at_done.supplied_by_cache);
  EXPECT_TRUE(at_done.shared);
  EXPECT_EQ(mem_.read_count(), 1u);  // only core 1's own fill read memory
  EXPECT_EQ(caches_[1].probe(kLine), MesiState::kShared);
}

INSTANTIATE_TEST_SUITE_P(
    BothFabrics, GrantContract,
    ::testing::Values(noc::Topology::kSnoopBus, noc::Topology::kDirectoryMesh),
    [](const ::testing::TestParamInfo<noc::Topology>& info) {
      return std::string(noc::to_string(info.param));
    });

}  // namespace
}  // namespace cdsim
