// Unit tests for the directory-mesh coherence subsystem: directed (not
// broadcast) snoop fan-out, sharer-bitmap/owner bookkeeping incl. clean
// drops and recall-on-turn-off, late-write-back deferral, and the
// end-to-end CmpSystem wiring (metrics, energy ledger, invariants).

#include <gtest/gtest.h>

#include <vector>

#include "cdsim/coherence/directory.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/mem/memory.hpp"
#include "cdsim/noc/directory_mesh.hpp"
#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/verify/oracle.hpp"
#include "cdsim/workload/fuzzer.hpp"
#include "mini_cache.hpp"

namespace cdsim {
namespace {

using coherence::BusTxKind;
using coherence::MesiState;

// ---------------------------------------------------------------------------
// Directory bookkeeping (no mesh)
// ---------------------------------------------------------------------------

TEST(Directory, RecordProbeTracksSharersAndOwner) {
  coherence::Directory dir(8);
  coherence::DirectoryEntry& e = dir.lookup(0x100);
  dir.record_probe(e, 2, MesiState::kExclusive);
  EXPECT_TRUE(e.tracked(2));
  EXPECT_EQ(e.owner, 2u);

  // Remote read downgraded the owner: E -> S releases ownership.
  dir.record_probe(e, 2, MesiState::kShared);
  dir.record_probe(e, 5, MesiState::kShared);
  EXPECT_TRUE(e.tracked(2));
  EXPECT_TRUE(e.tracked(5));
  EXPECT_EQ(e.owner, kNoCore);

  // A store upgrade: the new M holder owns, the invalidated sharer drops.
  dir.record_probe(e, 5, MesiState::kModified);
  dir.record_probe(e, 2, MesiState::kInvalid);
  EXPECT_FALSE(e.tracked(2));
  EXPECT_EQ(e.owner, 5u);
  EXPECT_EQ(coherence::to_string(e), "{sharers=0x20, owner=5}");
}

TEST(Directory, TransientCleanKeepsExclusiveOwnership) {
  coherence::Directory dir(4);
  coherence::DirectoryEntry& e = dir.lookup(0x200);
  dir.record_probe(e, 1, MesiState::kExclusive);
  // E -> TC (clean turn-off in progress): still the answering copy.
  dir.record_probe(e, 1, MesiState::kTransientClean);
  EXPECT_EQ(e.owner, 1u);
  // The completed turn-off is a PutE: legality recorded, entry reclaimed.
  dir.note_clean_drop(1, 0x200);
  EXPECT_EQ(dir.find(0x200), nullptr);
  EXPECT_EQ(dir.stats().exclusive_drops.value(), 1u);
}

TEST(Directory, CleanDropOfSharedCopyKeepsOtherSharers) {
  coherence::Directory dir(4);
  coherence::DirectoryEntry& e = dir.lookup(0x300);
  dir.record_probe(e, 0, MesiState::kShared);
  dir.record_probe(e, 3, MesiState::kShared);
  dir.note_clean_drop(0, 0x300);
  const coherence::DirectoryEntry* after = dir.find(0x300);
  ASSERT_NE(after, nullptr);
  EXPECT_FALSE(after->tracked(0));
  EXPECT_TRUE(after->tracked(3));
  EXPECT_EQ(dir.stats().clean_drops.value(), 1u);
}

TEST(Directory, LateWritebackLeavesNewOwnerAlone) {
  coherence::Directory dir(4);
  coherence::DirectoryEntry& e = dir.lookup(0x400);
  dir.record_probe(e, 0, MesiState::kModified);
  // Ownership moved on (an upgrade won the race) before core 0's
  // write-back arrived.
  dir.record_probe(e, 1, MesiState::kModified);
  dir.writeback_granted(0, 0x400);
  const coherence::DirectoryEntry* after = dir.find(0x400);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->owner, 1u);
  EXPECT_EQ(dir.stats().late_writebacks.value(), 1u);
}

// ---------------------------------------------------------------------------
// DirectoryMesh transport (mini coherent caches on a mesh)
// ---------------------------------------------------------------------------

using test::MiniCache;

struct MeshFixture {
  EventQueue eq;
  mem::MemoryConfig mcfg;
  mem::MemoryController mem{eq, mcfg};
  noc::DirectoryMeshConfig cfg;
  noc::DirectoryMesh mesh{eq, cfg, /*line_bytes=*/64, mem, 4};  // 2x2
  MiniCache c0, c1, c2, c3;
  MiniCache* caches[4] = {&c0, &c1, &c2, &c3};

  MeshFixture() {
    for (MiniCache* c : caches) mesh.attach(c);
  }

  /// Issues a fill and installs the result at the grant, like the L2.
  void fill(CoreId who, Addr line, bool write, Cycle* done = nullptr) {
    noc::RequestHooks hooks;
    hooks.on_grant = [this, who, line, write](const noc::BusResult& r) {
      caches[who]->lines[line] = coherence::fill_state(write, r.shared);
    };
    hooks.on_done = [done](const noc::BusResult& r) {
      if (done != nullptr) *done = r.done_at;
    };
    mesh.request(write ? BusTxKind::kBusRdX : BusTxKind::kBusRd, line, who,
                 64, std::move(hooks));
  }
};

TEST(DirectoryMesh, FillFromMemoryInstallsExclusiveAndTracksOwner) {
  MeshFixture f;
  Cycle done = 0;
  f.fill(0, 0x1000, /*write=*/false, &done);
  f.eq.run();
  EXPECT_GT(done, 0u);
  EXPECT_EQ(f.c0.lines[0x1000], MesiState::kExclusive);
  const auto* e = f.mesh.directory().find(0x1000);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->tracked(0));
  EXPECT_EQ(e->owner, 0u);
  // Nobody held the line: no snoops at all (a bus would have asked 3).
  EXPECT_EQ(f.c1.snoops_seen + f.c2.snoops_seen + f.c3.snoops_seen, 0);
}

TEST(DirectoryMesh, SnoopsAreDirectedAtTrackedHoldersOnly) {
  MeshFixture f;
  f.fill(0, 0x2000, false);
  f.eq.run();
  f.fill(1, 0x2000, false);  // must snoop exactly core 0
  f.eq.run();
  EXPECT_EQ(f.c0.snoops_seen, 1);
  EXPECT_EQ(f.c2.snoops_seen, 0);
  EXPECT_EQ(f.c3.snoops_seen, 0);
  EXPECT_EQ(f.c0.lines[0x2000], MesiState::kShared);  // E -> S
  EXPECT_EQ(f.c1.lines[0x2000], MesiState::kShared);  // shared fill
  const auto* e = f.mesh.directory().find(0x2000);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->tracked(0));
  EXPECT_TRUE(e->tracked(1));
  EXPECT_EQ(e->owner, kNoCore);
}

TEST(DirectoryMesh, WriteFetchInvalidatesAllTrackedSharers) {
  MeshFixture f;
  f.fill(0, 0x3000, false);
  f.eq.run();
  f.fill(1, 0x3000, false);
  f.eq.run();
  f.fill(2, 0x3000, /*write=*/true);
  f.eq.run();
  EXPECT_EQ(f.c0.probe(0x3000), MesiState::kInvalid);
  EXPECT_EQ(f.c1.probe(0x3000), MesiState::kInvalid);
  EXPECT_EQ(f.c2.lines[0x3000], MesiState::kModified);
  const auto* e = f.mesh.directory().find(0x3000);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->sharers, 1u << 2);
  EXPECT_EQ(e->owner, 2u);
  // Core 3 never held the line and was never bothered.
  EXPECT_EQ(f.c3.snoops_seen, 0);
}

TEST(DirectoryMesh, DirtyFillIsSuppliedByOwnerCacheToCache) {
  MeshFixture f;
  f.fill(0, 0x4000, /*write=*/true);
  f.eq.run();
  bool supplied = false;
  noc::RequestHooks hooks;
  hooks.on_grant = [&](const noc::BusResult& r) {
    supplied = r.supplied_by_cache;
    f.c1.lines[0x4000] = coherence::fill_state(false, r.shared);
  };
  f.mesh.request(BusTxKind::kBusRd, 0x4000, 1, 64, std::move(hooks));
  f.eq.run();
  EXPECT_TRUE(supplied);
  EXPECT_EQ(f.c0.lines[0x4000], MesiState::kShared);  // MESI flush: M -> S
  // The flush wrote memory.
  EXPECT_GT(f.mem.bytes_written(), 0u);
}

TEST(DirectoryMesh, RecallOnOwnedTurnoffIsDirectedAndCountsRecalls) {
  // MOESI: build O at core 0 with an S replica at core 1, then run the
  // §III Owned turn-off: TD + Upgr (recall) + write-back.
  MeshFixture f;
  for (MiniCache* c : f.caches) c->protocol_ = coherence::Protocol::kMoesi;
  f.fill(0, 0x5000, /*write=*/true);  // M at 0
  f.eq.run();
  f.fill(1, 0x5000, false);  // MOESI: owner supplies, M -> O
  f.eq.run();
  ASSERT_EQ(f.c0.lines[0x5000], MesiState::kOwned);
  ASSERT_EQ(f.c1.lines[0x5000], MesiState::kShared);

  // Decay turn-off reaches the O line: enter TD, recall the sharers.
  f.c0.lines[0x5000] = MesiState::kTransientDirty;
  f.c2.snoops_seen = f.c3.snoops_seen = 0;
  bool recalled = false;
  noc::RequestHooks hooks;
  hooks.on_done = [&](const noc::BusResult&) { recalled = true; };
  f.mesh.request(BusTxKind::kBusUpgr, 0x5000, 0, 0, std::move(hooks));
  f.eq.run();
  EXPECT_TRUE(recalled);
  EXPECT_EQ(f.mesh.recalls(), 1u);
  EXPECT_EQ(f.c1.probe(0x5000), MesiState::kInvalid);  // directed inval
  EXPECT_EQ(f.c2.snoops_seen + f.c3.snoops_seen, 0);   // not a broadcast

  // The flush write-back retires the TD line; the completion powers it
  // off and releases directory tracking.
  f.mesh.request(BusTxKind::kWriteBack, 0x5000, 0, 64,
                 noc::Interconnect::Completion{[&](const noc::BusResult&) {
                   f.c0.lines.erase(0x5000);
                   f.mesh.note_clean_drop(0, 0x5000);
                 }});
  f.eq.run();
  EXPECT_EQ(f.mesh.directory().find(0x5000), nullptr);
}

TEST(DirectoryMesh, FillDefersBehindInFlightWriteback) {
  MeshFixture f;
  f.fill(0, 0x6040, /*write=*/true);  // M at core 0
  f.eq.run();

  // Core 0 evicts: the copy dies NOW, the write-back crosses the mesh.
  f.c0.lines.erase(0x6040);
  Cycle wb_done = 0;
  f.mesh.request(BusTxKind::kWriteBack, 0x6040, 0, 64,
                 noc::Interconnect::Completion{
                     [&](const noc::BusResult& r) { wb_done = r.done_at; }});
  // Core 1's refetch races it. Whatever the arrival order, it must not
  // read around the in-flight dirty data.
  Cycle fill_done = 0;
  f.fill(1, 0x6040, false, &fill_done);
  f.eq.run();

  EXPECT_GT(wb_done, 0u);
  EXPECT_GT(fill_done, 0u);
  EXPECT_EQ(f.c1.lines[0x6040], MesiState::kExclusive);
  EXPECT_EQ(f.mesh.deferrals(), 1u);
  const auto* e = f.mesh.directory().find(0x6040);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, 1u);
  EXPECT_FALSE(e->tracked(0));
}

// ---------------------------------------------------------------------------
// End to end: a 16-core directory CMP through CmpSystem
// ---------------------------------------------------------------------------

TEST(DirectoryCmp, SixteenCoreMeshRunsVerifiedWithNocMetrics) {
  sim::SystemConfig cfg;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.num_cores = 16;
  cfg.total_l2_bytes = 16 * 32 * KiB;
  cfg.l1.size_bytes = 8 * KiB;
  cfg.instructions_per_core = 12000;
  cfg.decay = decay::DecayConfig{decay::Technique::kDecay, 2048, 4};

  workload::FuzzerConfig fc;
  fc.decay_window = 2048;
  fc.w_hot_home = 0.2;
  workload::Benchmark bench;
  bench.config.name = "dmesh-16";
  const workload::StreamFactory factory = [&fc, &cfg](CoreId core,
                                                      std::uint64_t seed) {
    return std::make_unique<workload::FuzzerWorkload>(
        fc, cfg.num_cores, cfg.line_bytes, cfg.core.issue_width, core, seed);
  };

  verify::DifferentialChecker checker(cfg.num_cores);
  sim::CmpSystem sys(cfg, bench, factory);
  sys.set_observer(&checker);
  const sim::RunMetrics m = sys.run();
  EXPECT_GT(sys.check_coherence_invariants(), 0u);

  EXPECT_EQ(checker.total_divergences(), 0u);
  EXPECT_EQ(m.topology, "dmesh");
  EXPECT_GE(m.instructions, 16u * 12000u);
  EXPECT_GT(m.noc_flit_hops, 0u);
  EXPECT_GT(m.noc_avg_packet_latency, 0.0);
  EXPECT_GT(m.dir_directed_snoops, 0u);
  EXPECT_GT(m.bus_utilization, 0.0);
  // Interconnect energy lands in the NoC component, not the bus one.
  EXPECT_GT(m.ledger.get(power::Component::kNocDynamic), 0.0);
  EXPECT_DOUBLE_EQ(m.ledger.get(power::Component::kBusDynamic), 0.0);
  // Mesh accessor works; bus accessor must not (wrong topology).
  EXPECT_GT(sys.mesh().noc().packets_delivered(), 0u);
}

TEST(DirectoryCmp, DecayTurnoffsReleaseDirectoryTracking) {
  // After a run with aggressive decay, the directory must not have grown
  // beyond the lines that are actually alive somewhere (clean drops,
  // write-backs and probes reclaim entries).
  sim::SystemConfig cfg;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.num_cores = 8;  // asymmetric 4x2 mesh
  cfg.total_l2_bytes = 8 * 32 * KiB;
  cfg.l1.size_bytes = 8 * KiB;
  cfg.instructions_per_core = 10000;
  cfg.decay = decay::DecayConfig{decay::Technique::kDecay, 1024, 4};

  workload::FuzzerConfig fc;
  fc.decay_window = 1024;
  workload::Benchmark bench;
  bench.config.name = "dmesh-8-decay";
  const workload::StreamFactory factory = [&fc, &cfg](CoreId core,
                                                      std::uint64_t seed) {
    return std::make_unique<workload::FuzzerWorkload>(
        fc, cfg.num_cores, cfg.line_bytes, cfg.core.issue_width, core, seed);
  };
  sim::CmpSystem sys(cfg, bench, factory);
  const sim::RunMetrics m = sys.run();
  sys.check_coherence_invariants();
  EXPECT_GT(m.l2_decay_turnoffs, 0u);

  // Every directory entry must track at least one live copy; count live
  // lines and compare against retained entries.
  std::uint64_t live = 0;
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    sys.l2(c).for_each_valid_line([&](Addr, MesiState) { ++live; });
  }
  EXPECT_LE(sys.mesh().directory().entries(), live);
}

}  // namespace
}  // namespace cdsim
