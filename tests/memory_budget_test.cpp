// Host memory of a large machine: cache tag state is committed on first
// touch, not at construction.
//
// cache::TagArray keeps tags, LRU stamps and payloads in zero-page
// mappings (common/zero_pages.hpp), so building a machine commits almost
// none of its configured tag state and a run commits only the pages it
// installs into. This test builds perfbench's mesh16-dram machine shape —
// 16 cores, 16 MB of L2 and 64 MB of L3 on a MOESI directory mesh with
// banked DRAM and TLBs, 66 MiB of tag state if every way were written at
// construction — and reads VmRSS and VmHWM from /proc/self/status.
//
// It is its own test executable so the machine is the process's first
// large allocation: no earlier test's freed heap can absorb its
// construction, and VmHWM is the high-water mark of this machine's run.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"

namespace cdsim::sim {
namespace {

// ASan and TSan keep shadow memory, quarantined blocks and fake stacks in
// the same process, so under them VmHWM measures the sanitizer as much as
// the simulator (45-54 MiB under ASan+UBSan, against 19 MiB
// uninstrumented). The construction bound still holds there: sanitizers
// shadow an untouched mapping without committing it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedHeap = true;
#else
constexpr bool kSanitizedHeap = false;
#endif

/// A "Vm...:   N kB" field of /proc/self/status in MiB, or nullopt when the
/// file or the field is missing.
std::optional<double> status_mib(const std::string& field) {
  std::ifstream in("/proc/self/status");
  const std::string key = field + ":";
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::stod(line.substr(key.size())) / 1024.0;
    }
  }
  return std::nullopt;
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

TEST(MemoryBudget, Mesh16DramTagStateIsCommittedOnFirstTouch) {
  const std::optional<double> rss_before = status_mib("VmRSS");
  if (!rss_before || !status_mib("VmHWM")) {
    GTEST_SKIP() << "/proc/self/status with VmRSS and VmHWM is required";
  }

  const decay::DecayConfig decay64k{decay::Technique::kDecay, 64 * 1024, 4};
  SystemConfig cfg = make_system_config(16 * MiB, decay64k);
  cfg.num_cores = 16;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.hierarchy = Hierarchy::kThreeLevel;
  cfg.total_l3_bytes = 64 * MiB;
  cfg.protocol = coherence::Protocol::kMoesi;
  cfg.l1_decay = decay64k;
  cfg.l3_decay = decay64k;
  cfg.mem.model = mem::MemoryModel::kDram;
  cfg.mem.tlb.enabled = true;
  cfg.instructions_per_core = 20'000;
  const workload::Benchmark& fmm = workload::benchmark_by_name("FMM");

  const long faults_before = minor_faults();
  CmpSystem sys(normalized_run_config(cfg, fmm), fmm);
  const double rss_built = *status_mib("VmRSS");
  const long faults_built = minor_faults();
  const RunMetrics m = sys.run();
  const double hwm = *status_mib("VmHWM");
  const long faults_run = minor_faults();
  std::printf(
      "  VmRSS %.1f -> %.1f MiB across construction (%ld minor faults); "
      "VmHWM %.1f MiB after run() (%ld minor faults)\n",
      *rss_before, rss_built, faults_built - faults_before, hwm,
      faults_run - faults_built);

  EXPECT_GT(m.instructions, 0u);
  // Value-initialized arrays wrote all 66 MiB here before the first event.
  EXPECT_LT(rss_built - *rss_before, 8.0);
  // The run commits only the pages its installs touch: l2_occupation on
  // this machine is under 1%, so the high-water mark stays far below the
  // configured tag state.
  if (!kSanitizedHeap) {
    EXPECT_LT(hwm, 33.0);
  }
}

}  // namespace
}  // namespace cdsim::sim
