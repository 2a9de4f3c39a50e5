// leakage_explorer — energy/performance trade-off exploration.
//
// For one benchmark and cache size, sweeps the decay interval across both
// decay flavours and prints the energy-reduction / IPC-loss frontier plus a
// simple energy-delay product score — the analysis behind the paper's
// conclusion that "larger decay time might be a better choice from the
// Energy-Delay point of view" (§VI).
//
//   $ ./leakage_explorer [benchmark] [total_l2_mb] [instructions_per_core]
//                        [--topology=bus|dmesh] [--hierarchy=2|3] [--cores=N]
//
// The topology/hierarchy flags explore the machine family — the directory
// mesh and the three-level hierarchy (private L2s behind the shared
// home-banked L3, the technique active at every level) — instead of the
// default 4-core bus. Every machine fills through the shared
// ExperimentRunner, in parallel and cached (the default one under the same
// keys as the figure benches). CDSIM_INSTR overrides instructions_per_core
// on every machine.

#include <cstdio>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdsim/common/table.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cli_flags.hpp"

using namespace cdsim;

int main(int argc, char** argv) try {
  std::string bench_name = "VOLREND";
  std::uint64_t size_mb = 4;
  std::uint64_t instr = 1500000;

  examples::MachineFlags mf;
  examples::FlagParser parser;
  bool bad_positional = false;
  // A positive decimal integer no larger than `limit`, or a usage error.
  const auto number = [&bad_positional](const std::string& arg,
                                        std::uint64_t limit,
                                        std::uint64_t& out) {
    const auto v = sim::detail::parse_positive_u64(arg.c_str());
    if (!v || *v > limit) {
      std::fprintf(stderr, "invalid number \"%s\"\n", arg.c_str());
      bad_positional = true;
      return;
    }
    out = *v;
  };
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  parser.machine(&mf).on_positional([&](int pos, const std::string& arg) {
    switch (pos) {
      case 0: bench_name = arg; break;
      case 1: number(arg, kMax / MiB, size_mb); break;  // no wrap in bytes
      case 2: number(arg, kMax, instr); break;
      default:
        std::fprintf(stderr, "unexpected argument \"%s\"\n", arg.c_str());
        bad_positional = true;
        break;
    }
  });
  const auto usage = [argv] {
    std::fprintf(stderr,
                 "usage: %s [benchmark] [total_l2_mb] "
                 "[instructions_per_core] [--topology=bus|dmesh] "
                 "[--hierarchy=2|3] [--cores=N]\n",
                 argv[0]);
    return 2;
  };
  if (!parser.parse(argc, argv) || bad_positional) return usage();

  const std::uint64_t size = size_mb * MiB;
  // The runner applies the CDSIM_INSTR override, so every path below takes
  // its budget from it.
  sim::ExperimentRunner runner(instr);

  // The machine one technique runs on: without flags, the figure grid's.
  const auto machine = [&](const decay::DecayConfig& d) {
    sim::SystemConfig cfg = mf.machine(size, d);
    cfg.instructions_per_core = runner.instructions_per_core();
    return cfg;
  };
  const workload::Benchmark* bench = nullptr;
  try {
    bench = &workload::benchmark_by_name(bench_name);
    sim::validate_system_config(machine(sim::baseline_config()));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  std::printf(
      "leakage_explorer: %s, %lluMB total L2, %s, %u cores, %s hierarchy, "
      "%llu instr/core\n\n",
      bench->config.name.c_str(), static_cast<unsigned long long>(size_mb),
      std::string(noc::to_string(mf.topology)).c_str(), mf.effective_cores(),
      std::string(sim::to_string(mf.hierarchy)).c_str(),
      static_cast<unsigned long long>(runner.instructions_per_core()));

  // The frontier: protocol, then both decay flavours at four intervals.
  std::vector<decay::DecayConfig> techs{{decay::Technique::kProtocol, 0, 4}};
  for (const auto tech :
       {decay::Technique::kDecay, decay::Technique::kSelectiveDecay}) {
    for (const Cycle dt :
         {512u * 1024u, 256u * 1024u, 128u * 1024u, 64u * 1024u}) {
      techs.push_back({tech, dt, 4});
    }
  }

  // The baseline first, then the frontier; the baseline and protocol
  // share a run.
  std::vector<sim::MachineCell> cells{
      {machine(sim::baseline_config()), bench}};
  for (const decay::DecayConfig& d : techs) cells.push_back({machine(d), bench});
  const std::vector<sim::RunMetrics> runs = runner.run_machines(cells).metrics;

  TextTable t;
  t.row()
      .cell("technique")
      .cell("energy reduction")
      .cell("IPC loss")
      .cell("relative ED product");

  double best_ed = 1e18;
  std::string best;
  for (std::size_t i = 0; i < techs.size(); ++i) {
    const decay::DecayConfig& d = techs[i];
    const sim::RelativeMetrics r = relative_to(runs[0], runs[i + 1]);
    // ED relative to baseline: (1 - saving) * (1 / (1 - ipc_loss)).
    const double ed = (1.0 - r.energy_reduction) / (1.0 - r.ipc_loss);
    t.row()
        .cell(d.label())
        .pct(r.energy_reduction)
        .pct(r.ipc_loss)
        .cell(ed, 3);
    if (ed < best_ed) {
      best_ed = ed;
      best = d.label();
    }
  }
  t.print(std::cout);
  std::printf("\nBest Energy-Delay: %s (ED = %.3f of baseline)\n",
              best.c_str(), best_ed);
  return 0;
} catch (const std::invalid_argument& e) {
  // The runner rejects a malformed CDSIM_INSTR or an empty CDSIM_CACHE_FILE.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
