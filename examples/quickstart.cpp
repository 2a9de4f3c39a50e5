// quickstart — the smallest complete use of the cdsim public API.
//
// Simulates a 4-core CMP running the mpeg2dec workload model with 4 MB of
// total private L2, once for each leakage technique, and prints the
// headline comparison of the paper: energy reduction vs. IPC loss.
//
//   $ ./quickstart [instructions_per_core]

#include <cstdio>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <vector>

#include "cdsim/common/table.hpp"
#include "cdsim/sim/experiment.hpp"

int main(int argc, char** argv) try {
  using namespace cdsim;

  std::uint64_t instr = 400000;  // small default: this is a demo
  if (argc > 1) {
    const auto v = argc == 2 ? sim::detail::parse_positive_u64(argv[1])
                             : std::nullopt;
    if (!v) {
      std::fprintf(stderr, "usage: %s [instructions_per_core]\n", argv[0]);
      return 2;
    }
    instr = *v;
  }

  const auto& bench = workload::benchmark_by_name("mpeg2dec");
  sim::ExperimentRunner runner(instr);
  const std::uint64_t size = 4 * MiB;

  std::printf("cdsim quickstart: %s, %u cores, %llu MB total L2, %llu "
              "instructions/core\n\n",
              bench.config.name.c_str(), 4u,
              static_cast<unsigned long long>(size / MiB),
              static_cast<unsigned long long>(runner.instructions_per_core()));

  TextTable t;
  t.row()
      .cell("technique")
      .cell("occupation")
      .cell("L2 miss rate")
      .cell("energy reduction")
      .cell("IPC loss");
  // One call fills all eight cells on every hardware thread, in at most
  // seven timing runs: protocol is a view of the baseline's run, and a
  // decaying technique is served by another one's run when that run ends
  // before either could turn a line off.
  const std::vector<decay::DecayConfig> techs = sim::paper_technique_set();
  const sim::SweepStats sweep = runner.run_grid({bench}, {size}, techs);
  if (sweep.simulated > 0) {
    std::fprintf(stderr, "[simulated %zu configurations in %zu timing runs]\n",
                 sweep.simulated, sweep.timing_runs);
  }
  for (const auto& tech : techs) {
    const sim::RelativeMetrics r = runner.relative(bench, size, tech);
    t.row()
        .cell(tech.label())
        .pct(r.occupation)
        .pct(r.miss_rate)
        .pct(r.energy_reduction)
        .pct(r.ipc_loss);
  }
  t.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  // The runner rejects a malformed CDSIM_INSTR or an empty CDSIM_CACHE_FILE.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
