// fuzz_verify — differential verification walkthrough and CI smoke gate.
//
//   ./fuzz_verify [scenarios] [report_dir]
//       Runs the adversarial fuzz matrix ({MESI, MOESI} x all four leakage
//       techniques x three decay times x {4-core snoop bus, 8/16-core
//       directory mesh} x {two, three levels} x {flat, DRAM} x seeds) with
//       the reference-model oracle attached, printing a summary. Default
//       208 scenarios. Exit code 1 on any divergence; failing scenarios are
//       captured, shrunk, and written to report_dir as .cdt traces next to
//       a report naming every leaf of the scenario's machine (CI uploads
//       them as artifacts).
//
//   ./fuzz_verify --dmesh-smoke [scenarios] [report_dir]
//       The many-core CI gate: restricts the matrix to 16-core
//       directory-mesh cells (hot-home contention + all-to-all sharing
//       over the NoC, both protocols, all techniques, flat and DRAM).
//       Default 64 scenarios.
//
//   ./fuzz_verify --three-level-smoke [scenarios] [report_dir]
//       The three-level CI gate: restricts the matrix to shared-L3 cells
//       (16-core MESI and 8-core MOESI meshes, decay at L1, L2 and L3, and
//       a DRAM-backed MOESI round). Default 64 scenarios. The two smoke
//       flags pick different matrices: giving both exits 2.
//
//   ./fuzz_verify --demo-bug
//       Injects the test-only "dirty decay turn-off loses its write-back"
//       fault and shows the full pipeline: the oracle catching the stale
//       fill, and the shrinker minimizing the captured trace to a few-op
//       repro. Exit code 0 when the bug is caught (that is the expected
//       outcome), 1 when it slips through.
//
// This is also the reference for wiring the pieces manually: build a
// FuzzScenario around any SystemConfig (verify::fuzz_machine builds the
// fuzz family's), attach a DifferentialChecker
// via CmpSystem::set_observer, capture with workload::capture_factory,
// replay with verify::replay_scenario, minimize with verify::shrink_trace.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cdsim/verify/fuzz.hpp"
#include "cdsim/verify/shrink.hpp"
#include "cli_flags.hpp"

using namespace cdsim;

namespace {

int run_matrix(std::size_t scenarios, const char* report_dir,
               verify::FuzzMatrix matrix) {
  verify::FuzzOptions opts;
  opts.scenarios = scenarios;
  opts.matrix = matrix;
  if (report_dir != nullptr) opts.report_dir = report_dir;

  std::printf("fuzz_verify: %zu scenarios across {MESI, MOESI} x "
              "{baseline, protocol, decay, sel_decay} x {1K, 2K, 4K} x %s\n",
              opts.scenarios,
              matrix == verify::FuzzMatrix::kThreeLevelSmoke
                  ? "{three-level dmesh16/dmesh8, decay at L1+L2+L3}"
                  : (matrix == verify::FuzzMatrix::kDmeshSmoke
                         ? "{16-core directory mesh}"
                         : "{bus4-2L, dmesh16/8-2L, dmesh16/8-3L}"));
  const verify::FuzzReport rep = verify::run_fuzz(opts);

  std::printf("\n  scenarios run       %zu\n", rep.scenarios_run);
  std::printf("  loads checked       %llu\n",
              static_cast<unsigned long long>(rep.loads_checked));
  std::printf("  fills checked       %llu\n",
              static_cast<unsigned long long>(rep.fills_checked));
  std::printf("  writes serialized   %llu\n",
              static_cast<unsigned long long>(rep.writes_serialized));
  std::printf("  M->O downgrades     %llu  (MOESI scenarios)\n",
              static_cast<unsigned long long>(rep.owned_downgrades));
  std::printf("  divergences         %llu\n",
              static_cast<unsigned long long>(rep.divergences));

  if (rep.divergences == 0) {
    std::printf("\nOK: every load's value matched the reference model.\n");
    return 0;
  }
  std::printf("\nFAILURES (%zu captured):\n", rep.failures.size());
  for (const verify::FuzzFailure& f : rep.failures) {
    std::printf("  %s\n    trace %zu ops, shrunk to %zu ops\n",
                f.scenario.label().c_str(), f.trace.records.size(),
                f.shrunk.records.size());
    for (const verify::Divergence& d : f.divergences) {
      std::printf("    %s\n", verify::to_string(d).c_str());
    }
  }
  if (report_dir != nullptr) {
    std::printf("  repro traces written to %s/\n", report_dir);
  }
  return 1;
}

int demo_bug() {
  std::printf("fuzz_verify --demo-bug: injecting a lost dirty-decay "
              "write-back\n\n");
  // A scenario tuned so dirty lines decay and get re-read: MESI + full
  // decay with a tiny window, straddle-heavy fuzzing.
  verify::FuzzScenario sc;
  sc.machine = verify::fuzz_machine(
      coherence::Protocol::kMesi,
      decay::DecayConfig{decay::Technique::kDecay, 1024, 4});
  sc.machine.seed = 12345;
  sc.fuzz.decay_window = 1024;
  sc.inject_writeback_loss = true;

  verify::ScenarioOutcome out = verify::run_scenario(sc);
  std::printf("run: %llu loads checked, %llu divergences\n",
              static_cast<unsigned long long>(out.loads_checked),
              static_cast<unsigned long long>(out.total_divergences));
  if (out.total_divergences == 0) {
    std::printf("ERROR: the injected bug was NOT caught\n");
    return 1;
  }
  std::printf("first divergence: %s\n",
              verify::to_string(out.divergences.front()).c_str());

  verify::ShrinkStats st;
  const workload::Trace shrunk = verify::shrink_trace(
      out.trace,
      [&sc](const workload::Trace& t) {
        return verify::replay_scenario(sc, t).total_divergences != 0;
      },
      &st);
  std::printf("shrink: %zu ops -> %zu ops in %zu replays\n", st.initial_ops,
              st.final_ops, st.replays);
  for (const workload::TraceRecord& r : shrunk.records) {
    const char* type = r.op.type == AccessType::kStore  ? "ST"
                       : r.op.type == AccessType::kLoad ? "LD"
                                                        : "IF";
    std::printf("  core %u  %s 0x%llx  gap=%u%s\n", r.core, type,
                static_cast<unsigned long long>(r.op.addr), r.op.gap,
                r.op.dependent ? " dep" : "");
  }
  std::printf("\nOK: the oracle caught the wrong-data bug and the shrinker "
              "reduced it\nto a %zu-op repro.\n", st.final_ops);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  bool dmesh_only = false;
  bool three_level_only = false;
  bool scenarios_set = false;
  bool bad_positional = false;
  std::size_t scenarios = 208;
  std::string report_dir;

  examples::FlagParser parser;
  parser.toggle("demo-bug", &demo)
      .toggle("dmesh-smoke", &dmesh_only)
      .toggle("three-level-smoke", &three_level_only)
      .on_positional([&](int pos, const std::string& arg) {
        if (pos == 0) {
          const auto v = sim::detail::parse_positive_u64(arg.c_str());
          if (!v) {
            bad_positional = true;
            return;
          }
          scenarios = static_cast<std::size_t>(*v);
          scenarios_set = true;
        } else if (pos == 1) {
          report_dir = arg;
        } else {
          bad_positional = true;
        }
      });
  if (!parser.parse(argc, argv) || bad_positional ||
      (dmesh_only && three_level_only)) {
    std::fprintf(stderr,
                 "usage: %s [--dmesh-smoke|--three-level-smoke] "
                 "[scenarios] [report_dir] | --demo-bug\n",
                 argv[0]);
    return 2;
  }
  if (demo) return demo_bug();
  const verify::FuzzMatrix matrix =
      dmesh_only ? verify::FuzzMatrix::kDmeshSmoke
      : three_level_only ? verify::FuzzMatrix::kThreeLevelSmoke
                         : verify::FuzzMatrix::kFull;
  if (matrix != verify::FuzzMatrix::kFull && !scenarios_set) scenarios = 64;
  return run_matrix(scenarios, report_dir.empty() ? nullptr
                                                  : report_dir.c_str(),
                    matrix);
}
