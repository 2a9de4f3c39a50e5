// End-to-end simulation-kernel benchmark: wall-times one pinned
// fig3a-class configuration (mpeg2enc, 8 MB total L2, decay64K — a cell of
// the paper's Figure 3(a) grid) plus its always-on baseline, and writes the
// result as JSON (the committed trajectory is BENCH_kernel.json) so the
// kernel's throughput is tracked across PRs.
//
// Unlike the figure benches this deliberately bypasses the result cache:
// every invocation simulates, because the simulation itself is the thing
// being measured. CDSIM_INSTR scales the run (CI smoke uses a small value);
// the default of 1M instructions/core keeps a full-fidelity sample under a
// couple of seconds.
//
// The file is a datapoint file (bench::write_datapoints): one row per
// sample, labelled "sample" (baseline, decay64K, decay64K+obs), "best_ms",
// "runs_ms", "events" and "events_per_sec", then every RunMetrics leaf.
//
// Usage: bench_kernel <output.json> [--baseline file] [--tolerance ratio]
//   output.json   where to write this run's numbers (exactly one,
//                 required, so a run from the repo root cannot overwrite
//                 the committed BENCH_kernel.json it is gated against)
//   --baseline    a previously committed BENCH_kernel.json to gate against:
//                 its instruction budget must equal this run's (exit 2
//                 before any rep otherwise), each sample's events and
//                 every RunMetrics leaf must read exactly as recorded
//                 (bench::read_datapoints), and best_ms may not exceed
//                 baseline * tolerance. A sample that differs is reported
//                 with its first differing field and how many differ.
//                 This is the CI perf gate for the throughput-class sweep.
//   --tolerance   wall-clock slowdown ratio allowed vs. the baseline, a
//                 finite number > 0 and nothing after it (default 3.0 —
//                 wide on purpose: shared CI runners are noisy and the
//                 committed baseline came from different hardware; the
//                 gate catches order-of-magnitude sins, the committed
//                 history catches drift).
// A malformed argument exits 2 naming it, before any rep runs.

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdsim/obs/interval_sampler.hpp"
#include "cdsim/obs/trace_recorder.hpp"
#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "figure_common.hpp"

namespace {

using namespace cdsim;

constexpr std::uint64_t kReps = 3;  ///< Best-of-N to shed scheduler noise.

struct Sample {
  std::string label;
  std::vector<double> runs_ms;
  double best_ms = 0.0;
  std::uint64_t events = 0;
  sim::RunMetrics metrics;

  /// The labels of this sample's row, ahead of its RunMetrics leaves.
  [[nodiscard]] std::vector<bench::JsonField> labels() const {
    const double per_sec =
        best_ms > 0.0 ? static_cast<double>(events) / (best_ms / 1000.0) : 0.0;
    return {{"sample", label},
            {"best_ms", best_ms},
            {"runs_ms", runs_ms},
            {"events", events},
            {"events_per_sec", per_sec}};
  }
};

Sample run_pinned(const decay::DecayConfig& dcfg, std::uint64_t instr,
                  bool traced = false) {
  Sample s;
  s.label = dcfg.label() + (traced ? "+obs" : "");
  const workload::Benchmark& bench = workload::benchmark_by_name("mpeg2enc");
  sim::SystemConfig cfg = sim::make_system_config(8 * MiB, dcfg);
  cfg.instructions_per_core = instr;
  s.best_ms = 1e300;
  for (std::uint64_t rep = 0; rep < kReps; ++rep) {
    // Fresh system per rep, seeded exactly as run_config would seed this
    // cell, so the metrics match what the figure benches compute for it.
    sim::CmpSystem sys(sim::normalized_run_config(cfg, bench), bench);
    // The traced sample measures observability *attached*: full recorder
    // emission streamed to the bit bucket (so disk speed isn't in the
    // measurement) plus a checksum-only sampler. Comparing its metrics
    // against the plain sample's is the observer-only proof; comparing its
    // best_ms is the attached-overhead number.
    obs::TraceRecorder rec;
    obs::IntervalSampler sampler(10'000);
    if (traced) {
      if (!rec.open("/dev/null")) {
        std::fprintf(stderr, "bench_kernel: cannot open /dev/null\n");
        std::exit(1);
      }
      sys.set_trace_recorder(&rec);
      sys.set_sampler(&sampler);
    }
    const auto t0 = std::chrono::steady_clock::now();
    sim::RunMetrics m = sys.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (traced) rec.close();
    s.runs_ms.push_back(ms);
    if (ms < s.best_ms) s.best_ms = ms;
    s.events = sys.events().executed();
    s.metrics = std::move(m);
  }
  return s;
}

/// Compares this run against a same-budget baseline. Events and every
/// RunMetrics leaf are a hard gate, compared as the text write_datapoints
/// prints: the simulator promises bit-identical runs per config, so ANY
/// drift is a functional regression, not noise. Wall clock is gated by
/// `tolerance` (slowdown only — getting faster is the point). Returns
/// failure count.
int check_against_baseline(const std::vector<Sample>& samples,
                           const bench::Datapoints& base, double tolerance) {
  int failures = 0;
  for (const Sample& s : samples) {
    const std::string sample = bench::json_text(s.label);
    const bench::JsonText* want = nullptr;
    for (const bench::JsonText& r : base.configs) {
      if (bench::field_text(r, "sample") == sample) want = &r;
    }
    if (want == nullptr) {
      std::fprintf(stderr,
                   "bench_kernel: baseline has no \"%s\" sample — "
                   "regenerate it with this binary\n",
                   s.label.c_str());
      ++failures;
      continue;
    }
    std::size_t differ = 0;
    std::string first;
    for (const auto& [name, text] :
         bench::datapoint_row({{"events", s.events}}, s.metrics)) {
      const std::string was = bench::field_text(*want, name);
      if (was != text && differ++ == 0) {
        first = name + ": got " + text + ", baseline " +
                (was.empty() ? "none" : was);
      }
    }
    if (differ != 0) {
      std::fprintf(stderr,
                   "bench_kernel: BASELINE MISMATCH [%s] %s (%zu field(s) "
                   "differ)\n",
                   s.label.c_str(), first.c_str(), differ);
      ++failures;
    }
    const double base_ms =
        std::strtod(bench::field_text(*want, "best_ms").c_str(), nullptr);
    if (base_ms > 0.0 && s.best_ms > base_ms * tolerance) {
      std::fprintf(stderr,
                   "bench_kernel: PERF REGRESSION [%s] best %.1f ms vs "
                   "baseline %.1f ms (limit %.1f ms = %.2fx)\n",
                   s.label.c_str(), s.best_ms, base_ms, base_ms * tolerance,
                   tolerance);
      ++failures;
    } else {
      std::printf("  gate [%s]: %.1f ms vs baseline %.1f ms (%.2fx, "
                  "limit %.2fx)\n",
                  s.label.c_str(), s.best_ms, base_ms,
                  base_ms > 0.0 ? s.best_ms / base_ms : 0.0, tolerance);
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) try {
  std::string out;
  std::string baseline_path;
  double tolerance = 3.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_kernel: --baseline needs a file\n");
        return 2;
      }
      baseline_path = argv[++i];
    } else if (arg == "--tolerance") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_kernel: --tolerance needs a ratio\n");
        return 2;
      }
      char* end = nullptr;
      tolerance = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || !std::isfinite(tolerance) ||
          tolerance <= 0.0) {
        std::fprintf(stderr,
                     "bench_kernel: invalid --tolerance \"%s\" (want a "
                     "finite ratio > 0)\n",
                     argv[i]);
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bench_kernel: unknown option %s\n", arg.c_str());
      return 2;
    } else if (out.empty()) {
      out = arg;
    } else {
      std::fprintf(stderr,
                   "bench_kernel: unexpected argument \"%s\" (one output "
                   "path, already given \"%s\")\n",
                   arg.c_str(), out.c_str());
      return 2;
    }
  }
  if (out.empty()) {
    std::fprintf(stderr,
                 "usage: bench_kernel <output.json> [--baseline file] "
                 "[--tolerance ratio]\n");
    return 2;
  }

  // Load (and validate) the baseline up front so a bad path fails in
  // milliseconds, not after the measurement runs.
  bench::Datapoints baseline;
  if (!baseline_path.empty()) {
    baseline = bench::read_datapoints(baseline_path);
    if (bench::field_text(baseline.header, "instructions_per_core").empty()) {
      std::fprintf(stderr, "bench_kernel: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
  }

  const std::uint64_t instr =
      sim::detail::instructions_from_env(1'000'000, "bench_kernel");
  // A baseline recorded at another budget cannot gate this run.
  const std::string recorded =
      bench::field_text(baseline.header, "instructions_per_core");
  if (!baseline_path.empty() && recorded != bench::json_text(instr)) {
    std::fprintf(stderr,
                 "bench_kernel: baseline was recorded at %s instr/core, "
                 "this run would use %llu; set CDSIM_INSTR=%s to gate\n",
                 recorded.c_str(), static_cast<unsigned long long>(instr),
                 recorded.c_str());
    return 2;
  }

  const decay::DecayConfig decay64k{decay::Technique::kDecay, 64 * 1024, 4};
  std::vector<Sample> samples;
  samples.push_back(run_pinned(sim::baseline_config(), instr));
  samples.push_back(run_pinned(decay64k, instr));
  samples.push_back(run_pinned(decay64k, instr, /*traced=*/true));

  // The observer-only gate: attaching the recorder + sampler must leave
  // every RunMetrics leaf bit-identical. A drift here means an emission
  // point read back into (or scheduled into) simulated state.
  const std::string drift =
      sim::first_difference(samples[1].metrics, samples[2].metrics);
  if (!drift.empty()) {
    std::fprintf(stderr,
                 "bench_kernel: FAIL — %s drifted with observability "
                 "attached (traced run is not observer-only)\n",
                 drift.c_str());
    return 1;
  }
  const double traced_over_plain =
      samples[1].best_ms > 0.0 ? samples[2].best_ms / samples[1].best_ms : 0.0;

  std::printf("bench_kernel: mpeg2enc / 8MB / %llu instr/core, best of %llu\n",
              static_cast<unsigned long long>(instr),
              static_cast<unsigned long long>(kReps));
  for (const Sample& s : samples) {
    std::printf(
        "  %-10s best %8.1f ms   %10llu events   %8.0f Kevents/s   "
        "%8llu cycles\n",
        s.label.c_str(), s.best_ms,
        static_cast<unsigned long long>(s.events),
        static_cast<double>(s.events) / s.best_ms,
        static_cast<unsigned long long>(s.metrics.cycles));
  }
  std::printf("  traced/plain wall-clock ratio: %.3f (metrics bit-identical)\n",
              traced_over_plain);

  // traced_over_plain is the wall-clock cost of running with the recorder
  // + sampler attached, relative to the same config untraced. The
  // compiled-in-but-detached cost is invisible here by construction (every
  // sample pays the same null-pointer branches); this ratio bounds the
  // *attached* cost.
  if (!bench::write_datapoints("bench_kernel", out.c_str(),
                               {{"benchmark", "mpeg2enc"},
                                {"total_l2_bytes", 8 * MiB},
                                {"instructions_per_core", instr},
                                {"reps", kReps},
                                {"traced_over_plain", traced_over_plain},
                                {"observer_invariant", true}},
                               {samples[0].labels(), samples[1].labels(),
                                samples[2].labels()},
                               {samples[0].metrics, samples[1].metrics,
                                samples[2].metrics})) {
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());

  // The perf gate runs AFTER the JSON is written: a failing run still
  // leaves its numbers on disk for the CI artifact upload / postmortem.
  if (!baseline_path.empty()) {
    const int failures = check_against_baseline(samples, baseline, tolerance);
    if (failures != 0) {
      std::fprintf(stderr, "bench_kernel: %d baseline gate failure(s)\n",
                   failures);
      return 1;
    }
  }
  return 0;
} catch (const std::invalid_argument& e) {
  // instructions_from_env rejects a malformed CDSIM_INSTR.
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
