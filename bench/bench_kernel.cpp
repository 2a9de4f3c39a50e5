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
// Usage: bench_kernel <output.json> [--baseline file] [--tolerance ratio]
//   output.json   where to write this run's numbers (required, so a run
//                 from the repo root cannot overwrite the committed
//                 BENCH_kernel.json it is gated against)
//   --baseline    a previously committed BENCH_kernel.json to gate against:
//                 its instruction budget must equal this run's (exit 2
//                 before any rep otherwise), the deterministic fields
//                 (events, cycles, l2_misses, decay_turnoffs, occupation)
//                 must match BIT-EXACTLY, and best_ms may not exceed
//                 baseline * tolerance. This is the CI perf gate for the
//                 throughput-class sweep.
//   --tolerance   wall-clock slowdown ratio allowed vs. the baseline
//                 (default 3.0 — wide on purpose: shared CI runners are
//                 noisy and the committed baseline came from different
//                 hardware; the gate catches order-of-magnitude sins, the
//                 committed history catches drift).

#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cdsim/common/version.hpp"
#include "cdsim/obs/interval_sampler.hpp"
#include "cdsim/obs/trace_recorder.hpp"
#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "figure_common.hpp"

namespace {

using namespace cdsim;

constexpr int kReps = 3;  ///< Best-of-N to shed scheduler noise.

struct Sample {
  std::string label;
  std::vector<double> runs_ms;
  double best_ms = 0.0;
  std::uint64_t events = 0;
  Cycle cycles = 0;
  sim::RunMetrics metrics;
};

Sample run_pinned(const decay::DecayConfig& dcfg, std::uint64_t instr,
                  bool traced = false) {
  Sample s;
  s.label = dcfg.label() + (traced ? "+obs" : "");
  const workload::Benchmark& bench = workload::benchmark_by_name("mpeg2enc");
  sim::SystemConfig cfg = sim::make_system_config(8 * MiB, dcfg);
  cfg.instructions_per_core = instr;
  s.best_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
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
    s.cycles = m.cycles;
    s.metrics = std::move(m);
  }
  return s;
}

void print_json(std::FILE* f, const std::vector<Sample>& samples,
                std::uint64_t instr, double traced_over_plain) {
  std::fprintf(f, "{\n  \"bench\": \"bench_kernel\",\n");
  std::fprintf(f, "  \"version\": \"%s\",\n", version());
  std::fprintf(f, "  \"benchmark\": \"mpeg2enc\",\n");
  std::fprintf(f, "  \"total_l2_bytes\": %llu,\n",
               static_cast<unsigned long long>(8 * MiB));
  std::fprintf(f, "  \"instructions_per_core\": %llu,\n",
               static_cast<unsigned long long>(instr));
  std::fprintf(f, "  \"reps\": %d,\n  \"configs\": [\n", kReps);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f, "    {\"technique\": \"%s\", \"best_ms\": %.3f, ",
                 s.label.c_str(), s.best_ms);
    std::fprintf(f, "\"runs_ms\": [");
    for (std::size_t r = 0; r < s.runs_ms.size(); ++r) {
      std::fprintf(f, "%s%.3f", r ? ", " : "", s.runs_ms[r]);
    }
    std::fprintf(f, "], \"events\": %llu, \"cycles\": %llu, ",
                 static_cast<unsigned long long>(s.events),
                 static_cast<unsigned long long>(s.cycles));
    std::fprintf(f, "\"events_per_sec\": %.0f, ",
                 s.best_ms > 0.0 ? static_cast<double>(s.events) /
                                       (s.best_ms / 1000.0)
                                 : 0.0);
    // Enough of the metrics to cross-check against the golden test.
    std::fprintf(f,
                 "\"l2_misses\": %llu, \"decay_turnoffs\": %llu, "
                 "\"occupation\": %.17g}%s\n",
                 static_cast<unsigned long long>(s.metrics.l2_misses),
                 static_cast<unsigned long long>(s.metrics.l2_decay_turnoffs),
                 s.metrics.l2_occupation, i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Wall-clock cost of running with the recorder + sampler attached,
  // relative to the same config untraced. The compiled-in-but-detached
  // cost is invisible here by construction (every sample pays the same
  // null-pointer branches); this ratio bounds the *attached* cost.
  std::fprintf(f, "  \"traced_over_plain\": %.3f,\n", traced_over_plain);
  std::fprintf(f, "  \"observer_invariant\": true\n}\n");
}

// ---------------------------------------------------------------------------
// Baseline gate (--baseline): hand-rolled extraction tuned to print_json's
// own output — every config object is a single line, every scalar is
// `"key": value`. No JSON library in the tree, and none needed to re-read
// a format this file itself wrote.
// ---------------------------------------------------------------------------

struct BaselineConfig {
  double best_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t cycles = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t decay_turnoffs = 0;
  double occupation = 0.0;
};

struct Baseline {
  std::uint64_t instructions_per_core = 0;
  // Parallel arrays keyed by technique label, in file order.
  std::vector<std::string> labels;
  std::vector<BaselineConfig> configs;

  [[nodiscard]] const BaselineConfig* find(const std::string& label) const {
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == label) return &configs[i];
    }
    return nullptr;
  }
};

/// Extracts `"key": <number>` from one line; nullopt if the key is absent.
std::optional<double> field_number(const std::string& line,
                                   const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const char* start = line.c_str() + pos + needle.size();
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> field_u64(const std::string& line,
                                       const std::string& key) {
  const auto v = field_number(line, key);
  if (!v.has_value()) return std::nullopt;
  return static_cast<std::uint64_t>(*v);
}

/// Extracts `"key": "<text>"` from one line.
std::optional<std::string> field_string(const std::string& line,
                                        const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const auto start = pos + needle.size();
  const auto close = line.find('"', start);
  if (close == std::string::npos) return std::nullopt;
  return line.substr(start, close - start);
}

std::optional<Baseline> load_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return std::nullopt;
  Baseline b;
  std::string line;
  while (std::getline(in, line)) {
    if (const auto instr = field_u64(line, "instructions_per_core")) {
      b.instructions_per_core = *instr;
    }
    const auto label = field_string(line, "technique");
    if (!label.has_value()) continue;
    BaselineConfig c;
    const auto best = field_number(line, "best_ms");
    const auto events = field_u64(line, "events");
    const auto cycles = field_u64(line, "cycles");
    const auto misses = field_u64(line, "l2_misses");
    const auto turnoffs = field_u64(line, "decay_turnoffs");
    const auto occ = field_number(line, "occupation");
    if (!best || !events || !cycles || !misses || !turnoffs || !occ) {
      std::fprintf(stderr,
                   "bench_kernel: malformed baseline config line: %s\n",
                   line.c_str());
      return std::nullopt;
    }
    c.best_ms = *best;
    c.events = *events;
    c.cycles = *cycles;
    c.l2_misses = *misses;
    c.decay_turnoffs = *turnoffs;
    c.occupation = *occ;
    b.labels.push_back(*label);
    b.configs.push_back(c);
  }
  return b;
}

/// Compares this run against a same-budget baseline. Deterministic fields
/// (event count, cycles, misses, turnoffs, occupation) are a hard gate: the
/// simulator promises bit-identical runs per config, so ANY drift is a
/// functional regression, not noise. Wall clock is gated by `tolerance`
/// (slowdown only — getting faster is the point). Returns failure count.
int check_against_baseline(const std::vector<Sample>& samples,
                           const Baseline& base, double tolerance) {
  int failures = 0;
  const auto fail = [&failures](const std::string& label, const char* what,
                                double got, double want) {
    std::fprintf(stderr,
                 "bench_kernel: BASELINE MISMATCH [%s] %s: got %.17g, "
                 "baseline %.17g\n",
                 label.c_str(), what, got, want);
    ++failures;
  };
  for (const Sample& s : samples) {
    const BaselineConfig* c = base.find(s.label);
    if (c == nullptr) {
      std::fprintf(stderr,
                   "bench_kernel: baseline has no \"%s\" config — "
                   "regenerate it with this binary\n",
                   s.label.c_str());
      ++failures;
      continue;
    }
    if (s.events != c->events) {
      fail(s.label, "events", static_cast<double>(s.events),
           static_cast<double>(c->events));
    }
    if (s.cycles != c->cycles) {
      fail(s.label, "cycles", static_cast<double>(s.cycles),
           static_cast<double>(c->cycles));
    }
    if (s.metrics.l2_misses != c->l2_misses) {
      fail(s.label, "l2_misses", static_cast<double>(s.metrics.l2_misses),
           static_cast<double>(c->l2_misses));
    }
    if (s.metrics.l2_decay_turnoffs != c->decay_turnoffs) {
      fail(s.label, "decay_turnoffs",
           static_cast<double>(s.metrics.l2_decay_turnoffs),
           static_cast<double>(c->decay_turnoffs));
    }
    // %.17g round-trips doubles exactly, so plain equality IS bit equality
    // (modulo -0.0/NaN, which l2_occupation never is).
    if (s.metrics.l2_occupation != c->occupation) {
      fail(s.label, "occupation", s.metrics.l2_occupation, c->occupation);
    }
    if (c->best_ms > 0.0 && s.best_ms > c->best_ms * tolerance) {
      std::fprintf(stderr,
                   "bench_kernel: PERF REGRESSION [%s] best %.1f ms vs "
                   "baseline %.1f ms (limit %.1f ms = %.2fx)\n",
                   s.label.c_str(), s.best_ms, c->best_ms,
                   c->best_ms * tolerance, tolerance);
      ++failures;
    } else {
      std::printf("  gate [%s]: %.1f ms vs baseline %.1f ms (%.2fx, "
                  "limit %.2fx)\n",
                  s.label.c_str(), s.best_ms, c->best_ms,
                  c->best_ms > 0.0 ? s.best_ms / c->best_ms : 0.0, tolerance);
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
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
      if (end == argv[i] || tolerance <= 0.0) {
        std::fprintf(stderr, "bench_kernel: invalid --tolerance \"%s\"\n",
                     argv[i]);
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bench_kernel: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      out = arg;
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
  std::optional<Baseline> baseline;
  if (!baseline_path.empty()) {
    baseline = load_baseline(baseline_path);
    if (!baseline.has_value()) {
      std::fprintf(stderr, "bench_kernel: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
  }

  const auto env_instr =
      sim::detail::instructions_from_env(1'000'000, "bench_kernel");
  if (!env_instr) return 1;
  const std::uint64_t instr = *env_instr;
  // A baseline recorded at another budget cannot gate this run.
  if (baseline.has_value() && baseline->instructions_per_core != instr) {
    const auto want =
        static_cast<unsigned long long>(baseline->instructions_per_core);
    std::fprintf(stderr,
                 "bench_kernel: baseline was recorded at %llu instr/core, "
                 "this run would use %llu; set CDSIM_INSTR=%llu to gate\n",
                 want, static_cast<unsigned long long>(instr), want);
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

  std::printf("bench_kernel: mpeg2enc / 8MB / %llu instr/core, best of %d\n",
              static_cast<unsigned long long>(instr), kReps);
  for (const Sample& s : samples) {
    std::printf(
        "  %-10s best %8.1f ms   %10llu events   %8.0f Kevents/s   "
        "%8llu cycles\n",
        s.label.c_str(), s.best_ms,
        static_cast<unsigned long long>(s.events),
        static_cast<double>(s.events) / s.best_ms,
        static_cast<unsigned long long>(s.cycles));
  }
  std::printf("  traced/plain wall-clock ratio: %.3f (metrics bit-identical)\n",
              traced_over_plain);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernel: cannot write %s\n", out.c_str());
    return 1;
  }
  print_json(f, samples, instr, traced_over_plain);
  if (!bench::close_output(f, "bench_kernel", out.c_str())) return 1;
  std::printf("wrote %s\n", out.c_str());

  // The perf gate runs AFTER the JSON is written: a failing run still
  // leaves its numbers on disk for the CI artifact upload / postmortem.
  if (baseline.has_value()) {
    const int failures = check_against_baseline(samples, *baseline, tolerance);
    if (failures != 0) {
      std::fprintf(stderr, "bench_kernel: %d baseline gate failure(s)\n",
                   failures);
      return 1;
    }
  }
  return 0;
}
