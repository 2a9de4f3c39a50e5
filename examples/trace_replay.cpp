// trace_replay — driving the machine family with recorded access traces.
//
// Two modes:
//
//   $ ./trace_replay
//       No-args demo: replays a hand-written producer/consumer script on a
//       4-core bus CmpSystem and prints how the leakage technique handles
//       the sharing pattern (the original example).
//
//   $ ./trace_replay prog_a.cdt [prog_b.cdt ...] [flags]
//       Streams one or more chunked .cdt v2 traces (any other file is
//       rejected) through a full CmpSystem. One trace with machine cores ==
//       trace cores is exact per-core replay; several traces (or more
//       machine cores than trace cores) become a rate-mode co-scheduled
//       mix: core c runs program c % P (see cdsim/sim/scenario.hpp).
//       Replay is streaming — multi-GB v2 traces run in O(cores x chunk)
//       memory.
//
//       --topology=bus|dmesh --hierarchy=2|3 --cores=N   machine family
//       --technique=baseline|protocol|decay|sel_decay    leakage technique
//       --decay-k=N        decay window in Kcycles (default 32)
//       --hot=IDX:MULT     weight program IDX by MULT (hot tenant)
//       --verify           attach the differential oracle; exit 1 on any
//                          divergence
//       --in-memory        ALSO replay through the load-it-whole in-memory
//                          path and fail unless the metrics are
//                          bit-identical to the streaming run
//       --max-rss-mb=N     fail if peak RSS exceeded N MiB
//       --metrics-out=F    append a "name value" line per RunMetrics leaf
//                          to F (sim::format_metrics; hexfloat doubles)
//       --trace-out=F      binary .cdtl timeline of the streaming replay;
//                          `cdtrace render F out.json` makes it
//                          Perfetto-loadable JSON
//       --sample-out=F     windowed time-series CSV of the streaming replay
//       --sample-every=N   sampling window in cycles (default 100000)
//       --profile          host wall-clock phase profile on stderr

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdsim/common/host_timer.hpp"
#include "cdsim/obs/interval_sampler.hpp"
#include "cdsim/obs/trace_recorder.hpp"
#include "cdsim/common/table.hpp"
#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/sim/l2_cache.hpp"
#include "cdsim/sim/scenario.hpp"
#include "cdsim/verify/oracle.hpp"
#include "cdsim/workload/scripted.hpp"
#include "cdsim/workload/trace_v2.hpp"
#include "cli_flags.hpp"

namespace {

using namespace cdsim;

/// Builds a per-core script: core 0 produces (stores) a block of lines,
/// cores 1..3 consume (load) it, plus per-core private churn.
std::vector<workload::MemOp> make_script(CoreId core) {
  std::vector<workload::MemOp> ops;
  const Addr shared = 0x20000000000ull;  // shared region tag
  const Addr priv = 0x10000000000ull + (static_cast<Addr>(core) << 32);
  for (Addr i = 0; i < 64; ++i) {
    if (core == 0) {
      ops.push_back({AccessType::kStore, shared + i * 64, 3, false, 1});
    } else {
      ops.push_back({AccessType::kLoad, shared + i * 64, 3, false, 1});
    }
    // Private churn between shared touches.
    for (Addr k = 0; k < 4; ++k) {
      ops.push_back(
          {AccessType::kLoad, priv + ((i * 4 + k) % 512) * 64, 2, false, 0});
    }
  }
  return ops;
}

int run_demo() {
  std::printf("trace_replay: producer/consumer script on 4 cores, 1MB L2\n\n");

  sim::SystemConfig cfg = sim::make_system_config(
      1 * MiB,
      decay::DecayConfig{decay::Technique::kSelectiveDecay, 32 * 1024, 4});
  cfg.instructions_per_core = 60000;
  workload::Benchmark bench;
  bench.config.name = "producer/consumer";
  sim::CmpSystem sys(cfg, bench,
                     [](CoreId c, std::uint64_t) -> workload::StreamPtr {
                       return std::make_unique<workload::ScriptedWorkload>(
                           make_script(c));
                     });
  sys.run();
  const Cycle end = sys.events().now();

  TextTable t;
  t.row()
      .cell("core")
      .cell("IPC")
      .cell("L2 state of shared block")
      .cell("L2 occupation")
      .cell("coherence invals");
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    const sim::L2Cache& l2 = sys.l2(c);
    t.row()
        .cell(std::to_string(c))
        .cell(sys.core_model(c).ipc(end), 3)
        .cell(std::string(
            coherence::to_string(l2.line_state(0x20000000000ull))))
        .pct(l2.occupation(end))
        .cell(std::to_string(l2.stats().coherence_invals.value()));
  }
  t.print(std::cout);

  std::printf(
      "\nCore 0's stores repeatedly invalidate the consumers' copies; the\n"
      "Protocol technique would power those lines off for free, while the\n"
      "selective-decay config used here additionally harvests idle clean\n"
      "lines after 32K cycles.\n");
  return 0;
}

double peak_rss_mb() {
  struct rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct ReplayResult {
  sim::RunMetrics metrics;
  std::uint64_t divergences = 0;
};

ReplayResult run_machine(const sim::SystemConfig& cfg,
                         const workload::StreamFactory& streams,
                         bool verify, const std::string& name,
                         obs::TraceRecorder* rec = nullptr,
                         obs::IntervalSampler* sampler = nullptr) {
  workload::Benchmark bench;
  bench.config.name = name;
  verify::DifferentialChecker checker(cfg.num_cores);
  sim::CmpSystem sys(cfg, bench, streams);
  if (verify) sys.set_observer(&checker);
  if (rec != nullptr) sys.set_trace_recorder(rec);
  if (sampler != nullptr) sys.set_sampler(sampler);
  ReplayResult out;
  out.metrics = sys.run();
  if (verify) {
    sys.check_coherence_invariants();
    out.divergences = checker.total_divergences();
    if (out.divergences != 0) {
      std::fprintf(stderr, "DIVERGENCE: %s\n",
                   verify::to_string(checker.divergences().front()).c_str());
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return run_demo();

  examples::MachineFlags mf;
  std::string tech_name = "sel_decay";
  std::uint64_t decay_k = 32;
  std::uint64_t max_rss_mb = 0;
  std::string hot_spec;
  std::string metrics_out;
  std::string trace_out;
  std::string sample_out;
  std::uint64_t sample_every = 100000;
  bool profile = false;
  bool verify = false;
  bool in_memory = false;
  std::vector<std::string> paths;

  examples::FlagParser parser;
  parser.machine(&mf)
      .str("technique", &tech_name)
      .u64("decay-k", &decay_k)
      .str("hot", &hot_spec)
      .toggle("verify", &verify)
      .toggle("in-memory", &in_memory)
      .u64("max-rss-mb", &max_rss_mb)
      .str("metrics-out", &metrics_out)
      .str("trace-out", &trace_out)
      .str("sample-out", &sample_out)
      .u64("sample-every", &sample_every)
      .toggle("profile", &profile)
      .on_positional(
          [&](int, const std::string& arg) { paths.push_back(arg); });
  if (!parser.parse(argc, argv)) return 2;
  if (paths.empty()) {
    std::fprintf(stderr, "trace_replay: no trace files given\n");
    return 2;
  }

  // Assemble the mix: one program per trace file, streaming openers.
  std::vector<sim::ProgramSpec> programs;
  for (const std::string& path : paths) {
    sim::ProgramSpec spec;
    spec.name = path;
    spec.open = [path]() -> workload::TraceSourcePtr {
      std::string err;
      auto src = workload::open_trace_source(path, &err);
      if (src == nullptr) {
        std::fprintf(stderr, "trace_replay: %s\n", err.c_str());
      }
      return src;
    };
    programs.push_back(std::move(spec));
  }
  if (!hot_spec.empty()) {
    const std::size_t colon = hot_spec.find(':');
    const auto idx =
        sim::detail::parse_u64(hot_spec.substr(0, colon).c_str());
    char* end = nullptr;
    const double mult = colon == std::string::npos
                            ? 0.0
                            : std::strtod(hot_spec.c_str() + colon + 1, &end);
    if (!idx || *idx >= programs.size() || !(mult > 0.0) || *end != '\0') {
      std::fprintf(stderr, "invalid --hot value \"%s\" (want IDX:MULT)\n",
                   hot_spec.c_str());
      return 2;
    }
    programs[*idx].weight = mult;
  }

  const std::optional<decay::DecayConfig> d =
      examples::parse_technique_flag(tech_name, decay_k);
  if (!d) return 2;

  // Machine cores: explicit --cores wins; otherwise a single program
  // replays on exactly its recorded cores, and a mix defaults to the
  // topology's core count.
  if (mf.cores == 0 && programs.size() == 1) {
    std::string err;
    const auto probe = workload::open_trace_source(paths[0], &err);
    if (probe == nullptr) {
      std::fprintf(stderr, "trace_replay: %s\n", err.c_str());
      return 1;
    }
    mf.cores = probe->num_cores();
  }
  const std::uint32_t cores = mf.effective_cores();

  sim::MixPlan plan;
  try {
    plan = sim::plan_mix(std::move(programs), cores);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_replay: %s\n", e.what());
    return 1;
  }

  sim::SystemConfig cfg =
      mf.machine(static_cast<std::uint64_t>(cores) * MiB, *d);
  plan.apply(cfg);
  try {
    sim::validate_system_config(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "trace_replay: %s\n", e.what());
    return 2;
  }

  std::printf("trace_replay: %zu program(s) on %s%u (%s), %s\n", paths.size(),
              std::string(noc::to_string(cfg.topology)).c_str(), cfg.num_cores,
              std::string(sim::to_string(cfg.hierarchy)).c_str(),
              d->label().c_str());
  for (std::size_t c = 0; c < plan.assignment.size(); ++c) {
    const sim::MixAssignment& a = plan.assignment[c];
    std::printf("  core %-3zu <- %s (trace core %u, budget %llu)\n", c,
                plan.program_names[a.program].c_str(), a.trace_core,
                static_cast<unsigned long long>(a.instructions));
  }

  obs::TraceRecorder recorder;
  if (!trace_out.empty()) {
    std::string err;
    if (!recorder.open(trace_out, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
  }
  obs::IntervalSampler sampler(sample_every);
  if (!sample_out.empty()) {
    std::string err;
    if (!sampler.open_csv(sample_out, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
  }
  if (profile) prof::HostProfiler::set_enabled(true);

  const ReplayResult streamed =
      run_machine(cfg, plan.streams, verify, "trace_replay",
                  trace_out.empty() ? nullptr : &recorder,
                  sample_out.empty() ? nullptr : &sampler);
  const sim::RunMetrics& m = streamed.metrics;

  if (!trace_out.empty()) {
    if (!recorder.close()) {
      std::fprintf(stderr, "trace write failed: %s\n", trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %llu event(s) on %u track(s) -> %s\n",
                 static_cast<unsigned long long>(recorder.events()),
                 recorder.tracks(), trace_out.c_str());
  }
  if (!sample_out.empty()) {
    if (!sampler.finish()) {
      std::fprintf(stderr, "series write failed: %s\n", sample_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "series: %llu row(s), checksum %016llx -> %s\n",
                 static_cast<unsigned long long>(sampler.rows()),
                 static_cast<unsigned long long>(sampler.checksum()),
                 sample_out.c_str());
  }
  if (profile) prof::HostProfiler::report(stderr);
  std::printf("\ncycles %llu  IPC %.3f  L2 miss %.2f%%  energy %.3e\n",
              static_cast<unsigned long long>(m.cycles), m.ipc,
              100.0 * m.l2_miss_rate, m.energy);
  std::printf("peak RSS %.1f MiB\n", peak_rss_mb());

  int rc = 0;
  if (verify) {
    if (streamed.divergences == 0) {
      std::printf("verify: OK, zero divergences\n");
    } else {
      std::printf("verify: %llu divergence(s)\n",
                  static_cast<unsigned long long>(streamed.divergences));
      rc = 1;
    }
  }

  if (in_memory) {
    // A/B: load everything through the in-memory demux path and insist on
    // bit-identical metrics. Only meaningful for a single program replayed
    // on its own core count (the mix path is streaming-only).
    if (paths.size() != 1) {
      std::fprintf(stderr, "--in-memory needs exactly one trace\n");
      return 2;
    }
    std::string err;
    auto src = workload::open_trace_source(paths[0], &err);
    if (src == nullptr) {
      std::fprintf(stderr, "trace_replay: %s\n", err.c_str());
      return 1;
    }
    auto whole = std::make_shared<workload::Trace>();
    whole->num_cores = src->num_cores();
    workload::TraceRecord rec;
    while (src->next(rec)) whole->append(rec);
    const ReplayResult mem = run_machine(
        cfg, workload::replay_factory(
                 std::shared_ptr<const workload::Trace>(whole)),
        verify, "trace_replay");
    const std::string diff = sim::first_difference(m, mem.metrics);
    if (diff.empty()) {
      std::printf("in-memory A/B: bit-identical to the streaming replay\n");
    } else {
      std::printf("in-memory A/B: MISMATCH, first at %s (streaming %llu "
                  "cycles, in-memory %llu)\n",
                  diff.c_str(), static_cast<unsigned long long>(m.cycles),
                  static_cast<unsigned long long>(mem.metrics.cycles));
      rc = 1;
    }
  }

  if (max_rss_mb != 0) {
    const double rss = peak_rss_mb();
    if (rss > static_cast<double>(max_rss_mb)) {
      std::fprintf(stderr, "peak RSS %.1f MiB exceeds bound %llu MiB\n", rss,
                   static_cast<unsigned long long>(max_rss_mb));
      rc = 1;
    }
  }

  if (!metrics_out.empty()) {
    std::FILE* f = std::fopen(metrics_out.c_str(), "a");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 1;
    }
    const bool written = std::fputs(sim::format_metrics(m).c_str(), f) >= 0;
    if (std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "trace_replay: failed writing %s\n",
                   metrics_out.c_str());
      return 1;
    }
  }
  return rc;
}
