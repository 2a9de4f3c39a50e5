// diagnose — internal-counters dump for one configuration.
//
// Usage: diagnose <benchmark> <technique> <decay_time_k> [instr]
//   <technique> is baseline|protocol|decay|sel_decay; an unknown
//   benchmark or technique name, a non-numeric decay_time_k or instr, or a
//   config the simulator rejects (e.g. a decaying technique with
//   decay_time_k 0) exits 2.
//                 [--topology=bus|dmesh] [--hierarchy=2|3] [--cores=N]
//                 [--trace-out=FILE] [--sample-out=FILE]
//                 [--sample-every=N] [--profile]
// Prints the per-level cache counters, interconnect/memory pressure, and
// energy ledger that the figure-level metrics summarize. Useful for
// calibrating workloads. The topology/hierarchy flags drive the full
// machine family: the paper's 4-core snoop bus, the scaled directory
// mesh, and the three-level machine (private L2s behind the shared
// home-banked L3) with the chosen technique active at every level.
//
// Observability (all strictly observer-only — metrics are bit-identical
// with and without them):
//   --trace-out=FILE     binary .cdtl timeline; `cdtrace render FILE
//                        out.json` turns it into Chrome trace-event JSON
//                        for Perfetto / chrome://tracing.
//   --sample-out=FILE    windowed time-series CSV.
//   --sample-every=N     sampling window in cycles (default 100000).
//   --profile            host wall-clock phase profile on stderr.

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "cdsim/common/host_timer.hpp"
#include "cdsim/obs/interval_sampler.hpp"
#include "cdsim/obs/trace_recorder.hpp"
#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cli_flags.hpp"

using namespace cdsim;

int main(int argc, char** argv) {
  std::string bench_name = "mpeg2dec";
  std::string tech_name = "decay";
  Cycle decay_k = 512;
  std::uint64_t instr = 4000000;

  std::string trace_out;
  std::string sample_out;
  std::uint64_t sample_every = 100000;
  bool profile = false;
  bool bad_positional = false;

  examples::MachineFlags mf;
  examples::FlagParser parser;
  parser.machine(&mf)
      .str("trace-out", &trace_out)
      .str("sample-out", &sample_out)
      .u64("sample-every", &sample_every)
      .toggle("profile", &profile)
      .on_positional([&](int pos, const std::string& arg) {
        // decay_time_k may be 0 (baseline/protocol ignore it) but must
        // not overflow when scaled to cycles; instr must be positive.
        const auto number = [&](const char* what, std::uint64_t lo,
                                std::uint64_t hi, std::uint64_t* out) {
          const auto v = sim::detail::parse_u64(arg.c_str());
          if (v && *v >= lo && *v <= hi) {
            *out = *v;
            return;
          }
          std::fprintf(stderr,
                       "invalid %s \"%s\" (want an integer in %llu..%llu)\n",
                       what, arg.c_str(), static_cast<unsigned long long>(lo),
                       static_cast<unsigned long long>(hi));
          bad_positional = true;
        };
        switch (pos) {
          case 0: bench_name = arg; break;
          case 1: tech_name = arg; break;
          case 2: number("decay_time_k", 0, ~0ull / 1024, &decay_k); break;
          case 3: number("instr", 1, ~0ull, &instr); break;
          default:
            std::fprintf(stderr, "unexpected argument \"%s\"\n", arg.c_str());
            bad_positional = true;
            break;
        }
      });
  if (!parser.parse(argc, argv) || bad_positional) return 2;
  const std::optional<decay::DecayConfig> d =
      examples::parse_technique_flag(tech_name, decay_k);
  if (!d) return 2;

  sim::SystemConfig cfg = mf.machine(
      static_cast<std::uint64_t>(mf.effective_cores()) * MiB, *d);
  cfg.instructions_per_core = instr;

  const workload::Benchmark* bench = nullptr;
  try {
    bench = &workload::benchmark_by_name(bench_name);
    sim::validate_system_config(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "diagnose: %s\n", e.what());
    return 2;
  }
  sim::CmpSystem sys(cfg, *bench);

  obs::TraceRecorder recorder;
  if (!trace_out.empty()) {
    std::string err;
    if (!recorder.open(trace_out, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
    sys.set_trace_recorder(&recorder);
  }
  obs::IntervalSampler sampler(sample_every);
  if (!sample_out.empty()) {
    std::string err;
    if (!sampler.open_csv(sample_out, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 1;
    }
    sys.set_sampler(&sampler);
  }
  if (profile) prof::HostProfiler::set_enabled(true);

  const sim::RunMetrics m = sys.run();

  if (!trace_out.empty()) {
    if (!recorder.close()) {
      std::fprintf(stderr, "trace write failed: %s\n", trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %llu event(s) on %u track(s) -> %s\n",
                 (unsigned long long)recorder.events(), recorder.tracks(),
                 trace_out.c_str());
  }
  if (!sample_out.empty()) {
    if (!sampler.finish()) {
      std::fprintf(stderr, "series write failed: %s\n", sample_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "series: %llu row(s), checksum %016llx -> %s\n",
                 (unsigned long long)sampler.rows(),
                 (unsigned long long)sampler.checksum(), sample_out.c_str());
  }
  if (profile) prof::HostProfiler::report(stderr);

  std::printf("=== %s / %s / %lluMB L2 / %s%u / %s / %llu instr/core ===\n",
              m.benchmark.c_str(), m.technique.c_str(),
              (unsigned long long)(m.total_l2_bytes / MiB),
              m.topology.c_str(), cfg.num_cores, m.hierarchy.c_str(),
              (unsigned long long)instr);
  std::printf("cycles            %llu\n", (unsigned long long)m.cycles);
  std::printf("IPC               %.3f\n", m.ipc);
  std::printf("occupation        %.3f\n", m.l2_occupation);
  std::printf("L2 accesses       %llu\n", (unsigned long long)m.l2_accesses);
  std::printf("L2 misses         %llu (%.2f%%)\n",
              (unsigned long long)m.l2_misses, 100.0 * m.l2_miss_rate);
  std::printf("  decay-induced   %llu\n",
              (unsigned long long)m.l2_decay_induced_misses);
  std::printf("decay turnoffs    %llu\n",
              (unsigned long long)m.l2_decay_turnoffs);
  std::printf("coherence invals  %llu\n",
              (unsigned long long)m.l2_coherence_invals);
  std::printf("writebacks        %llu\n",
              (unsigned long long)m.l2_writebacks);
  std::printf("AMAT              %.1f cycles\n", m.amat);
  std::printf("mem bytes         %llu (%.3f B/cyc)\n",
              (unsigned long long)m.mem_bytes, m.mem_bandwidth);
  std::printf("fabric util       %.1f%%\n", 100.0 * m.bus_utilization);
  std::printf("avg L2 temp       %.1f K\n", m.avg_l2_temp_kelvin);
  if (cfg.topology == noc::Topology::kDirectoryMesh) {
    std::printf("NoC flit-hops     %llu (avg pkt lat %.1f)\n",
                (unsigned long long)m.noc_flit_hops,
                m.noc_avg_packet_latency);
    std::printf("dir snoops        %llu (recalls %llu, deferrals %llu)\n",
                (unsigned long long)m.dir_directed_snoops,
                (unsigned long long)m.dir_recalls,
                (unsigned long long)m.dir_deferrals);
  }

  const auto print_level = [](const char* name, const sim::LevelMetrics& l) {
    std::printf(
        "  %-3s acc=%llu hit=%llu miss=%llu toff=%llu dmiss=%llu wb=%llu "
        "occ=%.3f\n",
        name, (unsigned long long)l.accesses, (unsigned long long)l.hits,
        (unsigned long long)l.misses, (unsigned long long)l.decay_turnoffs,
        (unsigned long long)l.decay_induced_misses,
        (unsigned long long)l.writebacks, l.occupation);
  };
  std::printf("\nper-level counters (summed over the level):\n");
  print_level("L1", m.l1);
  print_level("L2", m.l2);
  if (sys.has_l3()) print_level("L3", m.l3);

  std::printf("\nper-L2 counters:\n");
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    const auto& st = sys.l2(c).stats();
    std::printf(
        "  L2[%u] rh=%llu rm=%llu wh=%llu wm=%llu ev=%llu wb=%llu "
        "inv=%llu boff=%llu dmiss=%llu retries=%llu upg=%llu\n",
        c, (unsigned long long)st.read_hits.value(),
        (unsigned long long)st.read_misses.value(),
        (unsigned long long)st.write_hits.value(),
        (unsigned long long)st.write_misses.value(),
        (unsigned long long)st.evictions.value(),
        (unsigned long long)st.writebacks.value(),
        (unsigned long long)st.coherence_invals.value(),
        (unsigned long long)st.decay_turnoffs.value(),
        (unsigned long long)st.decay_induced_misses.value(),
        (unsigned long long)sys.l2(c).transient_retries(),
        (unsigned long long)sys.l2(c).upgrades());
  }
  if (sys.has_l3()) {
    std::printf("\nper-L3-bank counters:\n");
    for (std::uint32_t b = 0; b < sys.l3().num_banks(); ++b) {
      const auto& st = sys.l3().bank_stats(b);
      std::printf(
          "  L3[%u] rh=%llu rm=%llu wh=%llu wm=%llu ev=%llu wb=%llu "
          "inv=%llu boff=%llu dmiss=%llu\n",
          b, (unsigned long long)st.read_hits.value(),
          (unsigned long long)st.read_misses.value(),
          (unsigned long long)st.write_hits.value(),
          (unsigned long long)st.write_misses.value(),
          (unsigned long long)st.evictions.value(),
          (unsigned long long)st.writebacks.value(),
          (unsigned long long)st.coherence_invals.value(),
          (unsigned long long)st.decay_turnoffs.value(),
          (unsigned long long)st.decay_induced_misses.value());
    }
  }

  std::printf("\ndecay-induced misses by region (agg): priv=%llu rw=%llu ro=%llu stream=%llu\n",
      [&]{unsigned long long v=0; for (CoreId c=0;c<cfg.num_cores;++c) v+=sys.l2(c).stats().decay_induced_by_region[1].value(); return v;}(),
      [&]{unsigned long long v=0; for (CoreId c=0;c<cfg.num_cores;++c) v+=sys.l2(c).stats().decay_induced_by_region[2].value(); return v;}(),
      [&]{unsigned long long v=0; for (CoreId c=0;c<cfg.num_cores;++c) v+=sys.l2(c).stats().decay_induced_by_region[3].value(); return v;}(),
      [&]{unsigned long long v=0; for (CoreId c=0;c<cfg.num_cores;++c) v+=sys.l2(c).stats().decay_induced_by_region[4].value(); return v;}());

  std::printf("\nper-core stalls (cycles):\n");
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    using SR = core::CoreModel::StallReason;
    const auto& cm = sys.core_model(c);
    std::printf("  core[%u] total=%llu dep=%llu lq=%llu rob=%llu port=%llu store=%llu\n",
                c, (unsigned long long)cm.stall_cycles(),
                (unsigned long long)cm.stall_breakdown(SR::kDep),
                (unsigned long long)cm.stall_breakdown(SR::kLoadQueue),
                (unsigned long long)cm.stall_breakdown(SR::kRob),
                (unsigned long long)cm.stall_breakdown(SR::kPort),
                (unsigned long long)cm.stall_breakdown(SR::kStore));
  }

  std::printf("\nper-L1 counters:\n");
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    const auto& st = sys.l1(c).stats();
    std::printf("  L1[%u] rh=%llu rm=%llu wh=%llu wm=%llu binv=%llu boff=%llu\n",
                c, (unsigned long long)st.read_hits.value(),
                (unsigned long long)st.read_misses.value(),
                (unsigned long long)st.write_hits.value(),
                (unsigned long long)st.write_misses.value(),
                (unsigned long long)st.backinvals.value(),
                (unsigned long long)st.decay_turnoffs.value());
  }

  std::printf("\nenergy ledger (eu):\n");
  for (std::size_t i = 0; i < power::kNumComponents; ++i) {
    const auto comp = static_cast<power::Component>(i);
    std::printf("  %-16s %.3e\n", std::string(power::to_string(comp)).c_str(),
                m.ledger.get(comp));
  }
  std::printf("  %-16s %.3e\n", "TOTAL", m.ledger.total());
  return 0;
}
