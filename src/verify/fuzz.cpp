#include "cdsim/verify/fuzz.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "cdsim/common/assert.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/verify/shrink.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "cdsim/workload/trace_v2.hpp"

namespace cdsim::verify {

namespace {

constexpr Cycle kDecayTimes[3] = {1024, 2048, 4096};

/// One round of `which`'s matrix, every L2 at `l2_per_core` bytes per
/// core: blocks of eight cells (baseline, protocol, then decay and
/// selective decay at each of kDecayTimes) per machine shape. Decay times
/// are deliberately tiny (the fuzzer's runs are tens of thousands of
/// cycles): small windows mean *more* turn-off edges per instruction,
/// which is the point. The blocks: the historical 4-core snoop-bus matrix,
/// the directory mesh at 16 (MESI) and 8 (MOESI, asymmetric 4x2 mesh)
/// cores with the hot-home-node NoC stressor, the three-level shared-L3
/// machines, the multi-program rate-mode mixes (heterogeneous tenants,
/// skewed budgets) and DRAM-backed rounds.
std::vector<FuzzScenario> matrix_round(FuzzMatrix which,
                                       std::uint64_t l2_per_core) {
  using coherence::Protocol;
  using mem::MemoryModel;
  using sim::Hierarchy;
  constexpr noc::Topology kBus = noc::Topology::kSnoopBus;
  constexpr noc::Topology kMesh = noc::Topology::kDirectoryMesh;
  std::vector<FuzzScenario> cells;
  const auto add_block = [&](Protocol protocol, noc::Topology topo,
                             std::uint32_t cores,
                             Hierarchy h = Hierarchy::kTwoLevel,
                             std::uint32_t programs = 0,
                             MemoryModel mm = MemoryModel::kFlat) {
    const auto add = [&](decay::Technique technique, Cycle window) {
      FuzzScenario sc;
      sc.machine = fuzz_machine(protocol, {technique, window, 4}, topo, cores,
                                h, mm, l2_per_core);
      sc.programs = programs;
      sc.fuzz.decay_window = window;
      // NoC stressors: hot-home-node contention (all cores hammering one
      // directory bank) rebalanced against the private-churn remainder.
      if (topo == kMesh) sc.fuzz.w_hot_home = 0.18;
      cells.push_back(std::move(sc));
    };
    add(decay::Technique::kBaseline, 2048);
    add(decay::Technique::kProtocol, 2048);
    for (const Cycle t : kDecayTimes) add(decay::Technique::kDecay, t);
    for (const Cycle t : kDecayTimes) add(decay::Technique::kSelectiveDecay, t);
  };
  switch (which) {
    case FuzzMatrix::kThreeLevelSmoke:
      // Shared-L3 cells only, both protocols, decay at all three levels —
      // plus a DRAM-backed round so the banked memory model is
      // oracle-checked below the L3 too.
      add_block(Protocol::kMesi, kMesh, 16, Hierarchy::kThreeLevel);
      add_block(Protocol::kMoesi, kMesh, 8, Hierarchy::kThreeLevel);
      add_block(Protocol::kMoesi, kMesh, 8, Hierarchy::kThreeLevel, 0,
                MemoryModel::kDram);
      break;
    case FuzzMatrix::kDmeshSmoke:
      // 16-core mesh only, both protocols, and a DRAM-backed round of the
      // MESI cells.
      add_block(Protocol::kMesi, kMesh, 16);
      add_block(Protocol::kMoesi, kMesh, 16);
      add_block(Protocol::kMesi, kMesh, 16, Hierarchy::kTwoLevel, 0,
                MemoryModel::kDram);
      break;
    case FuzzMatrix::kFull:
      add_block(Protocol::kMesi, kBus, 4);
      add_block(Protocol::kMoesi, kBus, 4);
      add_block(Protocol::kMesi, kMesh, 16);
      add_block(Protocol::kMoesi, kMesh, 8);
      // Three-level hierarchy: private L2s behind the shared home-banked
      // L3, with the cell's technique active at L1, L2, AND L3.
      add_block(Protocol::kMesi, kMesh, 16, Hierarchy::kThreeLevel);
      add_block(Protocol::kMoesi, kMesh, 8, Hierarchy::kThreeLevel);
      // Multi-program rate-mode mixes: heterogeneous fuzzer personalities
      // co-scheduled on one machine with a hot-tenant budget skew, so the
      // oracle shadows cores that retire at different times while sharing
      // the directory and NoC.
      add_block(Protocol::kMesi, kMesh, 16, Hierarchy::kTwoLevel, 4);
      add_block(Protocol::kMoesi, kMesh, 8, Hierarchy::kThreeLevel, 3);
      // DRAM-backed rounds: the same hostile mixes with the banked DRAM
      // controller and per-core TLBs behind the fabric. Flat vs. DRAM may
      // diverge only in timing — the oracle proves values never do.
      add_block(Protocol::kMesi, kBus, 4, Hierarchy::kTwoLevel, 0,
                MemoryModel::kDram);
      add_block(Protocol::kMoesi, kMesh, 8, Hierarchy::kTwoLevel, 0,
                MemoryModel::kDram);
      add_block(Protocol::kMesi, kMesh, 16, Hierarchy::kThreeLevel, 0,
                MemoryModel::kDram);
      break;
  }
  return cells;
}

ScenarioOutcome run_with_factory(const FuzzScenario& sc,
                                 const sim::SystemConfig& cfg,
                                 const workload::StreamFactory& factory) {
  workload::Benchmark bench;  // names the run; streams come from `factory`
  bench.config.name = sc.label();
  DifferentialChecker checker(cfg.num_cores);
  sim::CmpSystem sys(cfg, bench, factory);
  sys.set_observer(&checker);
  if (sc.inject_writeback_loss) {
    for (CoreId c = 0; c < cfg.num_cores; ++c) {
      sys.l2(c).inject_lost_decay_writeback();
    }
  }

  ScenarioOutcome out;
  out.metrics = sys.run();
  sys.check_coherence_invariants();
  out.divergences = checker.divergences();
  out.total_divergences = checker.total_divergences();
  out.loads_checked = checker.loads_checked();
  out.fills_checked = checker.fills_checked();
  out.writes_serialized = checker.writes_serialized();
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    out.owned_downgrades += sys.l2(c).stats().owned_downgrades.value();
  }
  return out;
}

void write_failure_report(const std::string& dir, const FuzzFailure& f) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort
  const std::string stem =
      dir + "/fuzz_" + std::to_string(f.scenario.index);

  std::string err;
  const bool full_ok = workload::save_v2(f.trace, stem + ".cdt", &err);
  bool min_ok = false;
  if (!f.shrunk.records.empty()) {
    min_ok = workload::save_v2(f.shrunk, stem + ".min.cdt", &err);
  }

  std::ofstream rep(stem + ".report.txt", std::ios::trunc);
  rep << "Differential-verification failure\n"
      << "scenario: " << f.scenario.label() << "\n"
      << "machine: " << sim::describe(f.scenario.machine) << "\n"
      << "captured trace: " << f.trace.records.size() << " ops"
      << (full_ok ? "" : " (SAVE FAILED)") << "\n"
      << "shrunken trace: " << f.shrunk.records.size() << " ops"
      << (min_ok ? "" : " (not saved)") << "\n"
      << "divergences (first " << f.divergences.size() << "):\n";
  for (const Divergence& d : f.divergences) {
    rep << "  " << to_string(d) << "\n";
  }
  rep << "\nreplay: read the .cdt with workload::open_trace_source into a\n"
         "workload::Trace, set FuzzScenario::machine to the machine above\n"
         "(every SystemConfig leaf), and run verify::replay_scenario.\n";
}

}  // namespace

sim::SystemConfig fuzz_machine(coherence::Protocol protocol,
                               decay::DecayConfig decay,
                               noc::Topology topology, std::uint32_t cores,
                               sim::Hierarchy hierarchy,
                               mem::MemoryModel memory,
                               std::uint64_t l2_bytes_per_core) {
  sim::SystemConfig cfg;
  cfg.num_cores = cores;
  cfg.topology = topology;
  cfg.total_l2_bytes = l2_bytes_per_core * cores;
  cfg.protocol = protocol;
  if (!decay::uses_decay(decay.technique)) decay.decay_time = 0;
  cfg.decay = decay;
  cfg.l1.size_bytes = 8 * KiB;
  cfg.instructions_per_core = 30000;
  sim::set_hierarchy(cfg, hierarchy);
  if (hierarchy == sim::Hierarchy::kThreeLevel) {
    // The 4x-L2 shared L3 in small banks: big enough to filter refetches,
    // small enough that bank evictions and L3 decay churn within the run.
    cfg.l3.ways = 8;
  }
  if (memory == mem::MemoryModel::kDram) {
    cfg.mem.model = mem::MemoryModel::kDram;
    cfg.mem.tlb.enabled = true;
    cfg.mem.tlb.entries = 16;
    cfg.mem.dram.t_refi = 4096;
    cfg.mem.dram.t_rfc = 64;
  }
  return cfg;
}

std::string FuzzScenario::label() const {
  const sim::SystemConfig& m = machine;
  std::ostringstream os;
  os << "fuzz#" << index << "/" << coherence::to_string(m.protocol) << "/"
     << noc::to_string(m.topology) << m.num_cores << "/"
     << sim::to_string(m.hierarchy) << "/" << m.decay.label()
     << "/l2=" << m.total_l2_bytes / KiB << "K";
  if (m.hierarchy == sim::Hierarchy::kThreeLevel) {
    os << "/l3=" << m.total_l3_bytes / KiB << "K";
  }
  if (programs > 0) os << "/progs=" << programs;
  if (m.mem.model == mem::MemoryModel::kDram) os << "/dram";
  os << "/seed=" << m.seed;
  if (inject_writeback_loss) os << "/INJECTED-WB-LOSS";
  return os.str();
}

std::vector<FuzzScenario> fuzz_matrix(const FuzzOptions& opts) {
  // Alternate slice pressure between rounds of the matrix (32 KiB or
  // 64 KiB per core, matching the historical 4-core 128K/256K totals).
  const std::vector<FuzzScenario> rounds[2] = {
      matrix_round(opts.matrix, 32 * KiB), matrix_round(opts.matrix, 64 * KiB)};
  const std::size_t cells = rounds[0].size();
  std::vector<FuzzScenario> out;
  out.reserve(opts.scenarios);
  for (std::size_t i = 0; i < opts.scenarios; ++i) {
    FuzzScenario sc = rounds[(i / cells) % 2][i % cells];
    sc.index = i;
    sc.machine.seed = opts.base_seed + i;
    sc.inject_writeback_loss = opts.inject_writeback_loss;
    out.push_back(std::move(sc));
  }
  return out;
}

workload::StreamFactory fuzz_streams(const FuzzScenario& sc) {
  return [fc = sc.fuzz, programs = sc.programs, cores = sc.machine.num_cores,
          line = sc.machine.line_bytes,
          width = sc.machine.core.issue_width](CoreId core,
                                               std::uint64_t seed) {
    if (programs == 0) {
      return std::make_unique<workload::FuzzerWorkload>(fc, cores, line,
                                                        width, core, seed);
    }
    // Multi-program cell: core c runs personality c % programs. Each
    // personality leans on different machinery, and its seed is mixed
    // with the program index so tenants sharing a seed still draw
    // distinct streams.
    const std::uint32_t p = core % programs;
    workload::FuzzerConfig pc = fc;
    pc.name = fc.name + "/p" + std::to_string(p);
    switch (p % 4) {
      case 0:  // the classic hostile blend (the hot tenant)
        break;
      case 1:  // invalidation-heavy: ownership ping-pong through BusRdX
        pc.w_false_share = 0.40;
        pc.w_pingpong = 0.12;
        break;
      case 2:  // decay-edge heavy: long sleeps straddling the window
        pc.w_straddle = 0.22;
        pc.w_chain = 0.06;
        pc.max_gap = 7;
        break;
      default:  // store-heavy churn: dirty evictions and write-backs
        pc.w_pingpong = 0.40;
        pc.store_fraction = 0.7;
        pc.churn_lines = 96;
        break;
    }
    return std::make_unique<workload::FuzzerWorkload>(
        pc, cores, line, width, core,
        seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
  };
}

ScenarioOutcome run_scenario(const FuzzScenario& sc, bool capture) {
  sim::SystemConfig cfg = sc.machine;
  if (sc.programs > 0) {
    // Rate-mode hot-tenant skew: program 0's cores get a doubled budget,
    // so they keep issuing after the other tenants retire and the oracle
    // shadows a machine whose cores finish at different times.
    cfg.per_core_instructions.assign(cfg.num_cores, cfg.instructions_per_core);
    for (std::uint32_t c = 0; c < cfg.num_cores; c += sc.programs) {
      cfg.per_core_instructions[c] = 2 * cfg.instructions_per_core;
    }
  }
  workload::Trace trace;
  trace.num_cores = cfg.num_cores;
  workload::StreamFactory streams = fuzz_streams(sc);
  if (capture) streams = workload::capture_factory(std::move(streams), &trace);

  ScenarioOutcome out = run_with_factory(sc, cfg, streams);
  if (capture) out.trace = std::move(trace);
  return out;
}

ScenarioOutcome replay_scenario(const FuzzScenario& sc,
                                const workload::Trace& trace) {
  sim::SystemConfig cfg = sc.machine;
  CDSIM_ASSERT_MSG(trace.num_cores == cfg.num_cores,
                   "trace core count does not match the scenario");
  cfg.per_core_instructions = trace.per_core_instructions();
  // Replay is synchronous — the factory dies with this call frame — so
  // alias the caller's trace instead of copying it (the shrinker replays
  // thousands of candidates).
  const auto alias = std::shared_ptr<const workload::Trace>(
      std::shared_ptr<const workload::Trace>(), &trace);
  return run_with_factory(sc, cfg, workload::replay_factory(alias));
}

FuzzReport run_fuzz(const FuzzOptions& opts) {
  FuzzReport rep;
  for (const FuzzScenario& sc : fuzz_matrix(opts)) {
    ScenarioOutcome out = run_scenario(sc, /*capture=*/true);
    ++rep.scenarios_run;
    rep.loads_checked += out.loads_checked;
    rep.fills_checked += out.fills_checked;
    rep.writes_serialized += out.writes_serialized;
    rep.divergences += out.total_divergences;
    rep.owned_downgrades += out.owned_downgrades;

    if (out.total_divergences != 0 && rep.failures.size() < opts.max_failures) {
      FuzzFailure f;
      f.scenario = sc;
      f.divergences = out.divergences;
      f.trace = std::move(out.trace);
      if (opts.shrink_failures) {
        const auto pred = [&sc](const workload::Trace& t) {
          return replay_scenario(sc, t).total_divergences != 0;
        };
        f.shrunk = shrink_trace(f.trace, pred);
      }
      if (!opts.report_dir.empty()) write_failure_report(opts.report_dir, f);
      rep.failures.push_back(std::move(f));
    }
  }
  return rep;
}

}  // namespace cdsim::verify
