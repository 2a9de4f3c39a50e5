#include "cdsim/verify/fuzz.hpp"

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "cdsim/common/assert.hpp"
#include "cdsim/verify/shrink.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "cdsim/workload/trace_v2.hpp"

namespace cdsim::verify {

namespace {

/// One cell of the (protocol x technique-config x topology x hierarchy x
/// program-mix) matrix. Decay times are deliberately tiny (the fuzzer's
/// runs are tens of thousands of cycles): small windows mean *more*
/// turn-off edges per instruction, which is the point. The blocks: the
/// historical 4-core snoop-bus matrix, the directory mesh at 16 (MESI)
/// and 8 (MOESI, asymmetric 4x2 mesh) cores with the hot-home-node NoC
/// stressor, the three-level shared-L3 machines, and the multi-program
/// rate-mode mixes (heterogeneous tenants, skewed budgets).
struct MatrixCell {
  coherence::Protocol protocol;
  decay::Technique technique;
  Cycle decay_time;
  noc::Topology topology = noc::Topology::kSnoopBus;
  std::uint32_t num_cores = 4;
  sim::Hierarchy hierarchy = sim::Hierarchy::kTwoLevel;
  std::uint32_t programs = 0;  ///< Multi-program cell (see FuzzScenario).
  /// kDram cells run banked DRAM + TLBs; values must match flat exactly.
  mem::MemoryModel mem_model = mem::MemoryModel::kFlat;
};

constexpr Cycle kDecayTimes[3] = {1024, 2048, 4096};

std::vector<MatrixCell> matrix_cells(bool dmesh_only,
                                     bool three_level_only) {
  std::vector<MatrixCell> cells;
  const auto add_block =
      [&cells](coherence::Protocol protocol, noc::Topology topo,
               std::uint32_t cores,
               sim::Hierarchy h = sim::Hierarchy::kTwoLevel,
               std::uint32_t programs = 0,
               mem::MemoryModel mm = mem::MemoryModel::kFlat) {
        cells.push_back({protocol, decay::Technique::kBaseline, 2048, topo,
                         cores, h, programs, mm});
        cells.push_back({protocol, decay::Technique::kProtocol, 2048, topo,
                         cores, h, programs, mm});
        for (const Cycle t : kDecayTimes) {
          cells.push_back({protocol, decay::Technique::kDecay, t, topo,
                           cores, h, programs, mm});
        }
        for (const Cycle t : kDecayTimes) {
          cells.push_back({protocol, decay::Technique::kSelectiveDecay, t,
                           topo, cores, h, programs, mm});
        }
      };
  if (three_level_only) {
    // The CI three-level smoke gate: shared-L3 cells only, both protocols,
    // decay at all three levels — plus a DRAM-backed round so the banked
    // memory model is oracle-checked below the L3 too.
    add_block(coherence::Protocol::kMesi, noc::Topology::kDirectoryMesh, 16,
              sim::Hierarchy::kThreeLevel);
    add_block(coherence::Protocol::kMoesi, noc::Topology::kDirectoryMesh, 8,
              sim::Hierarchy::kThreeLevel);
    add_block(coherence::Protocol::kMoesi, noc::Topology::kDirectoryMesh, 8,
              sim::Hierarchy::kThreeLevel, /*programs=*/0,
              mem::MemoryModel::kDram);
    return cells;
  }
  if (!dmesh_only) {
    add_block(coherence::Protocol::kMesi, noc::Topology::kSnoopBus, 4);
    add_block(coherence::Protocol::kMoesi, noc::Topology::kSnoopBus, 4);
    add_block(coherence::Protocol::kMesi, noc::Topology::kDirectoryMesh, 16);
    add_block(coherence::Protocol::kMoesi, noc::Topology::kDirectoryMesh, 8);
    // Three-level hierarchy: private L2s behind the shared home-banked L3,
    // with the cell's technique active at L1, L2, AND L3.
    add_block(coherence::Protocol::kMesi, noc::Topology::kDirectoryMesh, 16,
              sim::Hierarchy::kThreeLevel);
    add_block(coherence::Protocol::kMoesi, noc::Topology::kDirectoryMesh, 8,
              sim::Hierarchy::kThreeLevel);
    // Multi-program rate-mode mixes: heterogeneous fuzzer personalities
    // co-scheduled on one machine with a hot-tenant budget skew, so the
    // oracle shadows cores that retire at different times while sharing
    // the directory and NoC.
    add_block(coherence::Protocol::kMesi, noc::Topology::kDirectoryMesh, 16,
              sim::Hierarchy::kTwoLevel, /*programs=*/4);
    add_block(coherence::Protocol::kMoesi, noc::Topology::kDirectoryMesh, 8,
              sim::Hierarchy::kThreeLevel, /*programs=*/3);
    // DRAM-backed rounds: the same hostile mixes with the banked DRAM
    // controller and per-core TLBs behind the fabric. Flat vs. DRAM may
    // diverge only in timing — the oracle proves values never do.
    add_block(coherence::Protocol::kMesi, noc::Topology::kSnoopBus, 4,
              sim::Hierarchy::kTwoLevel, /*programs=*/0,
              mem::MemoryModel::kDram);
    add_block(coherence::Protocol::kMoesi, noc::Topology::kDirectoryMesh, 8,
              sim::Hierarchy::kTwoLevel, /*programs=*/0,
              mem::MemoryModel::kDram);
    add_block(coherence::Protocol::kMesi, noc::Topology::kDirectoryMesh, 16,
              sim::Hierarchy::kThreeLevel, /*programs=*/0,
              mem::MemoryModel::kDram);
  } else {
    // The CI many-core smoke gate: 16-core mesh only, both protocols, and
    // a DRAM-backed round of the MESI cells.
    add_block(coherence::Protocol::kMesi, noc::Topology::kDirectoryMesh, 16);
    add_block(coherence::Protocol::kMoesi, noc::Topology::kDirectoryMesh,
              16);
    add_block(coherence::Protocol::kMesi, noc::Topology::kDirectoryMesh, 16,
              sim::Hierarchy::kTwoLevel, /*programs=*/0,
              mem::MemoryModel::kDram);
  }
  return cells;
}

}  // namespace

std::string FuzzScenario::label() const {
  std::ostringstream os;
  os << "fuzz#" << index << "/" << coherence::to_string(protocol) << "/"
     << noc::to_string(topology) << num_cores << "/"
     << sim::to_string(hierarchy) << "/" << decay.label()
     << "/l2=" << total_l2_bytes / KiB << "K";
  if (hierarchy == sim::Hierarchy::kThreeLevel) {
    os << "/l3=" << total_l3_bytes / KiB << "K";
  }
  if (programs > 0) os << "/progs=" << programs;
  if (mem_model == mem::MemoryModel::kDram) os << "/dram";
  os << "/seed=" << seed;
  if (inject_writeback_loss) os << "/INJECTED-WB-LOSS";
  return os.str();
}

sim::SystemConfig FuzzScenario::system_config() const {
  sim::SystemConfig cfg;
  cfg.num_cores = num_cores;
  cfg.topology = topology;
  cfg.hierarchy = hierarchy;
  cfg.total_l2_bytes = total_l2_bytes;
  cfg.protocol = protocol;
  cfg.decay = decay;
  if (!decay::uses_decay(cfg.decay.technique)) cfg.decay.decay_time = 0;
  // A small L1 keeps the L2 (where all the turn-off machinery lives) in
  // the line of fire instead of swallowing the whole footprint.
  cfg.l1.size_bytes = 8 * KiB;
  if (hierarchy == sim::Hierarchy::kThreeLevel) {
    // Decay at EVERY level: the scenario's technique runs in the L1 front
    // ends and the shared L3 banks too, so the oracle sees turn-off edges
    // at all three levels interleaved.
    cfg.total_l3_bytes = total_l3_bytes;
    cfg.l1_decay = cfg.decay;
    cfg.l3_decay = cfg.decay;
    // Small banks so L3 evictions and decay churn within the run.
    cfg.l3.ways = 8;
  }
  if (mem_model == mem::MemoryModel::kDram) {
    cfg.mem.model = mem::MemoryModel::kDram;
    // Per-core TLBs ride along in DRAM cells. Tiny capacity plus a short
    // refresh interval so walks, refresh stalls, and row-buffer churn all
    // fire within a 30k-instruction run.
    cfg.mem.tlb.enabled = true;
    cfg.mem.tlb.entries = 16;
    cfg.mem.dram.t_refi = 4096;
    cfg.mem.dram.t_rfc = 64;
  }
  cfg.instructions_per_core = instructions_per_core;
  if (programs > 0) {
    // Rate-mode hot-tenant skew: program 0's cores get a doubled budget,
    // so they keep issuing after the other tenants retire and the oracle
    // shadows a machine whose cores finish at different times.
    cfg.per_core_instructions.assign(num_cores, instructions_per_core);
    for (std::uint32_t c = 0; c < num_cores; c += programs) {
      cfg.per_core_instructions[c] = 2 * instructions_per_core;
    }
  }
  cfg.seed = seed;
  return cfg;
}

std::vector<FuzzScenario> fuzz_matrix(const FuzzOptions& opts) {
  const std::vector<MatrixCell> cells =
      matrix_cells(opts.dmesh_only, opts.three_level_only);
  std::vector<FuzzScenario> out;
  out.reserve(opts.scenarios);
  for (std::size_t i = 0; i < opts.scenarios; ++i) {
    const MatrixCell& cell = cells[i % cells.size()];
    FuzzScenario sc;
    sc.index = i;
    sc.protocol = cell.protocol;
    sc.topology = cell.topology;
    sc.hierarchy = cell.hierarchy;
    sc.decay = decay::DecayConfig{cell.technique, cell.decay_time, 4};
    sc.num_cores = cell.num_cores;
    sc.programs = cell.programs;
    sc.mem_model = cell.mem_model;
    // Alternate slice pressure between rounds of the matrix (32 KiB or
    // 64 KiB per core, matching the historical 4-core 128K/256K totals).
    const std::uint64_t per_core =
        ((i / cells.size()) % 2 == 0) ? 32 * KiB : 64 * KiB;
    sc.total_l2_bytes = per_core * sc.num_cores;
    if (cell.hierarchy == sim::Hierarchy::kThreeLevel) {
      // A 4x-L2 shared L3: big enough to filter refetches, small enough
      // that bank evictions and L3 decay churn within the run.
      sc.total_l3_bytes = 4 * sc.total_l2_bytes;
    }
    sc.instructions_per_core = opts.instructions_per_core;
    sc.seed = opts.base_seed + i;
    sc.fuzz.num_cores = sc.num_cores;
    sc.fuzz.decay_window = cell.decay_time;
    if (cell.topology == noc::Topology::kDirectoryMesh) {
      // NoC stressors: hot-home-node contention (all cores hammering one
      // directory bank) rebalanced against the private-churn remainder.
      sc.fuzz.w_hot_home = 0.18;
      sc.fuzz.home_tiles = sc.num_cores;
    }
    sc.inject_writeback_loss = opts.inject_writeback_loss;
    out.push_back(std::move(sc));
  }
  return out;
}

namespace {

ScenarioOutcome run_with_factory(const FuzzScenario& sc,
                                 sim::SystemConfig cfg,
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

}  // namespace

ScenarioOutcome run_scenario(const FuzzScenario& sc, bool capture) {
  sim::SystemConfig cfg = sc.system_config();
  workload::Trace trace;
  trace.num_cores = cfg.num_cores;

  const workload::FuzzerConfig& fc = sc.fuzz;
  workload::StreamFactory base;
  if (sc.programs == 0) {
    base = [&fc](CoreId core, std::uint64_t seed) {
      return std::make_unique<workload::FuzzerWorkload>(fc, core, seed);
    };
  } else {
    // Multi-program cell: core c runs personality c % programs. Each
    // personality leans on different machinery, and its seed is mixed
    // with the program index so tenants sharing a seed still draw
    // distinct streams.
    const std::uint32_t programs = sc.programs;
    base = [&fc, programs](CoreId core, std::uint64_t seed) {
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
          pc, core, seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
    };
  }
  const workload::StreamFactory factory =
      capture ? workload::capture_factory(std::move(base), &trace) : base;

  ScenarioOutcome out = run_with_factory(sc, cfg, factory);
  if (capture) out.trace = std::move(trace);
  return out;
}

ScenarioOutcome replay_scenario(const FuzzScenario& sc,
                                const workload::Trace& trace) {
  sim::SystemConfig cfg = sc.system_config();
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

namespace {

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
      << "captured trace: " << f.trace.records.size() << " ops"
      << (full_ok ? "" : " (SAVE FAILED)") << "\n"
      << "shrunken trace: " << f.shrunk.records.size() << " ops"
      << (min_ok ? "" : " (not saved)") << "\n"
      << "divergences (first " << f.divergences.size() << "):\n";
  for (const Divergence& d : f.divergences) {
    rep << "  " << to_string(d) << "\n";
  }
  rep << "\nreplay: read the .cdt with workload::open_trace_source into a\n"
         "workload::Trace, rebuild the scenario config (label above), and\n"
         "run verify::replay_scenario.\n";
}

}  // namespace

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
