#include "cdsim/sim/cmp_system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "cdsim/cache/tag_array.hpp"
#include "cdsim/common/assert.hpp"
#include "cdsim/common/host_timer.hpp"

namespace cdsim::sim {

void validate_system_config(const SystemConfig& cfg) {
  const auto fail = [](const std::string& why) {
    throw std::invalid_argument("SystemConfig: " + why);
  };
  if (cfg.num_cores == 0) fail("num_cores must be at least 1");
  if (cfg.num_cores > 64) {
    fail("num_cores " + std::to_string(cfg.num_cores) +
         " exceeds 64 (the directory's sharer bitmap width)");
  }
  if (cfg.total_l2_bytes == 0 ||
      cfg.total_l2_bytes % cfg.num_cores != 0) {
    fail("total_l2_bytes " + std::to_string(cfg.total_l2_bytes) +
         " is not divisible into " + std::to_string(cfg.num_cores) +
         " per-core slices");
  }
  if (cfg.topology == noc::Topology::kDirectoryMesh &&
      !is_pow2(cfg.num_cores)) {
    fail("num_cores " + std::to_string(cfg.num_cores) +
         " must be a power of two for the mesh tile grid");
  }
  if (!cfg.per_core_instructions.empty() &&
      cfg.per_core_instructions.size() != cfg.num_cores) {
    fail("per_core_instructions has " +
         std::to_string(cfg.per_core_instructions.size()) +
         " entries; expected 0 or num_cores (" +
         std::to_string(cfg.num_cores) + ")");
  }
  // The same geometry rule at every level (cache::Geometry and
  // cache::TagArray assert it): power-of-two size, line and ways, at most
  // cache::kMaxWays ways, and at least one set.
  const auto check_geometry = [&fail](const std::string& size_field,
                                      std::uint64_t size,
                                      const char* line_field,
                                      std::uint32_t line,
                                      const char* ways_field,
                                      std::uint32_t ways) {
    if (!is_pow2(size)) {
      fail(size_field + " " + std::to_string(size) +
           " must be a power of two");
    }
    if (!is_pow2(line) || line < 8) {
      fail(std::string(line_field) + " " + std::to_string(line) +
           " must be a power of two >= 8");
    }
    if (!is_pow2(ways)) {
      fail(std::string(ways_field) + " " + std::to_string(ways) +
           " must be a power of two");
    }
    if (ways > cache::kMaxWays) {
      fail(std::string(ways_field) + " " + std::to_string(ways) +
           " exceeds " + std::to_string(cache::kMaxWays) +
           " (one set's valid bits are one 64-bit word)");
    }
    if (size < static_cast<std::uint64_t>(line) * ways) {
      fail(size_field + " " + std::to_string(size) +
           " is smaller than one set (" + std::to_string(line) +
           " B lines x " + std::to_string(ways) + " ways)");
    }
  };
  check_geometry("l1.size_bytes", cfg.l1.size_bytes, "l1.line_bytes",
                 cfg.l1.line_bytes, "l1.ways", cfg.l1.ways);
  check_geometry("per-core L2 slice (total_l2_bytes / num_cores)",
                 cfg.total_l2_bytes / cfg.num_cores, "l2.line_bytes",
                 cfg.l2.line_bytes, "l2.ways", cfg.l2.ways);
  if (cfg.hierarchy == Hierarchy::kThreeLevel) {
    if (cfg.topology != noc::Topology::kDirectoryMesh) {
      fail("three-level hierarchy requires the directory-mesh topology "
           "(the shared L3 banks live at the mesh home tiles)");
    }
    if (cfg.total_l3_bytes == 0 ||
        cfg.total_l3_bytes % cfg.num_cores != 0) {
      fail("total_l3_bytes " + std::to_string(cfg.total_l3_bytes) +
           " is not divisible into " + std::to_string(cfg.num_cores) +
           " home banks");
    }
    // The bank line size is overridden to the L2's at construction (one
    // coherence/interleave unit); validate with the value actually used.
    check_geometry("per-bank L3 size (total_l3_bytes / num_cores)",
                   cfg.total_l3_bytes / cfg.num_cores, "l2.line_bytes",
                   cfg.l2.line_bytes, "l3.ways", cfg.l3.ways);
  }
  // Counts, widths and latencies the components assert to be nonzero at
  // construction or at first use (l1.max_drains_in_flight = 0 would hang,
  // and l2.retry_interval = 0 would stop simulated time).
  const auto check_nonzero = [&fail](std::uint64_t v, const char* field) {
    if (v == 0) fail(std::string(field) + " must be at least 1");
  };
  if (cfg.per_core_instructions.empty()) {
    check_nonzero(cfg.instructions_per_core, "instructions_per_core");
  }
  for (const std::uint64_t budget : cfg.per_core_instructions) {
    check_nonzero(budget, "every per_core_instructions entry");
  }
  // The core paces issue in exact 1/issue_width-cycle units.
  if (!is_pow2(cfg.core.issue_width)) {
    fail("core.issue_width " + std::to_string(cfg.core.issue_width) +
         " must be a power of two");
  }
  check_nonzero(cfg.core.max_outstanding_loads, "core.max_outstanding_loads");
  check_nonzero(cfg.l1.hit_latency, "l1.hit_latency");
  check_nonzero(cfg.l1.mshr_entries, "l1.mshr_entries");
  check_nonzero(cfg.l1.write_buffer_entries, "l1.write_buffer_entries");
  check_nonzero(cfg.l1.max_drains_in_flight, "l1.max_drains_in_flight");
  check_nonzero(cfg.l2.hit_latency, "l2.hit_latency");
  check_nonzero(cfg.l2.mshr_entries, "l2.mshr_entries");
  check_nonzero(cfg.l2.retry_interval, "l2.retry_interval");
  if (cfg.hierarchy == Hierarchy::kThreeLevel) {
    check_nonzero(cfg.l3.hit_latency, "l3.hit_latency");
  }
  check_nonzero(cfg.mem.bytes_per_cycle, "mem.bytes_per_cycle");
  if (cfg.mem.model == mem::MemoryModel::kDram) {
    const mem::DramConfig& d = cfg.mem.dram;
    check_nonzero(d.channels, "mem.dram.channels");
    check_nonzero(d.ranks_per_channel, "mem.dram.ranks_per_channel");
    check_nonzero(d.banks_per_rank, "mem.dram.banks_per_rank");
    check_nonzero(d.interleave_bytes, "mem.dram.interleave_bytes");
    check_nonzero(d.queue_depth, "mem.dram.queue_depth");
    if (d.row_bytes < d.interleave_bytes) {
      fail("mem.dram.row_bytes " + std::to_string(d.row_bytes) +
           " is smaller than mem.dram.interleave_bytes " +
           std::to_string(d.interleave_bytes));
    }
  }
  if (cfg.mem.tlb.enabled) {
    check_nonzero(cfg.mem.tlb.entries, "mem.tlb.entries");
    check_nonzero(cfg.mem.tlb.page_bytes, "mem.tlb.page_bytes");
  }
  if (cfg.topology == noc::Topology::kSnoopBus) {
    check_nonzero(cfg.bus.bytes_per_cycle, "bus.bytes_per_cycle");
  }
  if (cfg.topology == noc::Topology::kDirectoryMesh) {
    check_nonzero(cfg.dmesh.noc.link_credits, "dmesh.noc.link_credits");
    check_nonzero(cfg.dmesh.noc.flit_bytes, "dmesh.noc.flit_bytes");
    if (cfg.dmesh.mem_tile >= cfg.num_cores) {
      fail("dmesh.mem_tile " + std::to_string(cfg.dmesh.mem_tile) +
           " is not one of the " + std::to_string(cfg.num_cores) +
           " mesh tiles");
    }
  }
  // The same check at every level: a decaying technique needs at least one
  // counter tick per interval, and ticks at least one cycle apart.
  const auto check_decay = [&fail](const decay::DecayConfig& d,
                                   const char* level) {
    if (!decay::uses_decay(d.technique)) return;
    if (d.hierarchical_ticks == 0) {
      fail(std::string(level) + " decay needs hierarchical_ticks >= 1");
    }
    if (d.tick_period() == 0) {
      fail(std::string(level) + " decay technique needs a nonzero tick " +
           "period (decay_time " + std::to_string(d.decay_time) + " / " +
           std::to_string(d.hierarchical_ticks) + " ticks)");
    }
  };
  check_decay(cfg.l1_decay, "L1");
  check_decay(cfg.decay, "L2");
  check_decay(cfg.l3_decay, "L3");
  // The power sampler re-arms every sample_period cycles, and the thermal
  // step and the leakage model divide by the clock and by T0.
  if (cfg.thermal.sample_period == 0) {
    fail("thermal.sample_period must be at least 1 cycle");
  }
  const auto check_positive = [&fail](double v, const char* field) {
    if (!(std::isfinite(v) && v > 0.0)) {
      fail(std::string(field) + " " + std::to_string(v) +
           " must be positive and finite");
    }
  };
  check_positive(cfg.thermal.clock_hz, "thermal.clock_hz");
  check_positive(cfg.leakage.t0_kelvin, "leakage.t0_kelvin");
  // The RC network divides by the lateral resistance and starts every
  // block at ambient, where the leakage model needs a positive temperature.
  check_positive(cfg.thermal.ambient_kelvin, "thermal.ambient_kelvin");
  check_positive(cfg.thermal.lateral_r, "thermal.lateral_r");
  if (!std::isfinite(cfg.leakage.beta)) {
    fail("leakage.beta " + std::to_string(cfg.leakage.beta) +
         " must be finite");
  }
  // The energy ledger only accumulates non-negative contributions.
  const auto check_nonnegative = [&fail](double v, const char* field) {
    if (!(std::isfinite(v) && v >= 0.0)) {
      fail(std::string(field) + " " + std::to_string(v) +
           " must be non-negative and finite");
    }
  };
  check_nonnegative(cfg.thermal.watts_per_eu_cycle,
                    "thermal.watts_per_eu_cycle");
  const power::PowerConfig& pw = cfg.power;
  const std::pair<double, const char*> power_constants[] = {
      {pw.l2_leak_per_line_cycle, "power.l2_leak_per_line_cycle"},
      {pw.gated_vdd_overhead, "power.gated_vdd_overhead"},
      {pw.off_residual_frac, "power.off_residual_frac"},
      {pw.l2_dyn_per_access, "power.l2_dyn_per_access"},
      {pw.l2_dyn_per_fill, "power.l2_dyn_per_fill"},
      {pw.decay_counter_leak_frac, "power.decay_counter_leak_frac"},
      {pw.decay_counter_dyn, "power.decay_counter_dyn"},
      {pw.core_leak_per_cycle, "power.core_leak_per_cycle"},
      {pw.core_dyn_per_instr, "power.core_dyn_per_instr"},
      {pw.l1_leak_per_cycle, "power.l1_leak_per_cycle"},
      {pw.l1_dyn_per_access, "power.l1_dyn_per_access"},
      {pw.bus_dyn_per_byte, "power.bus_dyn_per_byte"},
      {pw.noc_dyn_per_flit_hop, "power.noc_dyn_per_flit_hop"},
      {pw.l3_leak_per_line_cycle, "power.l3_leak_per_line_cycle"},
      {pw.l3_dyn_per_access, "power.l3_dyn_per_access"},
      {pw.l3_dyn_per_fill, "power.l3_dyn_per_fill"},
      {pw.dram_act_energy, "power.dram_act_energy"},
      {pw.dram_pre_energy, "power.dram_pre_energy"},
  };
  for (const auto& [v, field] : power_constants) check_nonnegative(v, field);
}

namespace {

/// Validates before any member is built from the config (the leakage
/// model asserts on its T0).
const SystemConfig& validated(const SystemConfig& cfg) {
  validate_system_config(cfg);
  return cfg;
}

/// §V constants of one cache level, in eu (see power::PowerConfig).
struct LevelRates {
  double leak_per_line;  ///< Per powered line per cycle at T0.
  double dyn_per_access;
  double dyn_per_fill;
};

/// One structure's §V energy over one power-sample window, split the way
/// the ledger books it.
struct LevelEnergy {
  double dyn = 0.0;
  double leak = 0.0;      ///< Powered lines, incl. the Gated-Vdd overhead.
  double off = 0.0;       ///< Residual leakage of gated-off lines.
  double overhead = 0.0;  ///< Decay counters: leakage plus resets.

  [[nodiscard]] double total() const { return dyn + leak + off + overhead; }
};

/// The paper's §V cache model, the same at every level: dynamic energy per
/// access and per fill; leakage of powered lines (+ the Gated-Vdd overhead
/// when the technique gates); residual leakage of gated-off lines; decay
/// counter leakage and resets. `lf` is the temperature factor.
LevelEnergy level_energy(const cache::LevelCounters& prev,
                         const cache::LevelCounters& now, double dtd,
                         const LevelRates& r, const power::PowerConfig& pw,
                         decay::Technique technique, double lf) {
  const double d_acc = static_cast<double>(now.accesses - prev.accesses);
  const double d_fills = static_cast<double>(now.fills - prev.fills);
  const double d_powered = now.powered_line_cycles - prev.powered_line_cycles;
  const double cap_cycles = static_cast<double>(now.capacity_lines) * dtd;
  const bool gated = decay::gates_invalid_lines(technique);

  LevelEnergy e;
  e.dyn = d_acc * r.dyn_per_access + d_fills * r.dyn_per_fill;
  e.leak = d_powered * r.leak_per_line *
           (gated ? 1.0 + pw.gated_vdd_overhead : 1.0) * lf;
  if (gated) {
    e.off = std::max(0.0, cap_cycles - d_powered) * r.leak_per_line *
            pw.off_residual_frac * lf;
  }
  if (decay::uses_decay(technique)) {
    // Per-line counters stay powered regardless of line state, and every
    // access resets one.
    e.overhead =
        cap_cycles * r.leak_per_line * pw.decay_counter_leak_frac * lf +
        d_acc * pw.decay_counter_dyn;
  }
  return e;
}

/// The end-of-run LevelMetrics of a level's summed counters. The caller
/// supplies the occupation: the L2's is the mean of its slices'.
LevelMetrics level_metrics(const cache::LevelCounters& c, double occupation) {
  return {.accesses = c.accesses,
          .hits = c.accesses - c.misses,
          .misses = c.misses,
          .decay_turnoffs = c.decay_turnoffs,
          .decay_induced_misses = c.decay_induced_misses,
          .writebacks = c.writebacks,
          .occupation = occupation};
}

}  // namespace

CmpSystem::CmpSystem(const SystemConfig& cfg, const workload::Benchmark& bench,
                     const workload::StreamFactory& streams)
    : cfg_(validated(cfg)), bench_(bench), leak_model_(cfg.leakage) {

  mem_ = std::make_unique<mem::MemoryController>(eq_, cfg_.mem);
  if (cfg_.topology == noc::Topology::kSnoopBus) {
    bus_ = std::make_unique<bus::SnoopBus>(eq_, cfg_.bus, *mem_);
    ic_ = bus_.get();
  } else {
    noc::DirectoryMeshConfig dcfg = cfg_.dmesh;
    dcfg.home_interleave_bytes = cfg_.l2.line_bytes;
    mesh_ = std::make_unique<noc::DirectoryMesh>(eq_, dcfg, *mem_,
                                                 cfg_.num_cores);
    ic_ = mesh_.get();
  }

  if (cfg_.hierarchy == Hierarchy::kThreeLevel) {
    L3Config l3cfg = cfg_.l3;
    l3cfg.bank_bytes = cfg_.total_l3_bytes / cfg_.num_cores;
    l3cfg.line_bytes = cfg_.l2.line_bytes;  // one coherence/interleave unit
    l3_ = std::make_unique<L3Cache>(eq_, l3cfg, cfg_.l3_decay,
                                    cfg_.num_cores);
    mesh_->attach_l3(l3_.get());
  }

  L2Config l2cfg = cfg_.l2;
  l2cfg.size_bytes = cfg_.total_l2_bytes / cfg_.num_cores;
  l2cfg.protocol = cfg_.protocol;

  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    l1s_.push_back(std::make_unique<L1Cache>(eq_, cfg_.l1, c,
                                             cfg_.l1_decay));
    l2s_.push_back(std::make_unique<L2Cache>(eq_, l2cfg, cfg_.decay, c,
                                             *ic_, l1s_.back().get()));
    l1s_.back()->connect_l2(l2s_.back().get());
    ic_->attach(l2s_.back().get());

    streams_.push_back(streams ? streams(c, cfg_.seed)
                               : workload::make_stream(bench_, c, cfg_.seed));
    const std::uint64_t budget = cfg_.per_core_instructions.empty()
                                     ? cfg_.instructions_per_core
                                     : cfg_.per_core_instructions[c];
    // With TLBs enabled the core loads through the per-core TlbPort, which
    // interposes the walk latency in front of the L1.
    core::LoadStorePort* port = l1s_.back().get();
    if (cfg_.mem.tlb.enabled) {
      tlbs_.push_back(std::make_unique<mem::TlbPort>(eq_, cfg_.mem.tlb,
                                                     *l1s_.back()));
      port = tlbs_.back().get();
    }
    cores_.push_back(std::make_unique<core::CoreModel>(
        eq_, cfg_.core, c, *streams_.back(), *port, budget));
  }
}

CmpSystem::~CmpSystem() = default;

CmpSystem::Books CmpSystem::open_books(const AccountingView& view) const {
  const double slice_mb =
      static_cast<double>(cfg_.total_l2_bytes / cfg_.num_cores) /
      static_cast<double>(MiB);
  Books b{.view = view,
          .floorplan = thermal::make_cmp_floorplan(
              cfg_.thermal, cfg_.num_cores, slice_mb),
          .prev_committed = std::vector<std::uint64_t>(cfg_.num_cores, 0),
          .prev_l1 = std::vector<cache::LevelCounters>(cfg_.num_cores),
          .prev_l2 = std::vector<cache::LevelCounters>(cfg_.num_cores)};
  // Warm-start the thermal network near equilibrium so short runs operate
  // at representative temperatures (see rc_model.hpp header note).
  const double cw = cfg_.thermal.watts_per_eu_cycle;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    const double core_w =
        (cfg_.power.core_leak_per_cycle + cfg_.power.core_dyn_per_instr) * cw;
    b.floorplan.model.warm_start(b.floorplan.core_block(c), core_w);
    const double l2_lines =
        static_cast<double>(l2s_[c]->capacity_lines());
    const double l2_w = l2_lines * cfg_.power.l2_leak_per_line_cycle * cw;
    b.floorplan.model.warm_start(b.floorplan.l2_block(c), l2_w);
  }
  return b;
}

void CmpSystem::set_observer(verify::AccessObserver* obs) {
  CDSIM_ASSERT_MSG(!ran_, "observer must be attached before run()");
  ic_->set_observer(obs);
  for (auto& l1 : l1s_) l1->set_observer(obs);
  for (auto& l2 : l2s_) l2->set_observer(obs);
  if (l3_ != nullptr) l3_->set_observer(obs);
}

void CmpSystem::set_trace_recorder(obs::TraceRecorder* rec) {
  CDSIM_ASSERT_MSG(!ran_, "trace recorder must be attached before run()");
  // Track registration order is fixed (cores, L1s, L2s, fabric, L3, TLBs,
  // then the memory side registers its own bank tracks) so trace files for
  // the same config are structurally identical across runs.
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    cores_[c]->set_trace(rec, rec != nullptr
                                  ? rec->track("core" + std::to_string(c))
                                  : 0);
  }
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    l1s_[c]->set_trace(rec, rec != nullptr
                                ? rec->track("L1." + std::to_string(c))
                                : 0);
  }
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    l2s_[c]->set_trace(rec, rec != nullptr
                                ? rec->track("L2." + std::to_string(c))
                                : 0);
  }
  ic_->set_trace(rec, rec != nullptr ? rec->track("fabric") : 0);
  if (l3_ != nullptr) {
    l3_->set_trace(rec, rec != nullptr ? rec->track("L3") : 0);
  }
  for (CoreId c = 0; c < static_cast<CoreId>(tlbs_.size()); ++c) {
    tlbs_[c]->set_trace(rec, rec != nullptr
                                 ? rec->track("tlb." + std::to_string(c))
                                 : 0);
  }
  mem_->set_trace(rec);
}

void CmpSystem::set_sampler(obs::IntervalSampler* s) {
  CDSIM_ASSERT_MSG(!ran_, "sampler must be attached before run()");
  sampler_ = s;
}

void CmpSystem::sample_window(Cycle wstart, Cycle wend) {
  CDSIM_ASSERT(wend > wstart);
  obs::SampleRow row;
  row.window_start = wstart;
  row.window_end = wend;
  const double dtd = static_cast<double>(wend - wstart);

  const Books& b = books_.front();
  std::uint64_t instr = 0;
  cache::LevelCounters l2;
  double temp_sum = 0.0;
  double temp_max = 0.0;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    instr += cores_[c]->committed();
    l2 += l2s_[c]->counters(wend, b.view.l2.technique);
    const double t = b.floorplan.model.temperature(b.floorplan.l2_block(c));
    temp_sum += t;
    temp_max = std::max(temp_max, t);
  }
  row.instructions = instr - s_prev_instr_;
  row.l2_accesses = l2.accesses - s_prev_l2_.accesses;
  row.l2_misses = l2.misses - s_prev_l2_.misses;
  row.ipc = static_cast<double>(row.instructions) / dtd;
  row.l2_miss_rate = safe_div(static_cast<double>(row.l2_misses),
                              static_cast<double>(row.l2_accesses));
  row.l2_powered_frac =
      (l2.powered_line_cycles - s_prev_l2_.powered_line_cycles) /
      (static_cast<double>(l2.capacity_lines) * dtd);
  row.avg_l2_temp_kelvin = temp_sum / static_cast<double>(cfg_.num_cores);
  row.max_l2_temp_kelvin = temp_max;

  const mem::DramStats& ds = mem_->dram_stats();
  const std::uint64_t row_hits = ds.row_hits;
  const std::uint64_t row_activity =
      ds.row_hits + ds.row_misses + ds.row_conflicts;
  row.dram_row_hit_rate =
      safe_div(static_cast<double>(row_hits - s_prev_row_hits_),
               static_cast<double>(row_activity - s_prev_row_activity_));

  // utilization() is cumulative over [0, now]; busy cycles = util * now,
  // and the window's occupancy is the busy delta over the window length.
  const double fabric_busy =
      ic_->utilization(wend) * static_cast<double>(wend);
  row.fabric_occupancy =
      std::max(0.0, fabric_busy - s_prev_fabric_busy_) / dtd;

  sampler_->push(row);

  s_prev_instr_ = instr;
  s_prev_l2_ = l2;
  s_prev_row_hits_ = row_hits;
  s_prev_row_activity_ = row_activity;
  s_prev_fabric_busy_ = fabric_busy;
}

void CmpSystem::arm_sampler() {
  eq_.schedule_in(cfg_.thermal.sample_period, [this] {
    if (cores_done_ >= cfg_.num_cores) return;  // final sample done in run()
    sample_power(eq_.now());
    arm_sampler();
  });
}

void CmpSystem::sample_power(Cycle upto) {
  CDSIM_ASSERT(upto >= last_sample_);
  const Cycle dt = upto - last_sample_;
  if (dt == 0) return;
  for (Books& b : books_) sample_books(b, upto, static_cast<double>(dt));
  last_sample_ = upto;
}

void CmpSystem::sample_books(Books& b, Cycle upto, double dtd) {
  const auto& pw = cfg_.power;
  const LevelRates l2_rates{pw.l2_leak_per_line_cycle, pw.l2_dyn_per_access,
                            pw.l2_dyn_per_fill};
  // Every level books into its own three components; the decay-counter
  // component is shared, in L1, L2 per core, then L3 order.
  const auto book = [&b](const LevelEnergy& e, power::Component dyn,
                         power::Component leak, power::Component off) {
    b.ledger.add(dyn, e.dyn);
    b.ledger.add(leak, e.leak);
    b.ledger.add(off, e.off);
    b.ledger.add(power::Component::kDecayOverhead, e.overhead);
  };
  thermal::Floorplan& fp = b.floorplan;

  std::vector<double> watts(fp.model.num_blocks(), 0.0);
  const double w_per_eu = cfg_.thermal.watts_per_eu_cycle;

  double bus_energy = 0.0;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    const double t_core = cfg_.thermal_feedback
                              ? fp.model.temperature(fp.core_block(c))
                              : leak_model_.params().t0_kelvin;
    const double t_l2 = cfg_.thermal_feedback
                            ? fp.model.temperature(fp.l2_block(c))
                            : leak_model_.params().t0_kelvin;
    const double lf_core = leak_model_.factor(t_core);

    // --- core ---------------------------------------------------------------
    const std::uint64_t committed = cores_[c]->committed();
    const double d_instr =
        static_cast<double>(committed - b.prev_committed[c]);
    b.prev_committed[c] = committed;
    const double core_dyn = d_instr * pw.core_dyn_per_instr;
    const double core_leak = dtd * pw.core_leak_per_cycle * lf_core;
    b.ledger.add(power::Component::kCoreDynamic, core_dyn);
    b.ledger.add(power::Component::kCoreLeakage, core_leak);

    // --- L1: its per-cache leakage constant spread over its lines ----------
    const cache::LevelCounters l1 =
        l1s_[c]->counters(upto, b.view.l1.technique);
    const LevelRates l1_rates{
        pw.l1_leak_per_cycle / static_cast<double>(l1.capacity_lines),
        pw.l1_dyn_per_access, 0.0};
    const LevelEnergy e1 = level_energy(b.prev_l1[c], l1, dtd, l1_rates, pw,
                                        b.view.l1.technique, lf_core);
    b.prev_l1[c] = l1;
    book(e1, power::Component::kL1Dynamic, power::Component::kL1Leakage,
         power::Component::kL1OffResidual);

    // --- L2 slice (the optimized structure) ---------------------------------
    const cache::LevelCounters l2 =
        l2s_[c]->counters(upto, b.view.l2.technique);
    const LevelEnergy e2 =
        level_energy(b.prev_l2[c], l2, dtd, l2_rates, pw,
                     b.view.l2.technique, leak_model_.factor(t_l2));
    b.prev_l2[c] = l2;
    book(e2, power::Component::kL2Dynamic, power::Component::kL2Leakage,
         power::Component::kL2OffResidual);

    // --- per-block power for the thermal step -------------------------------
    watts[fp.core_block(c)] +=
        (core_dyn + core_leak + e1.dyn + e1.leak + e1.off + e1.overhead) /
        dtd * w_per_eu;
    watts[fp.l2_block(c)] += e2.total() / dtd * w_per_eu;
  }

  if (bus_ != nullptr) {
    const std::uint64_t bus_bytes = bus_->bytes_transferred();
    bus_energy = static_cast<double>(bus_bytes - b.prev_bus_bytes) *
                 pw.bus_dyn_per_byte;
    b.prev_bus_bytes = bus_bytes;
    b.ledger.add(power::Component::kBusDynamic, bus_energy);
  } else {
    // Mesh NoC: dynamic energy scales with link traversals (flit-hops),
    // not payload bytes — more hops, more switching.
    const std::uint64_t fh = mesh_->noc().flit_hops();
    bus_energy = static_cast<double>(fh - b.prev_noc_flit_hops) *
                 pw.noc_dyn_per_flit_hop;
    b.prev_noc_flit_hops = fh;
    b.ledger.add(power::Component::kNocDynamic, bus_energy);
  }
  // --- shared L3 home banks (three-level hierarchy) -------------------------
  if (l3_ != nullptr) {
    // The floorplan has no dedicated L3 blocks; the banks sit on the tiles
    // next to the routers, so their heat is attributed to the interconnect
    // block (documented simplification).
    const double t_l3 = cfg_.thermal_feedback
                            ? fp.model.temperature(fp.bus_block())
                            : leak_model_.params().t0_kelvin;
    const LevelRates l3_rates{pw.l3_leak_per_line_cycle,
                              pw.l3_dyn_per_access, pw.l3_dyn_per_fill};
    const cache::LevelCounters l3 = l3_->counters(upto, b.view.l3.technique);
    const LevelEnergy e3 =
        level_energy(b.prev_l3, l3, dtd, l3_rates, pw, b.view.l3.technique,
                     leak_model_.factor(t_l3));
    b.prev_l3 = l3;
    book(e3, power::Component::kL3Dynamic, power::Component::kL3Leakage,
         power::Component::kL3OffResidual);
    watts[fp.bus_block()] += e3.total() / dtd * w_per_eu;
  }

  watts[fp.bus_block()] += bus_energy / dtd * w_per_eu;

  // Off-chip DRAM command energy (kDram only; flat stats are all zero).
  // Reported in the ledger but never attributed to an on-chip block — the
  // paper's "system" normalization excludes off-chip DRAM (§V, fn. 2).
  if (cfg_.mem.model == mem::MemoryModel::kDram) {
    const mem::DramStats& ds = mem_->dram_stats();
    b.ledger.add(power::Component::kDramActivate,
                 static_cast<double>(ds.activates - b.prev_dram_act) *
                     pw.dram_act_energy);
    b.ledger.add(power::Component::kDramPrecharge,
                 static_cast<double>(ds.precharges - b.prev_dram_pre) *
                     pw.dram_pre_energy);
    b.prev_dram_act = ds.activates;
    b.prev_dram_pre = ds.precharges;
  }

  if (cfg_.thermal_feedback) {
    const double dt_sec =
        dtd / cfg_.thermal.clock_hz;
    fp.model.step(dt_sec, watts);
  }
}

RunMetrics CmpSystem::run() { return run({AccountingView::of(cfg_)}).front(); }

std::vector<RunMetrics> CmpSystem::run(
    const std::vector<AccountingView>& views) {
  CDSIM_ASSERT_MSG(!ran_, "CmpSystem::run() may be called once");
  if (views.empty()) {
    throw std::invalid_argument("CmpSystem::run: no accounting view");
  }
  const auto triple = [](const AccountingView& v) {
    return "L1 " + v.l1.label() + " / L2 " + v.l2.label() + " / L3 " +
           v.l3.label();
  };
  for (const AccountingView& v : views) {
    if (!decay::same_timing(v.l1, cfg_.l1_decay) ||
        !decay::same_timing(v.l2, cfg_.decay) ||
        !decay::same_timing(v.l3, cfg_.l3_decay)) {
      throw std::invalid_argument(
          "CmpSystem::run: view (" + triple(v) +
          ") is outside the timing class of the run (" +
          triple(AccountingView::of(cfg_)) + ")");
    }
  }
  ran_ = true;
  books_.reserve(views.size());
  for (const AccountingView& v : views) books_.push_back(open_books(v));

  for (auto& l1 : l1s_) l1->start();
  for (auto& l2 : l2s_) l2->start();
  if (l3_ != nullptr) l3_->start();
  for (auto& core : cores_) {
    core->start([this] { ++cores_done_; });
  }
  arm_sampler();
  if (sampler_ != nullptr) {
    sampler_wstart_ = 0;
    sampler_next_ = sampler_->period();
  }

  {
    // Inclusive run-loop total for the host profiler; the subsystem scopes
    // (decay sweep, fabric, DRAM, oracle) nest inside it.
    const prof::ScopedPhase dispatch_scope(prof::Phase::kEventDispatch);
    while (cores_done_ < cfg_.num_cores) {
      const bool progressed = eq_.step();
      CDSIM_ASSERT_MSG(progressed, "deadlock: event queue drained early");
      if (sampler_ != nullptr) {
        // Loop-driven, never event-driven: emitting a window cannot change
        // the event schedule, so the golden pins hold with a sampler
        // attached. Boundaries quantize to event execution times.
        while (eq_.now() >= sampler_next_) {
          sample_window(sampler_wstart_, sampler_next_);
          sampler_wstart_ = sampler_next_;
          sampler_next_ += sampler_->period();
        }
      }
    }
  }

  const Cycle end = eq_.now();
  if (sampler_ != nullptr && end > sampler_wstart_) {
    sample_window(sampler_wstart_, end);  // final partial window
  }
  sample_power(end);  // close the final partial window
  for (auto& l1 : l1s_) l1->stop();
  for (auto& l2 : l2s_) l2->stop();
  if (l3_ != nullptr) l3_->stop();
  std::vector<RunMetrics> out;
  out.reserve(books_.size());
  for (const Books& b : books_) out.push_back(collect(b, end));
  return out;
}

RunMetrics CmpSystem::collect(const Books& b, Cycle end) const {
  RunMetrics m;
  m.benchmark = bench_.config.name;
  m.technique = b.view.l2.label();
  m.total_l2_bytes = cfg_.total_l2_bytes;
  m.cycles = end;

  cache::LevelCounters l1;
  cache::LevelCounters l2;
  double occ_sum = 0.0;
  double lat_sum = 0.0;
  std::uint64_t lat_n = 0;
  double temp_sum = 0.0;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    m.instructions += cores_[c]->committed();
    l1 += l1s_[c]->counters(end, b.view.l1.technique);
    const cache::LevelCounters slice =
        l2s_[c]->counters(end, b.view.l2.technique);
    occ_sum += slice.occupation(end);
    l2 += slice;
    const auto& h = cores_[c]->load_latency();
    lat_sum += h.mean() * static_cast<double>(h.count());
    lat_n += h.count();
    temp_sum += b.floorplan.model.temperature(b.floorplan.l2_block(c));
  }
  m.ipc = safe_div(static_cast<double>(m.instructions),
                   static_cast<double>(end));
  // Fig. 3(a): the mean of the slices' occupations.
  m.l2_occupation = occ_sum / static_cast<double>(cfg_.num_cores);
  m.l2_accesses = l2.accesses;
  m.l2_misses = l2.misses;
  m.l2_decay_turnoffs = l2.decay_turnoffs;
  m.l2_decay_induced_misses = l2.decay_induced_misses;
  m.l2_coherence_invals = l2.coherence_invals;
  m.l2_writebacks = l2.writebacks;
  m.l2_miss_rate = safe_div(static_cast<double>(m.l2_misses),
                            static_cast<double>(m.l2_accesses));
  m.amat = safe_div(lat_sum, static_cast<double>(lat_n));
  m.mem_bytes = mem_->total_bytes();
  m.mem_bandwidth = mem_->bandwidth(end);
  m.energy = b.ledger.total();
  m.ledger = b.ledger;
  m.avg_l2_temp_kelvin = temp_sum / static_cast<double>(cfg_.num_cores);
  m.bus_utilization = ic_->utilization(end);
  m.topology = std::string(noc::to_string(cfg_.topology));
  if (mesh_ != nullptr) {
    m.noc_flit_hops = mesh_->noc().flit_hops();
    m.noc_avg_packet_latency = mesh_->noc().avg_packet_latency();
    m.dir_directed_snoops = mesh_->directory().stats().directed_snoops.value();
    m.dir_recalls = mesh_->recalls();
    m.dir_deferrals = mesh_->deferrals();
  }

  // --- per-level attribution ------------------------------------------------
  m.hierarchy = std::string(to_string(cfg_.hierarchy));
  m.l1 = level_metrics(l1, l1.occupation(end));
  m.l2 = level_metrics(l2, m.l2_occupation);
  if (l3_ != nullptr) {
    m.total_l3_bytes = cfg_.total_l3_bytes;
    const cache::LevelCounters l3 = l3_->counters(end, b.view.l3.technique);
    m.l3 = level_metrics(l3, l3.occupation(end));
  }

  // --- memory side ----------------------------------------------------------
  m.mem_model = std::string(mem::to_string(cfg_.mem.model));
  const mem::DramStats& ds = mem_->dram_stats();
  m.dram_row_hits = ds.row_hits;
  m.dram_row_misses = ds.row_misses;
  m.dram_row_conflicts = ds.row_conflicts;
  m.dram_activates = ds.activates;
  m.dram_precharges = ds.precharges;
  m.dram_refreshes = ds.refreshes;
  m.dram_write_forwards = ds.write_forwards;
  for (const auto& t : tlbs_) {
    m.tlb_hits += t->tlb().hits();
    m.tlb_misses += t->tlb().misses();
  }
  return m;
}

std::uint64_t CmpSystem::check_coherence_invariants() const {
  using coherence::MesiState;
  std::uint64_t checked = 0;

  // Single-writer: a line owned (M/E/TD) by one L2 must not be valid in any
  // other L2. Lines mid-fill (`fetching`) still expose their installed
  // state, so this holds at every instant of the simulation.
  //
  // MOESI relaxations: an Owned line coexists with remote Shared copies
  // (but never with another dirty/exclusive owner), and a TransientDirty
  // line may coexist with Shared copies while an O turn-off's
  // ownership-revocation broadcast is still queued.
  const bool moesi = cfg_.protocol == coherence::Protocol::kMoesi;
  for (CoreId a = 0; a < cfg_.num_cores; ++a) {
    l2s_[a]->for_each_valid_line([&](Addr line, MesiState sa) {
      ++checked;
      const bool exclusive_owner = sa == MesiState::kModified ||
                                   sa == MesiState::kExclusive ||
                                   sa == MesiState::kTransientDirty;
      const bool shared_owner = sa == MesiState::kOwned;
      if (!exclusive_owner && !shared_owner) return;
      for (CoreId b = 0; b < cfg_.num_cores; ++b) {
        if (b == a) continue;
        const MesiState sb = l2s_[b]->line_state(line);
        if (exclusive_owner &&
            (!moesi || sa != MesiState::kTransientDirty)) {
          CDSIM_ASSERT_MSG(sb == MesiState::kInvalid,
                           "single-writer invariant violated");
        } else {
          // Owned (or MOESI TD mid-revocation): S replicas are legal —
          // including one frozen mid clean-turn-off (TC; the run can end
          // inside the 2-cycle InvUpp window) — a second owner of any
          // flavor is not.
          CDSIM_ASSERT_MSG(sb == MesiState::kInvalid ||
                               sb == MesiState::kShared ||
                               sb == MesiState::kTransientClean,
                           "single-owner invariant violated");
        }
      }
    });
  }

  // Inclusion: every valid L1 line must be backed by a data-holding line in
  // its private L2.
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    l1s_[c]->for_each_valid_line([&](Addr line) {
      ++checked;
      const MesiState s = l2s_[c]->line_state(line);
      CDSIM_ASSERT_MSG(coherence::holds_data(s),
                       "inclusion invariant violated");
    });
  }

  // Directory tracking: every valid L2 copy must be a tracked sharer at its
  // home, and every exclusive-flavored holder must be the recorded owner
  // (kept exact by grant-time probes + clean-drop notifications).
  if (mesh_ != nullptr) {
    const coherence::Directory& dir = mesh_->directory();
    for (CoreId c = 0; c < cfg_.num_cores; ++c) {
      l2s_[c]->for_each_valid_line([&](Addr line, MesiState s) {
        ++checked;
        const coherence::DirectoryEntry* e = dir.find(line);
        CDSIM_ASSERT_MSG(e != nullptr && e->tracked(c),
                         "directory lost a live sharer");
        if (s == MesiState::kExclusive || s == MesiState::kModified ||
            s == MesiState::kOwned || s == MesiState::kTransientDirty) {
          CDSIM_ASSERT_MSG(e->owner == c, "directory owner out of sync");
        }
      });
    }
  }
  return checked;
}

}  // namespace cdsim::sim
