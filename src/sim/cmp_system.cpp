#include "cdsim/sim/cmp_system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

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
    const std::uint64_t bank = cfg.total_l3_bytes / cfg.num_cores;
    if (!is_pow2(bank)) {
      fail("per-bank L3 size " + std::to_string(bank) +
           " must be a power of two");
    }
    // The bank line size is overridden to the L2's at construction (one
    // coherence/interleave unit); validate with the value actually used.
    if (bank < static_cast<std::uint64_t>(cfg.l2.line_bytes) * cfg.l3.ways) {
      fail("per-bank L3 size " + std::to_string(bank) +
           " is smaller than one set (" +
           std::to_string(cfg.l2.line_bytes) + " B lines x " +
           std::to_string(cfg.l3.ways) + " ways)");
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
}

CmpSystem::CmpSystem(const SystemConfig& cfg, const workload::Benchmark& bench,
                     const workload::StreamFactory& streams)
    : cfg_(cfg), bench_(bench), leak_model_(cfg.leakage) {
  validate_system_config(cfg_);

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

  const double slice_mb = static_cast<double>(l2cfg.size_bytes) /
                          static_cast<double>(MiB);
  floorplan_ = std::make_unique<thermal::Floorplan>(
      thermal::make_cmp_floorplan(cfg_.thermal, cfg_.num_cores, slice_mb));

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

  // Warm-start the thermal network near equilibrium so short runs operate
  // at representative temperatures (see rc_model.hpp header note).
  const double cw = cfg_.thermal.watts_per_eu_cycle;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    const double core_w =
        (cfg_.power.core_leak_per_cycle + cfg_.power.core_dyn_per_instr) * cw;
    floorplan_->model.warm_start(floorplan_->core_block(c), core_w);
    const double l2_lines =
        static_cast<double>(l2s_[c]->capacity_lines());
    const double l2_w = l2_lines * cfg_.power.l2_leak_per_line_cycle * cw;
    floorplan_->model.warm_start(floorplan_->l2_block(c), l2_w);
  }

  prev_committed_.assign(cfg_.num_cores, 0);
  prev_l1_acc_.assign(cfg_.num_cores, 0);
  prev_l1_powered_.assign(cfg_.num_cores, 0.0);
  prev_l2_acc_.assign(cfg_.num_cores, 0);
  prev_l2_fills_.assign(cfg_.num_cores, 0);
  prev_l2_powered_.assign(cfg_.num_cores, 0.0);
}

CmpSystem::~CmpSystem() = default;

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
  const obs::TrackId fabric =
      rec != nullptr ? rec->track("fabric") : 0;
  if (bus_ != nullptr) bus_->set_trace(rec, fabric);
  if (mesh_ != nullptr) mesh_->set_trace(rec, fabric);
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

  std::uint64_t instr = 0;
  std::uint64_t l2a = 0;
  std::uint64_t l2m = 0;
  double powered = 0.0;
  double cap_lines = 0.0;
  double temp_sum = 0.0;
  double temp_max = 0.0;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    instr += cores_[c]->committed();
    const auto& st = l2s_[c]->stats();
    l2a += st.accesses();
    l2m += st.misses();
    powered += l2s_[c]->powered_line_cycles(wend);
    cap_lines += static_cast<double>(l2s_[c]->capacity_lines());
    const double t =
        floorplan_->model.temperature(floorplan_->l2_block(c));
    temp_sum += t;
    temp_max = std::max(temp_max, t);
  }
  row.instructions = instr - s_prev_instr_;
  row.l2_accesses = l2a - s_prev_l2_acc_;
  row.l2_misses = l2m - s_prev_l2_miss_;
  row.ipc = static_cast<double>(row.instructions) / dtd;
  row.l2_miss_rate = safe_div(static_cast<double>(row.l2_misses),
                              static_cast<double>(row.l2_accesses));
  row.l2_powered_frac = (powered - s_prev_l2_powered_) / (cap_lines * dtd);
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
  s_prev_l2_acc_ = l2a;
  s_prev_l2_miss_ = l2m;
  s_prev_l2_powered_ = powered;
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
  const double dtd = static_cast<double>(dt);
  const auto& pw = cfg_.power;
  const bool gated = decay::gates_invalid_lines(cfg_.decay.technique);
  const bool decaying = decay::uses_decay(cfg_.decay.technique);

  std::vector<double> watts(floorplan_->model.num_blocks(), 0.0);
  const double w_per_eu = cfg_.thermal.watts_per_eu_cycle;

  double bus_energy = 0.0;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    const double t_core = cfg_.thermal_feedback
                              ? floorplan_->model.temperature(
                                    floorplan_->core_block(c))
                              : leak_model_.params().t0_kelvin;
    const double t_l2 = cfg_.thermal_feedback
                            ? floorplan_->model.temperature(
                                  floorplan_->l2_block(c))
                            : leak_model_.params().t0_kelvin;

    // --- core ---------------------------------------------------------------
    const std::uint64_t committed = cores_[c]->committed();
    const double d_instr =
        static_cast<double>(committed - prev_committed_[c]);
    prev_committed_[c] = committed;
    const double core_dyn = d_instr * pw.core_dyn_per_instr;
    const double core_leak =
        dtd * pw.core_leak_per_cycle * leak_model_.factor(t_core);
    ledger_.add(power::Component::kCoreDynamic, core_dyn);
    ledger_.add(power::Component::kCoreLeakage, core_leak);

    // --- L1 -------------------------------------------------------------------
    const std::uint64_t l1a = l1s_[c]->accesses();
    const double d_l1 = static_cast<double>(l1a - prev_l1_acc_[c]);
    prev_l1_acc_[c] = l1a;
    const double l1_dyn = d_l1 * pw.l1_dyn_per_access;
    double l1_leak;
    double l1_off_leak = 0.0;
    double l1_decay_ovh = 0.0;
    if (!decay::gates_invalid_lines(cfg_.l1_decay.technique)) {
      // Always-on L1 (the historical model): flat per-cycle leakage.
      l1_leak = dtd * pw.l1_leak_per_cycle * leak_model_.factor(t_core);
    } else {
      // Gated L1 (l1_decay active): only powered lines leak, scaled from
      // the same per-cache constant, plus the gated-off residual and the
      // decay counter overhead — the L2's leakage model applied at level 1,
      // with the same per-component ledger split (on-leak vs off-residual).
      const double per_line =
          pw.l1_leak_per_cycle /
          static_cast<double>(l1s_[c]->capacity_lines());
      const double cap_cycles_l1 =
          static_cast<double>(l1s_[c]->capacity_lines()) * dtd;
      const double powered_l1 = l1s_[c]->powered_line_cycles(upto);
      const double d_powered_l1 = powered_l1 - prev_l1_powered_[c];
      prev_l1_powered_[c] = powered_l1;
      const double lf1 = leak_model_.factor(t_core);
      l1_leak =
          d_powered_l1 * per_line * (1.0 + pw.gated_vdd_overhead) * lf1;
      l1_off_leak = std::max(0.0, cap_cycles_l1 - d_powered_l1) * per_line *
                    pw.off_residual_frac * lf1;
      ledger_.add(power::Component::kL1OffResidual, l1_off_leak);
      if (decay::uses_decay(cfg_.l1_decay.technique)) {
        l1_decay_ovh = cap_cycles_l1 * per_line *
                           pw.decay_counter_leak_frac * lf1 +
                       d_l1 * pw.decay_counter_dyn;
        ledger_.add(power::Component::kDecayOverhead, l1_decay_ovh);
      }
    }
    ledger_.add(power::Component::kL1Dynamic, l1_dyn);
    ledger_.add(power::Component::kL1Leakage, l1_leak);

    // --- L2 dynamic --------------------------------------------------------------
    const std::uint64_t l2a = l2s_[c]->stats().accesses();
    const std::uint64_t l2f = l2s_[c]->fills();
    const double d_l2a = static_cast<double>(l2a - prev_l2_acc_[c]);
    const double d_l2f = static_cast<double>(l2f - prev_l2_fills_[c]);
    prev_l2_acc_[c] = l2a;
    prev_l2_fills_[c] = l2f;
    const double l2_dyn =
        d_l2a * pw.l2_dyn_per_access + d_l2f * pw.l2_dyn_per_fill;
    ledger_.add(power::Component::kL2Dynamic, l2_dyn);

    // --- L2 leakage (the optimized component) -------------------------------------
    const double cap_cycles =
        static_cast<double>(l2s_[c]->capacity_lines()) * dtd;
    const double powered = l2s_[c]->powered_line_cycles(upto);
    const double d_powered = powered - prev_l2_powered_[c];
    prev_l2_powered_[c] = powered;
    const double lf = leak_model_.factor(t_l2);
    const double gating_mult = gated ? (1.0 + pw.gated_vdd_overhead) : 1.0;
    const double on_leak =
        d_powered * pw.l2_leak_per_line_cycle * gating_mult * lf;
    ledger_.add(power::Component::kL2Leakage, on_leak);
    double off_leak = 0.0;
    if (gated) {
      const double off_cycles = std::max(0.0, cap_cycles - d_powered);
      off_leak = off_cycles * pw.l2_leak_per_line_cycle *
                 pw.off_residual_frac * lf;
      ledger_.add(power::Component::kL2OffResidual, off_leak);
    }

    // --- decay hardware overhead ------------------------------------------------------
    double decay_ovh = 0.0;
    if (decaying) {
      // Per-line counters stay powered regardless of line state, and every
      // L2 access resets one.
      decay_ovh = cap_cycles * pw.l2_leak_per_line_cycle *
                      pw.decay_counter_leak_frac * lf +
                  d_l2a * pw.decay_counter_dyn;
      ledger_.add(power::Component::kDecayOverhead, decay_ovh);
    }

    // --- per-block power for the thermal step -----------------------------------------
    watts[floorplan_->core_block(c)] +=
        (core_dyn + core_leak + l1_dyn + l1_leak + l1_off_leak +
         l1_decay_ovh) /
        dtd * w_per_eu;
    watts[floorplan_->l2_block(c)] +=
        (l2_dyn + on_leak + off_leak + decay_ovh) / dtd * w_per_eu;
  }

  if (bus_ != nullptr) {
    const std::uint64_t bus_bytes = bus_->bytes_transferred();
    bus_energy = static_cast<double>(bus_bytes - prev_bus_bytes_) *
                 pw.bus_dyn_per_byte;
    prev_bus_bytes_ = bus_bytes;
    ledger_.add(power::Component::kBusDynamic, bus_energy);
  } else {
    // Mesh NoC: dynamic energy scales with link traversals (flit-hops),
    // not payload bytes — more hops, more switching.
    const std::uint64_t fh = mesh_->noc().flit_hops();
    bus_energy = static_cast<double>(fh - prev_noc_flit_hops_) *
                 pw.noc_dyn_per_flit_hop;
    prev_noc_flit_hops_ = fh;
    ledger_.add(power::Component::kNocDynamic, bus_energy);
  }
  // --- shared L3 home banks (three-level hierarchy) -------------------------
  if (l3_ != nullptr) {
    const bool l3_gated = decay::gates_invalid_lines(cfg_.l3_decay.technique);
    const bool l3_decaying = decay::uses_decay(cfg_.l3_decay.technique);
    // The floorplan has no dedicated L3 blocks; the banks sit on the tiles
    // next to the routers, so their heat is attributed to the interconnect
    // block (documented simplification).
    const double t_l3 = cfg_.thermal_feedback
                            ? floorplan_->model.temperature(
                                  floorplan_->bus_block())
                            : leak_model_.params().t0_kelvin;
    const double lf3 = leak_model_.factor(t_l3);

    const std::uint64_t l3a = l3_->accesses();
    const std::uint64_t l3f = l3_->fills();
    const double d_l3a = static_cast<double>(l3a - prev_l3_acc_);
    const double d_l3f = static_cast<double>(l3f - prev_l3_fills_);
    prev_l3_acc_ = l3a;
    prev_l3_fills_ = l3f;
    const double l3_dyn =
        d_l3a * pw.l3_dyn_per_access + d_l3f * pw.l3_dyn_per_fill;
    ledger_.add(power::Component::kL3Dynamic, l3_dyn);

    const double cap_cycles_l3 =
        static_cast<double>(l3_->capacity_lines()) * dtd;
    const double powered_l3 = l3_->powered_line_cycles(upto);
    const double d_powered_l3 = powered_l3 - prev_l3_powered_;
    prev_l3_powered_ = powered_l3;
    const double gating3 = l3_gated ? (1.0 + pw.gated_vdd_overhead) : 1.0;
    const double l3_on_leak =
        d_powered_l3 * pw.l3_leak_per_line_cycle * gating3 * lf3;
    ledger_.add(power::Component::kL3Leakage, l3_on_leak);
    double l3_off_leak = 0.0;
    if (l3_gated) {
      const double off_cycles = std::max(0.0, cap_cycles_l3 - d_powered_l3);
      l3_off_leak = off_cycles * pw.l3_leak_per_line_cycle *
                    pw.off_residual_frac * lf3;
      ledger_.add(power::Component::kL3OffResidual, l3_off_leak);
    }
    double l3_decay_ovh = 0.0;
    if (l3_decaying) {
      l3_decay_ovh = cap_cycles_l3 * pw.l3_leak_per_line_cycle *
                         pw.decay_counter_leak_frac * lf3 +
                     d_l3a * pw.decay_counter_dyn;
      ledger_.add(power::Component::kDecayOverhead, l3_decay_ovh);
    }
    watts[floorplan_->bus_block()] +=
        (l3_dyn + l3_on_leak + l3_off_leak + l3_decay_ovh) / dtd * w_per_eu;
  }

  watts[floorplan_->bus_block()] += bus_energy / dtd * w_per_eu;

  // Off-chip DRAM command energy (kDram only; flat stats are all zero).
  // Reported in the ledger but never attributed to an on-chip block — the
  // paper's "system" normalization excludes off-chip DRAM (§V, fn. 2).
  if (mem_->model() == mem::MemoryModel::kDram) {
    const mem::DramStats& ds = mem_->dram_stats();
    ledger_.add(power::Component::kDramActivate,
                static_cast<double>(ds.activates - prev_dram_act_) *
                    pw.dram_act_energy);
    ledger_.add(power::Component::kDramPrecharge,
                static_cast<double>(ds.precharges - prev_dram_pre_) *
                    pw.dram_pre_energy);
    prev_dram_act_ = ds.activates;
    prev_dram_pre_ = ds.precharges;
  }

  if (cfg_.thermal_feedback) {
    const double dt_sec =
        dtd / cfg_.thermal.clock_hz;
    floorplan_->model.step(dt_sec, watts);
  }
  last_sample_ = upto;
}

RunMetrics CmpSystem::run() {
  CDSIM_ASSERT_MSG(!ran_, "CmpSystem::run() may be called once");
  ran_ = true;

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
  return collect(end);
}

RunMetrics CmpSystem::collect(Cycle end) const {
  RunMetrics m;
  m.benchmark = bench_.config.name;
  m.technique = cfg_.decay.label();
  m.total_l2_bytes = cfg_.total_l2_bytes;
  m.cycles = end;

  double occ_sum = 0.0;
  double lat_sum = 0.0;
  std::uint64_t lat_n = 0;
  double temp_sum = 0.0;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    m.instructions += cores_[c]->committed();
    occ_sum += l2s_[c]->occupation(end);
    const auto& st = l2s_[c]->stats();
    m.l2_accesses += st.accesses();
    m.l2_misses += st.misses();
    m.l2_decay_turnoffs += st.decay_turnoffs.value();
    m.l2_decay_induced_misses += st.decay_induced_misses.value();
    m.l2_coherence_invals += st.coherence_invals.value();
    m.l2_writebacks += st.writebacks.value();
    const auto& h = cores_[c]->load_latency();
    lat_sum += h.mean() * static_cast<double>(h.count());
    lat_n += h.count();
    temp_sum += floorplan_->model.temperature(floorplan_->l2_block(c));
  }
  m.ipc = safe_div(static_cast<double>(m.instructions),
                   static_cast<double>(end));
  m.l2_occupation = occ_sum / static_cast<double>(cfg_.num_cores);
  m.l2_miss_rate = safe_div(static_cast<double>(m.l2_misses),
                            static_cast<double>(m.l2_accesses));
  m.amat = safe_div(lat_sum, static_cast<double>(lat_n));
  m.mem_bytes = mem_->total_bytes();
  m.mem_bandwidth = mem_->bandwidth(end);
  m.energy = ledger_.total();
  m.ledger = ledger_;
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
  double l1_powered = 0.0;
  double l1_cap = 0.0;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    const auto& st = l1s_[c]->stats();
    m.l1.accesses += st.accesses();
    m.l1.hits += st.read_hits.value() + st.write_hits.value();
    m.l1.misses += st.misses();
    m.l1.decay_turnoffs += st.decay_turnoffs.value();
    m.l1.decay_induced_misses += st.decay_induced_misses.value();
    m.l1.writebacks += st.writebacks.value();  // 0: write-through
    l1_powered += l1s_[c]->powered_line_cycles(end);
    l1_cap += static_cast<double>(l1s_[c]->capacity_lines());
  }
  m.l1.occupation =
      end == 0 ? 1.0 : l1_powered / (l1_cap * static_cast<double>(end));
  m.l2.accesses = m.l2_accesses;
  m.l2.hits = m.l2_accesses - m.l2_misses;
  m.l2.misses = m.l2_misses;
  m.l2.decay_turnoffs = m.l2_decay_turnoffs;
  m.l2.decay_induced_misses = m.l2_decay_induced_misses;
  m.l2.writebacks = m.l2_writebacks;
  m.l2.occupation = m.l2_occupation;
  if (l3_ != nullptr) {
    m.total_l3_bytes = cfg_.total_l3_bytes;
    m.l3.accesses = l3_->accesses();
    m.l3.hits = l3_->hits();
    m.l3.misses = l3_->misses();
    m.l3.decay_turnoffs = l3_->decay_turnoffs();
    m.l3.decay_induced_misses = l3_->decay_induced_misses();
    m.l3.writebacks = l3_->writebacks();
    m.l3.occupation = l3_->occupation(end);
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
