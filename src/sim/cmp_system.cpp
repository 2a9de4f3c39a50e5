#include "cdsim/sim/cmp_system.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "cdsim/cache/tag_array.hpp"
#include "cdsim/common/assert.hpp"
#include "cdsim/common/host_timer.hpp"

namespace cdsim::sim {

namespace {

[[noreturn]] void fail(const std::string& why) {
  throw std::invalid_argument("SystemConfig: " + why);
}

/// Appends a leaf's value as describe prints it.
void append_value(std::string& out, bool v) { out += v ? "true" : "false"; }
template <class T>
void append_value(std::string& out, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    out += to_string(v);
  } else if constexpr (std::is_arithmetic_v<T>) {
    std::array<char, 32> buf{};  // the longest double is 24 characters
    out.append(buf.data(),
               std::to_chars(buf.data(), buf.data() + buf.size(), v).ptr);
  } else {
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) out += ',';
      append_value(out, v[i]);
    }
    out += ']';
  }
}

/// Why `v` breaks `rule`, or nullptr when it keeps it. A rule that does
/// not fit the leaf's type always breaks, so a mistyped table entry rejects
/// every config.
template <class T>
const char* broken(FieldRule rule, const T& v) {
  using enum FieldRule;
  const auto unless = [](bool ok, const char* why) {
    return ok ? nullptr : why;
  };
  if constexpr (std::is_floating_point_v<T>) {
    switch (rule) {
      case kPositive:
        return unless(std::isfinite(v) && v > 0.0,
                      "must be positive and finite");
      case kNonNegative:
        return unless(std::isfinite(v) && v >= 0.0,
                      "must be non-negative and finite");
      case kFinite: return unless(std::isfinite(v), "must be finite");
      default: break;
    }
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    switch (rule) {
      case kNonzero: return unless(v != 0, "must be at least 1");
      case kPow2: return unless(is_pow2(v), "must be a power of two");
      case kLineBytes:
        return unless(is_pow2(v) && v >= 8, "must be a power of two >= 8");
      case kWays:
        return unless(is_pow2(v) && v <= cache::kMaxWays,
                      "must be a power of two of at most 64 (one set's valid "
                      "bits are one 64-bit word)");
      default: break;
    }
  } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
    if (rule == kNonzero) {
      return unless(std::find(v.begin(), v.end(), 0) == v.end(),
                    "entries must be at least 1");
    }
  }
  return "has a rule that does not fit its type";
}

/// Throws naming `leaf`, whose value `v` breaks its rule (`why`).
template <class T>
[[noreturn]] void reject(const ConfigLeaf& leaf, const T& v, const char* why) {
  std::string msg = leaf.name() + ' ';
  append_value(msg, v);
  msg += ' ';
  msg += why;
  fail(msg);
}

}  // namespace

std::string describe(const SystemConfig& cfg) {
  std::string out;
  for_each_config_field(
      [&out](const ConfigLeaf& leaf, const auto& v) {
        if (!out.empty()) out += ';';
        leaf.path.append_to(out);
        out += '=';
        append_value(out, v);
      },
      cfg);
  return out;
}

void validate_system_config(const SystemConfig& cfg) {
  // Per FieldScope, whether the machine builds the components that read
  // the struct.
  const bool built[] = {true,
                        cfg.topology == noc::Topology::kSnoopBus,
                        cfg.topology == noc::Topology::kDirectoryMesh,
                        cfg.hierarchy == Hierarchy::kThreeLevel,
                        cfg.mem.model == mem::MemoryModel::kDram,
                        cfg.mem.tlb.enabled};
  for_each_config_field(
      [&built](const ConfigLeaf& leaf, const auto& v) {
        if (leaf.rule == FieldRule::kAny ||
            !built[static_cast<std::size_t>(leaf.scope)]) {
          return;
        }
        if (const char* why = broken(leaf.rule, v)) reject(leaf, v, why);
      },
      cfg);

  // The rules that relate fields.
  const std::uint32_t n = cfg.num_cores;
  if (n == 0) fail("num_cores must be at least 1");
  if (n > 64) {
    fail("num_cores " + std::to_string(n) +
         " exceeds 64 (the directory's sharer bitmap width)");
  }
  if (cfg.topology == noc::Topology::kDirectoryMesh && !is_pow2(n)) {
    fail("num_cores " + std::to_string(n) +
         " must be a power of two for the mesh tile grid");
  }
  if (cfg.per_core_instructions.empty()) {
    if (cfg.instructions_per_core == 0) {
      fail("instructions_per_core must be at least 1");
    }
  } else if (cfg.per_core_instructions.size() != n) {
    fail("per_core_instructions has " +
         std::to_string(cfg.per_core_instructions.size()) +
         " entries; expected 0 or num_cores (" + std::to_string(n) + ")");
  }
  // Each level's per-structure capacity holds at least one set
  // (cache::Geometry and cache::TagArray assert it). An L2 slice and an L3
  // bank are equal shares of a total, each a power of two.
  const auto one_set = [](const char* what, std::uint64_t size,
                          std::uint32_t line, std::uint32_t ways) {
    if (size < static_cast<std::uint64_t>(line) * ways) {
      fail(std::string(what) + " " + std::to_string(size) +
           " is smaller than one set (" + std::to_string(line) +
           " B lines x " + std::to_string(ways) + " ways)");
    }
  };
  const auto share = [n](const char* total_field, std::uint64_t total,
                         const char* parts, const char* share_name) {
    if (total == 0 || total % n != 0) {
      fail(std::string(total_field) + " " + std::to_string(total) +
           " is not divisible into " + std::to_string(n) + parts);
    }
    if (!is_pow2(total / n)) {
      fail(std::string(share_name) + " " + std::to_string(total / n) +
           " must be a power of two");
    }
    return total / n;
  };
  one_set("l1.size_bytes", cfg.l1.size_bytes, cfg.line_bytes, cfg.l1.ways);
  const char* slice = "per-core L2 slice (total_l2_bytes / num_cores)";
  one_set(slice,
          share("total_l2_bytes", cfg.total_l2_bytes, " per-core slices",
                slice),
          cfg.line_bytes, cfg.l2.ways);
  if (cfg.hierarchy == Hierarchy::kThreeLevel) {
    if (cfg.topology != noc::Topology::kDirectoryMesh) {
      fail("three-level hierarchy requires the directory-mesh topology "
           "(the shared L3 banks live at the mesh home tiles)");
    }
    const char* bank = "per-bank L3 size (total_l3_bytes / num_cores)";
    one_set(bank,
            share("total_l3_bytes", cfg.total_l3_bytes, " home banks", bank),
            cfg.line_bytes, cfg.l3.ways);
  }
  const mem::DramConfig& d = cfg.mem.dram;
  if (cfg.mem.model == mem::MemoryModel::kDram &&
      d.row_bytes < d.interleave_bytes) {
    fail("mem.dram.row_bytes " + std::to_string(d.row_bytes) +
         " is smaller than mem.dram.interleave_bytes " +
         std::to_string(d.interleave_bytes));
  }
  if (cfg.topology == noc::Topology::kDirectoryMesh &&
      cfg.dmesh.mem_tile >= n) {
    fail("dmesh.mem_tile " + std::to_string(cfg.dmesh.mem_tile) +
         " is not one of the " + std::to_string(n) + " mesh tiles");
  }
  // The same check at every level the machine builds: a decaying technique
  // needs at least one counter tick per interval, and ticks at least one
  // cycle apart.
  const auto check_decay = [](const decay::DecayConfig& dc,
                              const char* level) {
    if (!decay::uses_decay(dc.technique)) return;
    if (dc.hierarchical_ticks == 0) {
      fail(std::string(level) + " decay needs hierarchical_ticks >= 1");
    }
    if (dc.tick_period() == 0) {
      fail(std::string(level) + " decay technique needs a nonzero tick " +
           "period (decay_time " + std::to_string(dc.decay_time) + " / " +
           std::to_string(dc.hierarchical_ticks) + " ticks)");
    }
  };
  check_decay(cfg.l1_decay, "L1");
  check_decay(cfg.decay, "L2");
  if (cfg.hierarchy == Hierarchy::kThreeLevel) {
    check_decay(cfg.l3_decay, "L3");
  }
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

/// The sum of per-structure counters, in structure order: floating-point
/// addition is not associative, and the pins hold this order.
template <typename T>
T total(const std::vector<T>& parts) {
  T sum{};
  for (const T& p : parts) sum += p;
  return sum;
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

  const std::uint32_t n = cfg_.num_cores;
  const std::uint32_t line = cfg_.line_bytes;
  mem_ = std::make_unique<mem::MemoryController>(eq_, cfg_.mem);
  if (cfg_.topology == noc::Topology::kSnoopBus) {
    bus_ = std::make_unique<bus::SnoopBus>(eq_, cfg_.bus, *mem_);
    ic_ = bus_.get();
  } else {
    mesh_ = std::make_unique<noc::DirectoryMesh>(eq_, cfg_.dmesh, line, *mem_,
                                                 n);
    ic_ = mesh_.get();
  }

  if (cfg_.hierarchy == Hierarchy::kThreeLevel) {
    l3_ = std::make_unique<L3Cache>(eq_, cfg_.l3, cfg_.total_l3_bytes / n,
                                    line, cfg_.l3_decay, n);
    mesh_->attach_l3(l3_.get());
  }

  for (CoreId c = 0; c < n; ++c) {
    l1s_.push_back(
        std::make_unique<L1Cache>(eq_, cfg_.l1, line, c, cfg_.l1_decay));
    l2s_.push_back(std::make_unique<L2Cache>(
        eq_, cfg_.l2, cfg_.total_l2_bytes / n, line, cfg_.protocol,
        cfg_.decay, c, *ic_, l1s_.back().get()));
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

CmpSystem::MachineCounters CmpSystem::snapshot(
    Cycle now, const AccountingView& view) const {
  const std::size_t n = cfg_.num_cores;
  MachineCounters s{.now = now,
                    .committed = std::vector<std::uint64_t>(n),
                    .l1 = std::vector<cache::LevelCounters>(n),
                    .l2 = std::vector<cache::LevelCounters>(n),
                    .l3 = l3_ != nullptr
                              ? l3_->counters(now, view.l3.technique)
                              : cache::LevelCounters{},
                    .fabric_traffic = bus_ != nullptr
                                          ? bus_->bytes_transferred()
                                          : mesh_->noc().flit_hops(),
                    .fabric_utilization = ic_->utilization(now),
                    .dram = mem_->dram_stats()};
  for (CoreId c = 0; c < n; ++c) {
    s.committed[c] = cores_[c]->committed();
    s.l1[c] = l1s_[c]->counters(now, view.l1.technique);
    s.l2[c] = l2s_[c]->counters(now, view.l2.technique);
  }
  return s;
}

CmpSystem::Books CmpSystem::open_books(const AccountingView& view) const {
  const double slice_mb =
      static_cast<double>(cfg_.total_l2_bytes / cfg_.num_cores) /
      static_cast<double>(MiB);
  Books b{.view = view,
          .floorplan = thermal::make_cmp_floorplan(
              cfg_.thermal, cfg_.num_cores, slice_mb),
          .prev = snapshot(0, view)};
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

void CmpSystem::sample_window(Cycle wend) {
  const MachineCounters& start = sampler_start_;
  CDSIM_ASSERT(wend > start.now);
  const Books& b = books_.front();
  MachineCounters now = snapshot(wend, b.view);
  const double dtd = static_cast<double>(wend - start.now);
  const cache::LevelCounters l2 = total(now.l2);
  const cache::LevelCounters l2_start = total(start.l2);

  obs::SampleRow row;
  row.window_start = start.now;
  row.window_end = wend;
  row.instructions = total(now.committed) - total(start.committed);
  row.l2_accesses = l2.accesses - l2_start.accesses;
  row.l2_misses = l2.misses - l2_start.misses;
  row.ipc = static_cast<double>(row.instructions) / dtd;
  row.l2_miss_rate = safe_div(static_cast<double>(row.l2_misses),
                              static_cast<double>(row.l2_accesses));
  row.l2_powered_frac =
      (l2.powered_line_cycles - l2_start.powered_line_cycles) /
      (static_cast<double>(l2.capacity_lines) * dtd);
  double temp_sum = 0.0;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    const double t = b.floorplan.model.temperature(b.floorplan.l2_block(c));
    temp_sum += t;
    row.max_l2_temp_kelvin = std::max(row.max_l2_temp_kelvin, t);
  }
  row.avg_l2_temp_kelvin = temp_sum / static_cast<double>(cfg_.num_cores);
  const auto row_activity = [](const mem::DramStats& d) {
    return d.row_hits + d.row_misses + d.row_conflicts;
  };
  row.dram_row_hit_rate =
      safe_div(static_cast<double>(now.dram.row_hits - start.dram.row_hits),
               static_cast<double>(row_activity(now.dram) -
                                   row_activity(start.dram)));
  // utilization() is cumulative over [0, now]; busy cycles = util * now,
  // and the window's occupancy is the busy delta over the window length.
  const auto busy = [](const MachineCounters& s) {
    return s.fabric_utilization * static_cast<double>(s.now);
  };
  row.fabric_occupancy = std::max(0.0, busy(now) - busy(start)) / dtd;

  sampler_->push(row);
  sampler_start_ = std::move(now);
}

void CmpSystem::arm_sampler() {
  eq_.schedule_in(cfg_.thermal.sample_period, [this] {
    if (cores_done_ >= cfg_.num_cores) return;  // final sample done in run()
    sample_power(eq_.now());
    arm_sampler();
  });
}

void CmpSystem::sample_power(Cycle upto) {
  for (Books& b : books_) {
    CDSIM_ASSERT(upto >= b.prev.now);
    if (upto > b.prev.now) sample_books(b, upto);
  }
}

void CmpSystem::sample_books(Books& b, Cycle upto) {
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
  // Leakage scales with each block's temperature (T0 without feedback).
  const auto leak_factor = [&](std::size_t block) {
    return leak_model_.factor(cfg_.thermal_feedback
                                  ? fp.model.temperature(block)
                                  : leak_model_.params().t0_kelvin);
  };
  MachineCounters now = snapshot(upto, b.view);
  const MachineCounters& prev = b.prev;
  const double dtd = static_cast<double>(upto - prev.now);

  std::vector<double> watts(fp.model.num_blocks(), 0.0);
  const double w_per_eu = cfg_.thermal.watts_per_eu_cycle;

  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    const double lf_core = leak_factor(fp.core_block(c));

    // --- core ---------------------------------------------------------------
    const double d_instr =
        static_cast<double>(now.committed[c] - prev.committed[c]);
    const double core_dyn = d_instr * pw.core_dyn_per_instr;
    const double core_leak = dtd * pw.core_leak_per_cycle * lf_core;
    b.ledger.add(power::Component::kCoreDynamic, core_dyn);
    b.ledger.add(power::Component::kCoreLeakage, core_leak);

    // --- L1: its per-cache leakage constant spread over its lines ----------
    const LevelRates l1_rates{
        pw.l1_leak_per_cycle / static_cast<double>(now.l1[c].capacity_lines),
        pw.l1_dyn_per_access, 0.0};
    const LevelEnergy e1 = level_energy(prev.l1[c], now.l1[c], dtd, l1_rates,
                                        pw, b.view.l1.technique, lf_core);
    book(e1, power::Component::kL1Dynamic, power::Component::kL1Leakage,
         power::Component::kL1OffResidual);

    // --- L2 slice (the optimized structure) ---------------------------------
    const LevelEnergy e2 =
        level_energy(prev.l2[c], now.l2[c], dtd, l2_rates, pw,
                     b.view.l2.technique, leak_factor(fp.l2_block(c)));
    book(e2, power::Component::kL2Dynamic, power::Component::kL2Leakage,
         power::Component::kL2OffResidual);

    // --- per-block power for the thermal step -------------------------------
    watts[fp.core_block(c)] +=
        (core_dyn + core_leak + e1.dyn + e1.leak + e1.off + e1.overhead) /
        dtd * w_per_eu;
    watts[fp.l2_block(c)] += e2.total() / dtd * w_per_eu;
  }

  const bool on_bus = bus_ != nullptr;
  const double fabric_energy =
      static_cast<double>(now.fabric_traffic - prev.fabric_traffic) *
      (on_bus ? pw.bus_dyn_per_byte : pw.noc_dyn_per_flit_hop);
  b.ledger.add(on_bus ? power::Component::kBusDynamic
                      : power::Component::kNocDynamic,
               fabric_energy);
  // --- shared L3 home banks (three-level hierarchy) -------------------------
  if (l3_ != nullptr) {
    // The floorplan has no dedicated L3 blocks; the banks sit on the tiles
    // next to the routers, so their heat is attributed to the interconnect
    // block (documented simplification).
    const LevelRates l3_rates{pw.l3_leak_per_line_cycle,
                              pw.l3_dyn_per_access, pw.l3_dyn_per_fill};
    const LevelEnergy e3 =
        level_energy(prev.l3, now.l3, dtd, l3_rates, pw, b.view.l3.technique,
                     leak_factor(fp.bus_block()));
    book(e3, power::Component::kL3Dynamic, power::Component::kL3Leakage,
         power::Component::kL3OffResidual);
    watts[fp.bus_block()] += e3.total() / dtd * w_per_eu;
  }

  watts[fp.bus_block()] += fabric_energy / dtd * w_per_eu;

  // Off-chip DRAM command energy (the flat model's counts stay zero).
  // Reported in the ledger but never attributed to an on-chip block — the
  // paper's "system" normalization excludes off-chip DRAM (§V, fn. 2).
  b.ledger.add(power::Component::kDramActivate,
               static_cast<double>(now.dram.activates - prev.dram.activates) *
                   pw.dram_act_energy);
  b.ledger.add(
      power::Component::kDramPrecharge,
      static_cast<double>(now.dram.precharges - prev.dram.precharges) *
          pw.dram_pre_energy);
  b.prev = std::move(now);

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
  // Every snapshot at cycle 0 is taken before the components start: a
  // core commits its first instructions inside start().
  books_.reserve(views.size());
  for (const AccountingView& v : views) books_.push_back(open_books(v));
  if (sampler_ != nullptr) {
    sampler_start_ = snapshot(0, views.front());
    sampler_next_ = sampler_->period();
  }

  for (auto& l1 : l1s_) l1->start();
  for (auto& l2 : l2s_) l2->start();
  if (l3_ != nullptr) l3_->start();
  for (auto& core : cores_) {
    core->start([this] { ++cores_done_; });
  }
  arm_sampler();

  {
    // Inclusive run-loop total for the host profiler; the subsystem scopes
    // (decay sweep, fabric, DRAM, oracle) nest inside it.
    const prof::ScopedPhase dispatch_scope(prof::Phase::kEventDispatch);
    while (cores_done_ < cfg_.num_cores) {
      const bool progressed = eq_.step();
      CDSIM_ASSERT_MSG(progressed, "deadlock: event queue drained early");
      if (sampler_ != nullptr && eq_.now() >= sampler_next_) {
        // Loop-driven, never event-driven: emitting a window cannot change
        // the event schedule, so the golden pins hold with a sampler
        // attached. A window closes at the first event executed at or
        // after its boundary, so every counter it reads is current.
        sample_window(eq_.now());
        while (sampler_next_ <= eq_.now()) sampler_next_ += sampler_->period();
      }
    }
  }

  const Cycle end = eq_.now();
  if (sampler_ != nullptr && end > sampler_start_.now) {
    sample_window(end);  // final partial window
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
  const MachineCounters s = snapshot(end, b.view);
  RunMetrics m;
  m.benchmark = bench_.config.name;
  m.technique = b.view.l2.label();
  m.total_l2_bytes = cfg_.total_l2_bytes;
  m.cycles = end;
  m.instructions = total(s.committed);

  double occ_sum = 0.0;
  double lat_sum = 0.0;
  std::uint64_t lat_n = 0;
  double temp_sum = 0.0;
  for (CoreId c = 0; c < cfg_.num_cores; ++c) {
    occ_sum += s.l2[c].occupation(end);
    const auto& h = cores_[c]->load_latency();
    lat_sum += h.mean() * static_cast<double>(h.count());
    lat_n += h.count();
    temp_sum += b.floorplan.model.temperature(b.floorplan.l2_block(c));
  }
  const cache::LevelCounters l1 = total(s.l1);
  const cache::LevelCounters l2 = total(s.l2);
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
  m.bus_utilization = s.fabric_utilization;
  m.topology = std::string(noc::to_string(cfg_.topology));
  if (mesh_ != nullptr) {
    m.noc_flit_hops = s.fabric_traffic;
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
    m.l3 = level_metrics(s.l3, s.l3.occupation(end));
  }

  // --- memory side ----------------------------------------------------------
  m.mem_model = std::string(mem::to_string(cfg_.mem.model));
  m.dram_row_hits = s.dram.row_hits;
  m.dram_row_misses = s.dram.row_misses;
  m.dram_row_conflicts = s.dram.row_conflicts;
  m.dram_activates = s.dram.activates;
  m.dram_precharges = s.dram.precharges;
  m.dram_refreshes = s.dram.refreshes;
  m.dram_write_forwards = s.dram.write_forwards;
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
