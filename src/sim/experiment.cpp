#include "cdsim/sim/experiment.hpp"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/rng.hpp"
#include "cdsim/verify/oracle.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "cdsim/workload/trace_v2.hpp"

namespace cdsim::sim {

namespace {
// Bump when the simulator's calibration changes so stale caches re-run.
// Seeds derive from the version-free configuration description (see
// derive_config_seed), so bumping this never changes simulation results.
// v2: per-configuration seeds (was: fixed 42); sizes keyed in bytes.
// v3: interconnect/directory metrics appended to the line format, and the
//     ledger grew the noc_dyn component.
// v4: per-level attribution (hierarchy tag, total_l3_bytes, and one
//     LevelMetrics block per level) appended; the ledger grew the three
//     L3 components. v3 lines loaded through a shim while v4 was current;
//     that shim is retired (one-back policy).
// v5: memory-side block appended (mem_model tag, DRAM row-buffer /
//     activate / precharge / refresh / write-forward counters, TLB
//     hits/misses) and the ledger grew the two DRAM components. v4 lines
//     load through deserialize_v4: the memory block defaults to a flat
//     channel with zero DRAM/TLB activity — exactly what every v4 run
//     simulated — and the entry is re-keyed to v5.
constexpr const char* kCacheVersion = "v5";
constexpr const char* kShimCacheVersion = "v4";
/// Ledger width when v4 was current (components have only ever been
/// appended, so v4 indices map 1:1 onto today's enum).
constexpr std::size_t kV4LedgerComponents =
    static_cast<std::size_t>(power::Component::kDramActivate);

void serialize_level(std::ostringstream& os, const LevelMetrics& l) {
  os << ' ' << l.accesses << ' ' << l.hits << ' ' << l.misses << ' '
     << l.decay_turnoffs << ' ' << l.decay_induced_misses << ' '
     << l.writebacks << ' ' << l.occupation;
}

bool deserialize_level(std::istringstream& is, LevelMetrics& l) {
  return static_cast<bool>(is >> l.accesses >> l.hits >> l.misses >>
                           l.decay_turnoffs >> l.decay_induced_misses >>
                           l.writebacks >> l.occupation);
}

std::string serialize(const RunMetrics& m) {
  std::ostringstream os;
  os.precision(17);
  os << m.cycles << ' ' << m.instructions << ' ' << m.ipc << ' '
     << m.l2_occupation << ' ' << m.l2_miss_rate << ' ' << m.l2_accesses
     << ' ' << m.l2_misses << ' ' << m.l2_decay_turnoffs << ' '
     << m.l2_decay_induced_misses << ' ' << m.l2_coherence_invals << ' '
     << m.l2_writebacks << ' ' << m.amat << ' ' << m.mem_bandwidth << ' '
     << m.mem_bytes << ' ' << m.energy << ' ' << m.avg_l2_temp_kelvin << ' '
     << m.bus_utilization;
  for (std::size_t i = 0; i < power::kNumComponents; ++i) {
    os << ' ' << m.ledger.get(static_cast<power::Component>(i));
  }
  os << ' ' << m.topology << ' ' << m.noc_flit_hops << ' '
     << m.noc_avg_packet_latency << ' ' << m.dir_directed_snoops << ' '
     << m.dir_recalls << ' ' << m.dir_deferrals;
  // v4 tail: hierarchy + per-level attribution.
  os << ' ' << m.hierarchy << ' ' << m.total_l3_bytes;
  serialize_level(os, m.l1);
  serialize_level(os, m.l2);
  serialize_level(os, m.l3);
  // v5 tail: memory-side model tag + DRAM/TLB counters.
  os << ' ' << m.mem_model << ' ' << m.dram_row_hits << ' '
     << m.dram_row_misses << ' ' << m.dram_row_conflicts << ' '
     << m.dram_activates << ' ' << m.dram_precharges << ' '
     << m.dram_refreshes << ' ' << m.dram_write_forwards << ' '
     << m.tlb_hits << ' ' << m.tlb_misses;
  return os.str();
}

/// Shared prefix of the v3 and v4 line formats, with a version-dependent
/// ledger width (components are append-only, so old indices stay valid).
bool deserialize_prefix(std::istringstream& is, RunMetrics& m,
                        std::size_t ledger_components) {
  if (!(is >> m.cycles >> m.instructions >> m.ipc >> m.l2_occupation >>
        m.l2_miss_rate >> m.l2_accesses >> m.l2_misses >>
        m.l2_decay_turnoffs >> m.l2_decay_induced_misses >>
        m.l2_coherence_invals >> m.l2_writebacks >> m.amat >>
        m.mem_bandwidth >> m.mem_bytes >> m.energy >>
        m.avg_l2_temp_kelvin >> m.bus_utilization)) {
    return false;
  }
  for (std::size_t i = 0; i < ledger_components; ++i) {
    double v = 0.0;
    if (!(is >> v)) return false;
    m.ledger.add(static_cast<power::Component>(i), v);
  }
  return static_cast<bool>(is >> m.topology >> m.noc_flit_hops >>
                           m.noc_avg_packet_latency >> m.dir_directed_snoops >>
                           m.dir_recalls >> m.dir_deferrals);
}

bool deserialize(const std::string& line, RunMetrics& m) {
  std::istringstream is(line);
  if (!deserialize_prefix(is, m, power::kNumComponents)) return false;
  if (!(is >> m.hierarchy >> m.total_l3_bytes)) return false;
  if (!(deserialize_level(is, m.l1) && deserialize_level(is, m.l2) &&
        deserialize_level(is, m.l3))) {
    return false;
  }
  return static_cast<bool>(
      is >> m.mem_model >> m.dram_row_hits >> m.dram_row_misses >>
      m.dram_row_conflicts >> m.dram_activates >> m.dram_precharges >>
      m.dram_refreshes >> m.dram_write_forwards >> m.tlb_hits >>
      m.tlb_misses);
}

/// The v4 loader shim: parses the old line format and synthesizes the v5
/// memory block. Every v4 run simulated the flat channel, so the defaults
/// (mem_model "flat", zero DRAM/TLB counters) are the true historical
/// values — nothing is approximated.
bool deserialize_v4(const std::string& line, RunMetrics& m) {
  std::istringstream is(line);
  if (!deserialize_prefix(is, m, kV4LedgerComponents)) return false;
  if (!(is >> m.hierarchy >> m.total_l3_bytes)) return false;
  return deserialize_level(is, m.l1) && deserialize_level(is, m.l2) &&
         deserialize_level(is, m.l3);
}

struct ParsedCacheLine {
  std::string key;      ///< Always carries the CURRENT version suffix.
  std::string payload;
  bool shimmed = false;  ///< Loaded through the v4 shim.
};

/// Splits a cache line into (key, payload), accepting the current version
/// and — through the shim — the previous one (the key is upgraded to the
/// current suffix so lookups hit). Malformed and older-version lines yield
/// nullopt. The single gatekeeper for both loading and persisting, so the
/// two can never disagree on which entries are valid.
std::optional<ParsedCacheLine> parse_cache_line(const std::string& line) {
  const auto bar = line.find('|');
  if (bar == std::string::npos) return std::nullopt;
  std::string key = line.substr(0, bar);
  const auto has_suffix = [&key](const std::string& sfx) {
    return key.size() >= sfx.size() &&
           key.compare(key.size() - sfx.size(), sfx.size(), sfx) == 0;
  };
  const std::string current = std::string("/") + kCacheVersion;
  if (has_suffix(current)) {
    return ParsedCacheLine{std::move(key), line.substr(bar + 1), false};
  }
  const std::string shim = std::string("/") + kShimCacheVersion;
  if (has_suffix(shim)) {
    key.replace(key.size() - shim.size(), shim.size(), current);
    return ParsedCacheLine{std::move(key), line.substr(bar + 1), true};
  }
  return std::nullopt;
}
}  // namespace

namespace detail {
std::optional<std::uint64_t> parse_u64(const char* s) noexcept {
  if (s == nullptr || *s == '\0') return std::nullopt;
  // strtoull accepts leading whitespace, '+'/'-' (negatives wrap!), and
  // stops at the first bad character; insist on pure digits instead.
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
  }
  errno = 0;
  // The digit loop above already rejected empty strings and any non-digit;
  // only overflow remains.
  const unsigned long long v = std::strtoull(s, nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

std::optional<std::uint64_t> parse_positive_u64(const char* s) noexcept {
  const std::optional<std::uint64_t> v = parse_u64(s);
  if (!v || *v == 0) return std::nullopt;
  return v;
}
}  // namespace detail

std::uint64_t derive_config_seed(std::string_view config) noexcept {
  // FNV-1a over the description, whitened through Xoshiro256 so nearby
  // descriptions ("...1/..." vs "...2/...") yield uncorrelated streams.
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : config) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  Xoshiro256 rng(h);
  return rng.next();
}

decay::DecayConfig baseline_config() {
  return decay::DecayConfig{decay::Technique::kBaseline, 0, 4};
}

std::vector<decay::DecayConfig> paper_technique_set() {
  using decay::DecayConfig;
  using decay::Technique;
  std::vector<DecayConfig> v;
  v.push_back(DecayConfig{Technique::kProtocol, 0, 4});
  for (const Cycle t : {512u * 1024u, 128u * 1024u, 64u * 1024u}) {
    v.push_back(DecayConfig{Technique::kDecay, t, 4});
  }
  for (const Cycle t : {512u * 1024u, 128u * 1024u, 64u * 1024u}) {
    v.push_back(DecayConfig{Technique::kSelectiveDecay, t, 4});
  }
  return v;
}

std::vector<std::uint64_t> paper_cache_sizes() {
  return {1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB};
}

SystemConfig make_system_config(std::uint64_t total_l2_bytes,
                                const decay::DecayConfig& technique) {
  SystemConfig cfg;
  cfg.num_cores = 4;
  cfg.total_l2_bytes = total_l2_bytes;
  cfg.decay = technique;
  // Protocol/decay configs carry a decay_time even when unused; normalize
  // the protocol/baseline label by zeroing it.
  if (!decay::uses_decay(technique.technique)) cfg.decay.decay_time = 0;
  return cfg;
}

SystemConfig normalized_run_config(const SystemConfig& cfg,
                                   const workload::Benchmark& bench) {
  // Decay sweepers divide by tick count; give non-decay configs a benign
  // decay_time (they never sweep).
  SystemConfig fixed = cfg;
  if (fixed.decay.decay_time == 0) fixed.decay.decay_time = 4;
  // Deterministic per-cell seeding: every (benchmark, size, instructions)
  // cell draws an independent workload stream, mixed with the caller's
  // cfg.seed so explicit seeds still select distinct streams. The
  // technique is deliberately NOT part of the seed: each technique must
  // face the exact same access stream as the baseline it is normalized
  // against, or relative metrics pick up stream-sampling noise. Seeding
  // here (not in ExperimentRunner) keeps the figure benches and the
  // direct run_config callers (ablations, examples, tests) consistent.
  fixed.seed = cfg.seed ^ derive_config_seed(
                              bench.config.name + "/" +
                              std::to_string(cfg.total_l2_bytes) + "/" +
                              std::to_string(cfg.instructions_per_core));
  return fixed;
}

RunMetrics run_config(const SystemConfig& cfg,
                      const workload::Benchmark& bench) {
  const SystemConfig fixed = normalized_run_config(cfg, bench);

  // CDSIM_VERIFY=1: run every configuration against the differential
  // reference-model oracle (see cdsim/verify/oracle.hpp) and abort on the
  // first run whose delivered load values diverge from it. Roughly 2x
  // slower; the null-observer default is bit-identical to not checking.
  const char* venv = std::getenv("CDSIM_VERIFY");
  if (venv != nullptr && *venv != '\0' &&
      std::string_view(venv) != std::string_view("0")) {
    // CDSIM_VERIFY_TRACE=<dir>: additionally stream the verified run's
    // exact op sequence into <dir>/<run>.cdt as chunked .cdt v2. The
    // capture goes straight to disk chunk by chunk (O(chunk) memory — no
    // whole-trace copy in shared state), and replaying the file
    // reproduces the run bit-identically.
    std::unique_ptr<workload::ChunkedTraceWriter> writer;
    workload::StreamFactory factory;  // stays null unless capturing
    const char* tenv = std::getenv("CDSIM_VERIFY_TRACE");
    if (tenv != nullptr && *tenv != '\0') {
      std::error_code ec;
      std::filesystem::create_directories(tenv, ec);  // best effort
      std::string stem;
      for (const char ch : bench.config.name + "_" + fixed.decay.label() +
                               "_s" + std::to_string(fixed.seed)) {
        const auto uc = static_cast<unsigned char>(ch);
        stem.push_back(std::isalnum(uc) != 0 ? ch : '_');
      }
      const std::string path = std::string(tenv) + "/" + stem + ".cdt";
      writer = std::make_unique<workload::ChunkedTraceWriter>(
          path, fixed.num_cores);
      if (!writer->ok()) {
        std::fprintf(stderr,
                     "cdsim: CDSIM_VERIFY_TRACE: %s; capture disabled\n",
                     writer->error().c_str());
        writer.reset();
      } else {
        factory = workload::capture_factory(
            [&bench](CoreId core, std::uint64_t seed) {
              return workload::make_stream(bench, core, seed);
            },
            writer.get());
      }
    }

    CmpSystem sys(fixed, bench, factory);
    verify::DifferentialChecker checker(fixed.num_cores);
    sys.set_observer(&checker);
    RunMetrics m = sys.run();
    if (writer != nullptr && !writer->finish()) {
      std::fprintf(stderr, "cdsim: CDSIM_VERIFY_TRACE: %s\n",
                   writer->error().c_str());
    }
    if (checker.total_divergences() != 0) {
      std::fprintf(stderr,
                   "cdsim: CDSIM_VERIFY: %llu value divergence(s) on %s/%s; "
                   "first: %s\n",
                   static_cast<unsigned long long>(
                       checker.total_divergences()),
                   m.benchmark.c_str(), m.technique.c_str(),
                   verify::to_string(checker.divergences().front()).c_str());
      std::abort();
    }
    return m;
  }
  CmpSystem sys(fixed, bench);
  return sys.run();
}

ExperimentRunner::ExperimentRunner(std::uint64_t instructions_per_core,
                                   std::string cache_path)
    : instructions_(instructions_per_core) {
  if (const char* env = std::getenv("CDSIM_INSTR")) {
    const auto v = detail::parse_positive_u64(env);
    if (!v.has_value()) {
      std::fprintf(stderr,
                   "cdsim: CDSIM_INSTR=\"%s\" is invalid: expected a "
                   "positive 64-bit decimal instruction count\n",
                   env);
      std::abort();
    }
    instructions_ = *v;
  }
  if (instructions_ == 0) instructions_ = SystemConfig{}.instructions_per_core;
  if (!cache_path.empty()) {
    cache_path_ = std::move(cache_path);
  } else if (const char* path = std::getenv("CDSIM_CACHE_FILE")) {
    if (*path == '\0') {
      std::fprintf(stderr,
                   "cdsim: CDSIM_CACHE_FILE is set but empty: expected a "
                   "cache file path (unset it to use the default)\n");
      std::abort();
    }
    cache_path_ = path;
  } else {
    cache_path_ = "cdsim_results.cache";
  }
  load_disk_cache();
}

ExperimentRunner::~ExperimentRunner() {
  std::scoped_lock lock(mu_);
  if (dirty_) persist_disk_cache_locked();
}

void ExperimentRunner::load_disk_cache() {
  std::ifstream in(cache_path_);
  if (!in) return;
  std::string line;
  std::vector<std::pair<std::string, RunMetrics>> shimmed;
  const auto recover_labels = [](const std::string& key, RunMetrics& m) {
    // Recover the labels encoded in the key: bench/size/technique/...
    std::istringstream ks(key);
    std::getline(ks, m.benchmark, '/');
    std::string size_s, tech;
    std::getline(ks, size_s, '/');
    std::getline(ks, tech, '/');
    m.technique = tech;
    m.total_l2_bytes = std::strtoull(size_s.c_str(), nullptr, 10);
  };
  while (std::getline(in, line)) {
    // Other-version entries may deserialize cleanly but describe a
    // different simulator; never let them into the memo. v4 entries load
    // through the shim (key upgraded, new fields defaulted) — but only
    // into gaps: a genuine v5 entry for the same key always wins,
    // regardless of file order (shimmed lines are applied after the loop).
    auto parsed = parse_cache_line(line);
    if (!parsed) continue;
    const std::string& key = parsed->key;
    RunMetrics m;
    if (parsed->shimmed ? !deserialize_v4(parsed->payload, m)
                        : !deserialize(parsed->payload, m)) {
      continue;
    }
    if (parsed->shimmed) {
      shimmed.emplace_back(key, std::move(m));
      continue;
    }
    recover_labels(key, m);
    cache_.emplace(key, std::move(m));
  }
  for (auto& [key, m] : shimmed) {
    recover_labels(key, m);
    cache_.emplace(key, std::move(m));  // fills gaps only: v5 entries win
  }
}

void ExperimentRunner::persist_disk_cache_locked() {
  // Merge whatever is on disk (another process may have added results since
  // we loaded) with the in-memory memo, then replace the file atomically:
  // the rename guarantees readers and concurrent writers only ever see a
  // complete file, never interleaved or half-written lines. Lines from
  // other cache versions are dead weight (lookups can never hit them) and
  // are dropped here.
  //
  // Happens-before (persistence): the caller holds mu_, so this snapshot
  // of cache_ happens-after every insertion it contains. Within one
  // process, two runners sharing a path serialize through their own mu_
  // and write distinct tmp names (pid + counter below); rename() is atomic
  // at the filesystem level, so a concurrent loader in another runner
  // reads either the old complete file or the new complete file — never a
  // torn one (tests/tsan_grid_test.cpp persists two runners into one path
  // concurrently to certify this under TSan).
  std::map<std::string, std::string> lines;
  {
    std::ifstream in(cache_path_);
    std::string line;
    std::vector<std::pair<std::string, std::string>> shimmed;
    while (in && std::getline(in, line)) {
      auto parsed = parse_cache_line(line);
      if (!parsed) continue;
      if (parsed->shimmed) {
        // A v4 line merged from disk: upgrade its payload to the v5
        // format (the key was already upgraded by the parser). Applied
        // after the loop so a genuine v5 line for the same key wins
        // regardless of file order — the same precedence load_disk_cache
        // uses.
        RunMetrics m;
        if (!deserialize_v4(parsed->payload, m)) continue;
        shimmed.emplace_back(std::move(parsed->key), serialize(m));
      } else {
        lines.emplace(std::move(parsed->key), std::move(parsed->payload));
      }
    }
    for (auto& [key, payload] : shimmed) {
      lines.emplace(std::move(key), std::move(payload));
    }
  }
  for (const auto& [key, m] : cache_) lines[key] = serialize(m);

  // pid + process-wide counter: unique even when several runners in one
  // process share a cache path, so writers never interleave in one tmp.
  static std::atomic<unsigned> tmp_counter{0};
  const std::string tmp = cache_path_ + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(tmp_counter.fetch_add(1));
  bool written = false;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (out) {
      for (const auto& [key, text] : lines) out << key << '|' << text << '\n';
      out.flush();
      written = out.good();
    }
  }
  // Never install a partial file over a good cache (e.g. ENOSPC midway),
  // and keep dirty_/unsaved_ set on any failure so a later attempt retries.
  if (!written || std::rename(tmp.c_str(), cache_path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    // Warn once: an unwritable cache path silently re-simulates the whole
    // grid on every invocation, which is worth a diagnostic line.
    if (!persist_warned_) {
      persist_warned_ = true;
      std::fprintf(stderr,
                   "cdsim: warning: could not persist result cache to "
                   "\"%s\"; results will be re-simulated next run\n",
                   cache_path_.c_str());
    }
    return;
  }
  dirty_ = false;
  unsaved_ = 0;
}

std::string ExperimentRunner::config_desc(
    const workload::Benchmark& bench, std::uint64_t total_l2_bytes,
    const decay::DecayConfig& technique) const {
  // The display label alone is ambiguous: it truncates decay_time to KiB
  // and omits hierarchical_ticks, so distinct configs could share a key
  // (and therefore a cached result and a seed). Keep the label as its own
  // component — load_disk_cache recovers it for figure output — and add
  // the raw decay parameters, normalized the same way make_system_config
  // normalizes them so physically identical configs get identical keys.
  const bool decays = decay::uses_decay(technique.technique);
  // run_config turns a zero decay_time into the benign default 4, so a
  // decaying config written with decay_time 0 simulates identically to one
  // written with 4 — give them the same key.
  const Cycle decay_time =
      decays ? (technique.decay_time == 0 ? 4 : technique.decay_time) : 0;
  const std::uint32_t ticks = decays ? technique.hierarchical_ticks : 0;
  return bench.config.name + "/" + std::to_string(total_l2_bytes) + "/" +
         technique.label() + "/dt" + std::to_string(decay_time) + "t" +
         std::to_string(ticks) + "/" + std::to_string(instructions_);
}

std::string ExperimentRunner::key_for(
    const workload::Benchmark& bench, std::uint64_t total_l2_bytes,
    const decay::DecayConfig& technique) const {
  return config_desc(bench, total_l2_bytes, technique) + "/" + kCacheVersion;
}

RunMetrics ExperimentRunner::simulate(
    const workload::Benchmark& bench, std::uint64_t total_l2_bytes,
    const decay::DecayConfig& technique) const {
  SystemConfig cfg = make_system_config(total_l2_bytes, technique);
  cfg.instructions_per_core = instructions_;
  return run_config(cfg, bench);  // run_config derives the cell seed
}

const RunMetrics& ExperimentRunner::run(const workload::Benchmark& bench,
                                        std::uint64_t total_l2_bytes,
                                        const decay::DecayConfig& technique) {
  const std::string key = key_for(bench, total_l2_bytes, technique);
  {
    std::scoped_lock lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  // Simulate outside the lock so concurrent callers make progress. Two
  // threads racing on the same key both compute the same (deterministic)
  // result; emplace keeps the first.
  //
  // Happens-before (memoization handoff): the inserting thread releases
  // mu_ after emplace; every later reader acquires mu_ before find() and
  // only dereferences the node after that acquire, so the entry's contents
  // are visible. Returning `it->second` by reference outside the lock is
  // sound because std::map nodes are pointer-stable and a memoized entry
  // is never mutated after insertion.
  RunMetrics m = simulate(bench, total_l2_bytes, technique);
  std::scoped_lock lock(mu_);
  const auto [it, inserted] = cache_.emplace(key, std::move(m));
  if (inserted) {
    dirty_ = true;
    // Throttled incremental persistence: a killed process loses at most
    // the last few results, without rewriting the file per configuration.
    if (++unsaved_ >= kPersistEvery) persist_disk_cache_locked();
  }
  return it->second;
}

RelativeMetrics ExperimentRunner::relative(
    const workload::Benchmark& bench, std::uint64_t total_l2_bytes,
    const decay::DecayConfig& technique) {
  const RunMetrics& base = run(bench, total_l2_bytes, baseline_config());
  const RunMetrics& tech = run(bench, total_l2_bytes, technique);
  return relative_to(base, tech);
}

RelativeMetrics ExperimentRunner::suite_average(
    std::uint64_t total_l2_bytes, const decay::DecayConfig& technique) {
  RelativeMetrics avg;
  avg.occupation = 0.0;
  const auto& suite = workload::benchmark_suite();
  CDSIM_ASSERT(!suite.empty());
  for (const auto& b : suite) {
    const RelativeMetrics r = relative(b, total_l2_bytes, technique);
    avg.occupation += r.occupation;
    avg.miss_rate += r.miss_rate;
    avg.bw_increase += r.bw_increase;
    avg.amat_increase += r.amat_increase;
    avg.energy_reduction += r.energy_reduction;
    avg.ipc_loss += r.ipc_loss;
  }
  const double n = static_cast<double>(suite.size());
  avg.occupation /= n;
  avg.miss_rate /= n;
  avg.bw_increase /= n;
  avg.amat_increase /= n;
  avg.energy_reduction /= n;
  avg.ipc_loss /= n;
  return avg;
}

}  // namespace cdsim::sim
