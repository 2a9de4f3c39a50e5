#include "cdsim/sim/experiment.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/host_timer.hpp"
#include "cdsim/common/rng.hpp"
#include "cdsim/sim/parallel.hpp"
#include "cdsim/verify/oracle.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "cdsim/workload/trace_v2.hpp"

namespace cdsim::sim {

namespace {
// Bump when the simulator's calibration or the persisted schema changes, so
// stale caches re-run: only the current version loads. The payload is
// every kRunMetricsFields leaf after the labels, in table order, so a
// schema change is a table edit plus a bump here. Seeds derive from the
// version-free configuration description (see derive_config_seed), so
// bumping this never changes simulation results. v5 added the memory side
// (mem_model, DRAM and TLB counters, two DRAM ledger components).
constexpr const char* kCacheVersion = "v5";

/// The payload: every leaf after the labels (the key carries those),
/// space-separated, doubles at max_digits10 so the round trip is exact.
std::string serialize(const RunMetrics& m) {
  std::ostringstream os;
  os.precision(17);
  std::size_t leaf = 0;
  for_each_metric(
      [&](const std::string&, const auto& v) {
        if (leaf++ >= kRunLabelFields) os << ' ' << v;
      },
      m);
  return os.str().substr(1);
}

/// Inverse of serialize; short, long and negative-energy payloads fail.
bool deserialize(const std::string& payload, RunMetrics& m) {
  std::istringstream is(payload);
  std::size_t leaf = 0;
  for_each_metric(
      [&](const std::string&, auto&& v) {
        if (leaf++ < kRunLabelFields) return;
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>,
                                     LedgerLeaf>) {
          // EnergyLedger::add asserts that energy only accumulates; a
          // corrupt line must be rejected here, not abort the loader.
          double e = 0.0;
          if (is >> e && e < 0.0) is.setstate(std::ios::failbit);
          if (!is.fail()) v.ledger->add(v.component, e);
        } else {
          is >> v;
        }
      },
      m);
  return !is.fail() && (is >> std::ws).eof();
}

/// Parses one cache line into its key and metrics (labels recovered from
/// the key); malformed lines, corrupt payloads and other versions yield
/// nullopt. The single gatekeeper for both loading and persisting.
std::optional<std::pair<std::string, RunMetrics>> parse_cache_line(
    const std::string& line) {
  const auto bar = line.find('|');
  if (bar == std::string::npos) return std::nullopt;
  std::string key = line.substr(0, bar);
  if (!key.ends_with(std::string("/") + kCacheVersion)) return std::nullopt;
  RunMetrics m;
  if (!deserialize(line.substr(bar + 1), m)) return std::nullopt;
  // The key is bench/size/technique/...
  std::istringstream ks(key);
  std::string size;
  std::getline(ks, m.benchmark, '/');
  std::getline(ks, size, '/');
  std::getline(ks, m.technique, '/');
  m.total_l2_bytes = std::strtoull(size.c_str(), nullptr, 10);
  return std::pair{std::move(key), std::move(m)};
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
  SystemConfig fixed = cfg;
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
  return run_config(cfg, bench, {AccountingView::of(cfg)}).front();
}

std::vector<RunMetrics> run_config(const SystemConfig& cfg,
                                   const workload::Benchmark& bench,
                                   std::vector<AccountingView> views) {
  const SystemConfig fixed = normalized_run_config(cfg, bench);

  // CDSIM_VERIFY=1: run every configuration against the differential
  // reference-model oracle (see cdsim/verify/oracle.hpp) and abort on the
  // first run whose delivered load values diverge from it. Roughly 2x
  // slower; the null-observer default is bit-identical to not checking.
  const char* venv = std::getenv("CDSIM_VERIFY");
  const bool verify = venv != nullptr && *venv != '\0' &&
                      std::string_view(venv) != std::string_view("0");
  // CDSIM_VERIFY_TRACE=<dir>: additionally stream the verified run's exact
  // op sequence into <dir>/<run>.cdt as chunked .cdt v2. The capture goes
  // straight to disk chunk by chunk (O(chunk) memory — no whole-trace copy
  // in shared state), and replaying the file reproduces the run
  // bit-identically.
  std::unique_ptr<workload::ChunkedTraceWriter> writer;
  workload::StreamFactory factory;  // stays null unless capturing
  const char* tenv = verify ? std::getenv("CDSIM_VERIFY_TRACE") : nullptr;
  if (tenv != nullptr && *tenv != '\0') {
    std::error_code ec;
    std::filesystem::create_directories(tenv, ec);  // best effort
    std::string stem;
    for (const char ch : bench.config.name + "_" + fixed.decay.label() + "_s" +
                             std::to_string(fixed.seed)) {
      const auto uc = static_cast<unsigned char>(ch);
      stem.push_back(std::isalnum(uc) != 0 ? ch : '_');
    }
    const std::string path = std::string(tenv) + "/" + stem + ".cdt";
    writer =
        std::make_unique<workload::ChunkedTraceWriter>(path, fixed.num_cores);
    if (!writer->ok()) {
      std::fprintf(stderr, "cdsim: CDSIM_VERIFY_TRACE: %s; capture disabled\n",
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
  if (verify) sys.set_observer(&checker);
  std::vector<RunMetrics> ms = sys.run(views);
  if (writer != nullptr && !writer->finish()) {
    std::fprintf(stderr, "cdsim: CDSIM_VERIFY_TRACE: %s\n",
                 writer->error().c_str());
  }
  if (checker.total_divergences() != 0) {
    std::fprintf(
        stderr,
        "cdsim: CDSIM_VERIFY: %llu value divergence(s) on %s/%s; first: %s\n",
        static_cast<unsigned long long>(checker.total_divergences()),
        bench.config.name.c_str(), fixed.decay.label().c_str(),
        verify::to_string(checker.divergences().front()).c_str());
    std::abort();
  }
  return ms;
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
  std::string line;
  while (std::getline(in, line)) {
    // Other-version entries may deserialize cleanly but describe a
    // different simulator; parse_cache_line keeps them out of the memo.
    if (auto entry = parse_cache_line(line)) cache_.insert(std::move(*entry));
  }
}

void ExperimentRunner::persist_disk_cache_locked() {
  // Merge whatever is on disk (another process may have added results since
  // we loaded) with the in-memory memo, then replace the file atomically:
  // the rename guarantees readers and concurrent writers only ever see a
  // complete file, never interleaved or half-written lines. Lines that
  // parse_cache_line rejects (other cache versions, corrupt payloads) are
  // dead weight, since lookups can never hit them, and are dropped here.
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
    while (std::getline(in, line)) {
      if (auto entry = parse_cache_line(line)) {
        lines.emplace(std::move(entry->first), serialize(entry->second));
      }
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
  const Cycle decay_time = decays ? technique.decay_time : 0;
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

SweepStats ExperimentRunner::fill(const std::vector<Cell>& cells,
                                  unsigned workers) {
  struct Job {
    const Cell* cell;
    std::string key;
  };
  SweepStats stats;
  std::vector<Job> jobs;
  // Per (benchmark, size) pair, one simulation per timing class: the jobs
  // of the pair that share it, every one an accounting view of the run of
  // the first.
  std::vector<std::vector<std::vector<std::size_t>>> pairs;
  {
    std::scoped_lock lock(mu_);
    std::set<std::string> listed;
    for (const Cell& cell : cells) {
      std::string key = key_for(*cell.bench, cell.total_l2_bytes,
                                cell.technique);
      if (!listed.insert(key).second) continue;  // listed twice
      if (cache_.find(key) != cache_.end()) {
        ++stats.reused;
        continue;
      }
      auto pair = std::find_if(
          pairs.begin(), pairs.end(),
          [&](const std::vector<std::vector<std::size_t>>& p) {
            const Cell& c = *jobs[p.front().front()].cell;
            return c.bench->config.name == cell.bench->config.name &&
                   c.total_l2_bytes == cell.total_l2_bytes;
          });
      if (pair == pairs.end()) pair = pairs.emplace(pairs.end());
      const auto run = std::find_if(
          pair->begin(), pair->end(), [&](const std::vector<std::size_t>& r) {
            return decay::same_timing(jobs[r.front()].cell->technique,
                                      cell.technique);
          });
      if (run == pair->end()) {
        pair->push_back({jobs.size()});
      } else {
        run->push_back(jobs.size());
      }
      jobs.push_back(Job{&cell, std::move(key)});
    }
  }
  if (jobs.empty()) return stats;

  // Run order: every pair's first simulation, then every pair's second,
  // and so on. A pair's runs replay one workload, so their memory
  // footprints are about equal; back to back, the workers would run them
  // side by side, and peak memory would be the largest pair's footprint
  // times the worker count. Interleaved, the simulations in flight come
  // from different pairs.
  std::size_t depth = 0;
  for (const auto& pair : pairs) depth = std::max(depth, pair.size());
  std::vector<const std::vector<std::size_t>*> runs;
  for (std::size_t k = 0; k < depth; ++k) {
    for (const auto& pair : pairs) {
      if (k < pair.size()) runs.push_back(&pair[k]);
    }
  }

  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  stats.workers = workers;
  stats.timing_runs = runs.size();
  // Each simulation writes only its own jobs' slots; the merge below runs
  // in job order under the lock, so the memo map and the cache file are
  // independent of thread scheduling. Each run seeds from its pair's
  // description alone (run_config derives the seed), and a view's books
  // are kept exactly as its standalone run keeps them, so the merge is
  // bit-identical to running every cell by itself.
  //
  // Happens-before: the results[] stores of every worker -> parallel_for's
  // join -> the reads of results[] in the merge below. No slot is written
  // by two threads, so the join is the only edge needed.
  std::vector<RunMetrics> results(jobs.size());
  parallel_for(runs.size(), workers, [&](std::size_t r) {
    const std::vector<std::size_t>& ids = *runs[r];
    const Cell& lead = *jobs[ids.front()].cell;
    SystemConfig cfg = make_system_config(lead.total_l2_bytes, lead.technique);
    cfg.instructions_per_core = instructions_;
    std::vector<AccountingView> views;
    views.reserve(ids.size());
    for (const std::size_t i : ids) {
      views.push_back(AccountingView::of(make_system_config(
          lead.total_l2_bytes, jobs[i].cell->technique)));
    }
    std::vector<RunMetrics> ms = run_config(cfg, *lead.bench, std::move(views));
    for (std::size_t k = 0; k < ids.size(); ++k) {
      results[ids[k]] = std::move(ms[k]);
    }
  });

  // Happens-before: this mu_ acquire pairs with the release in any
  // concurrent fill that inserted one of our cells while we simulated —
  // emplace then fails and we count the cell as reused instead of
  // clobbering it (tests/tsan_grid_test.cpp races exactly this). Every
  // reader acquires mu_ before find() and only dereferences the node after
  // that, so an entry's contents are visible to it; std::map nodes are
  // pointer-stable and an entry is never mutated after insertion, so a
  // reference to one stays valid outside the lock.
  std::scoped_lock lock(mu_);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (cache_.emplace(std::move(jobs[i].key), std::move(results[i])).second) {
      ++stats.simulated;
      dirty_ = true;  // so the destructor retries if a persist fails
      ++unsaved_;
    } else {
      ++stats.reused;  // a concurrent fill beat us to this cell
    }
  }
  return stats;
}

const RunMetrics& ExperimentRunner::run(const workload::Benchmark& bench,
                                        std::uint64_t total_l2_bytes,
                                        const decay::DecayConfig& technique) {
  const SweepStats stats = fill({Cell{&bench, total_l2_bytes, technique}}, 1);
  std::scoped_lock lock(mu_);
  // Throttled incremental persistence: a killed process loses at most the
  // last few results, without rewriting the file per configuration.
  if (stats.simulated != 0 && unsaved_ >= kPersistEvery) {
    persist_disk_cache_locked();
  }
  return cache_.at(key_for(bench, total_l2_bytes, technique));
}

SweepStats ExperimentRunner::run_grid(
    const std::vector<workload::Benchmark>& benchmarks,
    const std::vector<std::uint64_t>& sizes,
    const std::vector<decay::DecayConfig>& techniques, unsigned workers) {
  // Every relative metric divides by the matching baseline run, so the
  // baseline is an implicit member of every technique sweep.
  std::vector<Cell> cells;
  for (const auto& bench : benchmarks) {
    for (const std::uint64_t bytes : sizes) {
      cells.push_back(Cell{&bench, bytes, baseline_config()});
      for (const auto& tech : techniques) {
        cells.push_back(Cell{&bench, bytes, tech});
      }
    }
  }
  const SweepStats stats = fill(cells, workers);
  if (stats.timing_runs == 0) return stats;
  // Host-profiling aggregation: the phase accumulators are process-global
  // atomics, so worker shards fold in for free — one summary covers the
  // whole grid.
  if (prof::HostProfiler::enabled()) prof::HostProfiler::report(stderr);
  std::scoped_lock lock(mu_);
  persist_disk_cache_locked();
  return stats;
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
