#include "cdsim/sim/experiment.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
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
// version-free (benchmark, size, budget) description (see
// normalized_run_config), so bumping this never changes simulation
// results. v5 added the memory side (mem_model, DRAM and TLB counters, two
// DRAM ledger components); v6 keys every leaf of the machine (describe);
// v7 names one machine line_bytes and drops the fields CmpSystem derives.
constexpr const char* kCacheVersion = "v7";

/// The memo key: the three labels parse_cache_line reads back, then every
/// leaf of the machine, then the version.
std::string cache_key(const MachineCell& cell) {
  return cell.bench->config.name + "/" +
         std::to_string(cell.config.total_l2_bytes) + "/" +
         cell.config.decay.label() + "/" + describe(cell.config) + "/" +
         kCacheVersion;
}

/// `cell` as one string with each level's technique read as baseline when
/// it never decays (every technique, when `all`): equal for two cells of
/// one timing class (decay::same_timing at every level), or, with `all`,
/// of one machine.
std::string masked(const MachineCell& cell, bool all) {
  SystemConfig cfg = cell.config;
  for (decay::DecayConfig* d : {&cfg.l1_decay, &cfg.decay, &cfg.l3_decay}) {
    if (all || !decay::uses_decay(d->technique)) *d = baseline_config();
  }
  return cell.bench->config.name + "/" + describe(cfg);
}

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
  // The key is bench/size/technique/<describe>/<version>.
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

std::optional<std::uint64_t> instructions_from_env(std::uint64_t fallback,
                                                   const char* who) {
  const char* env = std::getenv("CDSIM_INSTR");
  if (env == nullptr) return fallback;
  const std::optional<std::uint64_t> v = parse_positive_u64(env);
  if (!v) {
    std::fprintf(stderr,
                 "%s: CDSIM_INSTR=\"%s\" is invalid: expected a positive "
                 "64-bit decimal instruction count\n",
                 who, env);
  }
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
    // The seed depends only on (benchmark, size, budget): the hash keeps
    // one file per machine.
    std::array<char, 10> hash{};
    std::snprintf(hash.data(), hash.size(), "_%08x",
                  static_cast<unsigned>(derive_config_seed(describe(fixed))));
    stem += hash.data();
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
                                   std::string cache_path) {
  const auto instr = detail::instructions_from_env(instructions_per_core,
                                                   "cdsim");
  if (!instr) std::abort();
  instructions_ = *instr;
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

MachineCell ExperimentRunner::grid_cell(
    const workload::Benchmark& bench, std::uint64_t total_l2_bytes,
    const decay::DecayConfig& technique) const {
  SystemConfig cfg = make_system_config(total_l2_bytes, technique);
  cfg.instructions_per_core = instructions_;
  return {cfg, &bench};
}

SweepStats ExperimentRunner::fill(const std::vector<MachineCell>& cells,
                                  unsigned workers) {
  SweepStats stats;
  std::vector<const MachineCell*> jobs;
  // One simulation per timing class: the jobs that share it, every one an
  // accounting view of the run of the first. Run order: every machine's
  // first simulation, then every machine's second, and so on. A machine's
  // runs replay one workload, so their memory footprints are about equal;
  // back to back, the workers would run them side by side, and peak memory
  // would be the largest machine's footprint times the worker count.
  // Interleaved, the simulations in flight come from different machines.
  std::vector<std::vector<std::size_t>> runs;
  {
    std::scoped_lock lock(mu_);
    std::set<std::string> listed;
    // Per machine (masked(cell, true)), its timing classes
    // (masked(cell, false)) in the order they first appear.
    using Classes =
        std::vector<std::pair<std::string, std::vector<std::size_t>>>;
    std::vector<std::pair<std::string, Classes>> machines;
    for (const MachineCell& cell : cells) {
      const std::string key = cache_key(cell);
      if (!listed.insert(key).second) continue;  // listed twice
      if (cache_.find(key) != cache_.end()) {
        ++stats.reused;
        continue;
      }
      const std::string id = masked(cell, true);
      auto machine = std::find_if(machines.begin(), machines.end(),
                                  [&](const auto& m) { return m.first == id; });
      if (machine == machines.end()) {
        machine = machines.emplace(machines.end(), id, Classes{});
      }
      const std::string timing = masked(cell, false);
      auto run = std::find_if(machine->second.begin(), machine->second.end(),
                              [&](const auto& r) { return r.first == timing; });
      if (run == machine->second.end()) {
        run = machine->second.emplace(machine->second.end(), timing,
                                      std::vector<std::size_t>{});
      }
      run->second.push_back(jobs.size());
      jobs.push_back(&cell);
    }
    std::size_t depth = 0;
    for (const auto& m : machines) depth = std::max(depth, m.second.size());
    for (std::size_t k = 0; k < depth; ++k) {
      for (auto& m : machines) {
        if (k < m.second.size()) runs.push_back(std::move(m.second[k].second));
      }
    }
  }
  if (jobs.empty()) return stats;

  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  stats.workers = workers;
  stats.timing_runs = runs.size();
  // Each simulation writes only its own jobs' slots; the merge below runs
  // in job order under the lock, so the memo map and the cache file are
  // independent of thread scheduling. Each run seeds from its own config
  // alone (run_config derives the seed), and a view's books are kept
  // exactly as its standalone run keeps them, so the merge is
  // bit-identical to running every cell by itself.
  //
  // Happens-before: the results[] stores of every worker -> parallel_for's
  // join -> the reads of results[] in the merge below. No slot is written
  // by two threads, so the join is the only edge needed.
  std::vector<RunMetrics> results(jobs.size());
  parallel_for(runs.size(), workers, [&](std::size_t r) {
    const std::vector<std::size_t>& ids = runs[r];
    const MachineCell& lead = *jobs[ids.front()];
    std::vector<AccountingView> views;
    views.reserve(ids.size());
    for (const std::size_t i : ids) {
      views.push_back(AccountingView::of(jobs[i]->config));
    }
    std::vector<RunMetrics> ms =
        run_config(lead.config, *lead.bench, std::move(views));
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
    if (cache_.emplace(cache_key(*jobs[i]), std::move(results[i])).second) {
      ++stats.simulated;
      dirty_ = true;  // so the destructor retries if a persist fails
      ++unsaved_;
    } else {
      ++stats.reused;  // a concurrent fill beat us to this cell
    }
  }
  return stats;
}

MachineResults ExperimentRunner::run_machines(
    const std::vector<MachineCell>& cells, unsigned workers) {
  MachineResults out{.metrics = {}, .stats = fill(cells, workers)};
  // Host-profiling aggregation: the phase accumulators are process-global
  // atomics, so worker shards fold in for free — one summary covers the
  // whole fill.
  if (out.stats.timing_runs != 0 && prof::HostProfiler::enabled()) {
    prof::HostProfiler::report(stderr);
  }
  std::scoped_lock lock(mu_);
  if (out.stats.timing_runs != 0) persist_disk_cache_locked();
  out.metrics.reserve(cells.size());
  for (const MachineCell& cell : cells) {
    out.metrics.push_back(cache_.at(cache_key(cell)));
  }
  return out;
}

const RunMetrics& ExperimentRunner::run(const workload::Benchmark& bench,
                                        std::uint64_t total_l2_bytes,
                                        const decay::DecayConfig& technique) {
  const MachineCell cell = grid_cell(bench, total_l2_bytes, technique);
  const SweepStats stats = fill({cell}, 1);
  std::scoped_lock lock(mu_);
  // Throttled incremental persistence: a killed process loses at most the
  // last few results, without rewriting the file per configuration.
  if (stats.simulated != 0 && unsaved_ >= kPersistEvery) {
    persist_disk_cache_locked();
  }
  return cache_.at(cache_key(cell));
}

SweepStats ExperimentRunner::run_grid(
    const std::vector<workload::Benchmark>& benchmarks,
    const std::vector<std::uint64_t>& sizes,
    const std::vector<decay::DecayConfig>& techniques, unsigned workers) {
  // Every relative metric divides by the matching baseline run, so the
  // baseline is an implicit member of every technique sweep.
  std::vector<MachineCell> cells;
  for (const auto& bench : benchmarks) {
    for (const std::uint64_t bytes : sizes) {
      cells.push_back(grid_cell(bench, bytes, baseline_config()));
      for (const auto& tech : techniques) {
        cells.push_back(grid_cell(bench, bytes, tech));
      }
    }
  }
  return run_machines(cells, workers).stats;
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
