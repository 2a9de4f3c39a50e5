#include "cdsim/sim/experiment.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <latch>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/hash.hpp"
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
// v7 names one machine line_bytes and drops the fields CmpSystem derives;
// v8 ends every line with its checksum.
constexpr const char* kCacheVersion = "v8";

/// The memo key: the three labels parse_cache_line reads back, then every
/// leaf of the machine, then the version.
std::string cache_key(const MachineCell& cell) {
  return cell.bench->config.name + "/" +
         std::to_string(cell.config.total_l2_bytes) + "/" +
         cell.config.decay.label() + "/" + describe(cell.config) + "/" +
         kCacheVersion;
}

/// The machine `cell` runs: its benchmark and every leaf of its config
/// but the three techniques, which accounting views vary.
std::string machine_id(const MachineCell& cell) {
  SystemConfig cfg = cell.config;
  cfg.l1_decay = cfg.decay = cfg.l3_decay = baseline_config();
  return cell.bench->config.name + "/" + describe(cfg);
}

/// One timing class of a fill: the jobs one run keeps as accounting views.
using TimingClass = std::vector<std::size_t>;

/// One machine of a fill: its machine_id and its timing classes in the
/// order they first appear.
using Machine = std::pair<std::string, std::vector<TimingClass>>;

constexpr std::size_t kAlone = std::numeric_limits<std::size_t>::max();

/// One simulation of a fill, unless a driver's run serves it.
struct Run {
  std::vector<std::size_t> jobs;  ///< Its timing class, one view per job.
  /// The run that may serve this one as a rider, or kAlone.
  std::size_t driver = kAlone;
  std::vector<std::size_t> riders;  ///< The runs whose jobs this one carries.
};

/// Every machine's lists, round-robin: each list's first entry, then each
/// list's second, and so on.
template <typename T>
std::vector<T> round_robin(const std::vector<std::vector<T>>& lists) {
  std::size_t depth = 0;
  for (const std::vector<T>& list : lists) depth = std::max(depth, list.size());
  std::vector<T> out;
  for (std::size_t k = 0; k < depth; ++k) {
    for (const std::vector<T>& list : lists) {
      if (k < list.size()) out.push_back(list[k]);
    }
  }
  return out;
}

/// The runs of a fill, in the order they go out. Within a machine, a class
/// rides on the run of its driver, its jobs kept there as extra views
/// with agree_until as their horizon: of the classes it agrees with for a
/// while (agree_until > 0: the same levels decay, and each config has a
/// tick period), the one that can turn a line off latest, the first
/// listed on a tie. A class that is its own driver leads its own run.
/// First go every machine's leads, drivers before the others so they
/// finish first, then the riders in ascending horizon, the least likely
/// to be served first. Both go round-robin over the machines: a machine's
/// runs replay one workload and have about equal footprints, so back to
/// back the workers would run them side by side and peak memory would be
/// the largest machine's footprint times the worker count. A rider among
/// the first `workers` runs would leave a worker idle while its driver
/// runs, so it runs unconditionally instead.
std::vector<Run> plan_runs(const std::vector<Machine>& machines,
                           const std::vector<const MachineCell*>& jobs,
                           unsigned workers) {
  using Slot = std::pair<std::size_t, std::size_t>;  // (machine, class)
  std::vector<std::vector<Slot>> leads(machines.size());
  std::vector<std::vector<Slot>> riders(machines.size());
  // Per machine and class: the class whose run may serve it (itself when
  // it leads), and where the class goes out.
  std::vector<std::vector<std::size_t>> driver(machines.size());
  std::vector<std::vector<std::size_t>> position(machines.size());
  for (std::size_t m = 0; m < machines.size(); ++m) {
    const std::vector<TimingClass>& classes = machines[m].second;
    std::vector<AccountingView> view;
    for (const TimingClass& c : classes) {
      view.push_back(AccountingView::of(jobs[c.front()]->config));
    }
    const auto turnoff = [&](std::size_t c) {
      return std::min({decay::first_turnoff(view[c].l1),
                       decay::first_turnoff(view[c].l2),
                       decay::first_turnoff(view[c].l3)});
    };
    std::vector<Cycle> horizon(classes.size());
    driver[m].resize(classes.size());
    position[m].resize(classes.size());
    for (std::size_t c = 0; c < classes.size(); ++c) {
      // Agreeing for a while is an equivalence, so every class of a group
      // picks the same driver.
      std::size_t d = kAlone;
      for (std::size_t o = 0; o < classes.size(); ++o) {
        if (agree_until(view[o], view[c]) > 0 &&
            (d == kAlone || turnoff(o) > turnoff(d))) {
          d = o;
        }
      }
      driver[m][c] = d;
      horizon[c] = agree_until(view[d], view[c]);
    }
    std::vector<char> drives(classes.size(), 0);
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (driver[m][c] != c) {
        drives[driver[m][c]] = 1;
        riders[m].push_back({m, c});
      }
    }
    for (const char first : {1, 0}) {
      for (std::size_t c = 0; c < classes.size(); ++c) {
        if (driver[m][c] == c && drives[c] == first) leads[m].push_back({m, c});
      }
    }
    std::stable_sort(riders[m].begin(), riders[m].end(),
                     [&](const Slot& a, const Slot& b) {
                       return horizon[a.second] < horizon[b.second];
                     });
  }
  std::vector<Slot> order = round_robin(leads);
  for (const Slot& s : round_robin(riders)) order.push_back(s);

  std::vector<Run> runs(order.size());
  for (std::size_t p = 0; p < order.size(); ++p) {
    const auto [m, c] = order[p];
    position[m][c] = p;
    runs[p].jobs = machines[m].second[c];
  }
  for (std::size_t p = workers; p < order.size(); ++p) {
    const auto [m, c] = order[p];
    if (driver[m][c] == c) continue;
    runs[p].driver = position[m][driver[m][c]];
    runs[runs[p].driver].riders.push_back(p);
  }
  return runs;
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

/// The 16 lowercase hex digits that end a cache line: FNV-1a of the text
/// before them and their bar.
std::string checksum_hex(std::string_view text) {
  std::array<char, 17> hex{};
  std::snprintf(hex.data(), hex.size(), "%016llx",
                static_cast<unsigned long long>(fnv1a(text)));
  return hex.data();
}

/// One cache line, without its newline: "<key>|<payload>|<checksum>".
std::string cache_line(const std::string& key, const RunMetrics& m) {
  std::string line = key + '|' + serialize(m);
  return line + '|' + checksum_hex(line);
}

/// Parses one cache line into its key and metrics (labels recovered from
/// the key); lines whose checksum fails (a torn tail, two glued lines, an
/// edited digit), malformed lines, corrupt payloads and other versions
/// yield nullopt. The single gatekeeper of what loads.
std::optional<std::pair<std::string, RunMetrics>> parse_cache_line(
    std::string_view line) {
  const auto sum = line.rfind('|');
  if (sum == std::string_view::npos ||
      line.substr(sum + 1) != checksum_hex(line.substr(0, sum))) {
    return std::nullopt;
  }
  line = line.substr(0, sum);
  const auto bar = line.find('|');
  if (bar == std::string_view::npos) return std::nullopt;
  std::string key(line.substr(0, bar));
  if (!key.ends_with(std::string("/") + kCacheVersion)) return std::nullopt;
  RunMetrics m;
  if (!deserialize(std::string(line.substr(bar + 1)), m)) return std::nullopt;
  // The key is bench/size/technique/<describe>/<version>.
  std::istringstream ks(key);
  std::string size;
  std::getline(ks, m.benchmark, '/');
  std::getline(ks, size, '/');
  std::getline(ks, m.technique, '/');
  m.total_l2_bytes = std::strtoull(size.c_str(), nullptr, 10);
  return std::pair{std::move(key), std::move(m)};
}

/// Appends `lines` to the file at `path` in one unbuffered append-mode
/// write: O_APPEND places each write() at the end of the file as one
/// unit, so writers sharing the file, in this process or another, never
/// interleave inside each other's lines. False when the file cannot be
/// opened or written.
bool append_lines(const std::string& path, std::string lines) {
  const auto close = [](std::FILE* f) { std::fclose(f); };
  std::unique_ptr<std::FILE, decltype(close)> f(
      std::fopen(path.c_str(), "a+b"), close);
  if (f == nullptr) return false;
  std::setvbuf(f.get(), nullptr, _IONBF, 0);
  // A writer that died mid-line left no newline: start a fresh line, so
  // the torn one fails its checksum alone.
  if (std::fseek(f.get(), -1, SEEK_END) == 0 && std::fgetc(f.get()) != '\n') {
    lines.insert(0, 1, '\n');
  }
  const bool written =
      std::fseek(f.get(), 0, SEEK_END) == 0 &&
      std::fwrite(lines.data(), 1, lines.size(), f.get()) == lines.size();
  // fclose's own result says whether the write reached the file.
  return std::fclose(f.release()) == 0 && written;
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

namespace {
/// The CDSIM_INSTR budget, else `fallback`; a set value that is not a
/// positive decimal count throws std::invalid_argument prefixed by `who`.
std::uint64_t instructions_or_throw(std::uint64_t fallback, const char* who) {
  const char* env = std::getenv("CDSIM_INSTR");
  if (env == nullptr) return fallback;
  if (const std::optional<std::uint64_t> v = parse_positive_u64(env)) {
    return *v;
  }
  throw std::invalid_argument(std::string(who) + ": CDSIM_INSTR=\"" + env +
                              "\" is invalid: expected a positive 64-bit "
                              "decimal instruction count");
}
}  // namespace

std::optional<std::uint64_t> instructions_from_env(std::uint64_t fallback,
                                                   const char* who) {
  try {
    return instructions_or_throw(fallback, who);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return std::nullopt;
  }
}
}  // namespace detail

std::uint64_t derive_config_seed(std::string_view config) noexcept {
  // FNV-1a over the description, whitened through Xoshiro256 so nearby
  // descriptions ("...1/..." vs "...2/...") yield uncorrelated streams.
  Xoshiro256 rng(fnv1a(config));
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
  return *run_config(cfg, bench, {AccountingView::of(cfg)}).front();
}

std::vector<std::optional<RunMetrics>> run_config(
    const SystemConfig& cfg, const workload::Benchmark& bench,
    const std::vector<AccountingView>& views) {
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
  std::vector<std::optional<RunMetrics>> ms = sys.run(views);
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
    : instructions_(detail::instructions_or_throw(instructions_per_core,
                                                  "cdsim")) {
  if (instructions_ == 0) instructions_ = SystemConfig{}.instructions_per_core;
  if (!cache_path.empty()) {
    cache_path_ = std::move(cache_path);
  } else if (const char* path = std::getenv("CDSIM_CACHE_FILE")) {
    if (*path == '\0') {
      throw std::invalid_argument(
          "cdsim: CDSIM_CACHE_FILE is set but empty: expected a cache file "
          "path (unset it to use the default)");
    }
    cache_path_ = path;
  } else {
    cache_path_ = "cdsim_results.cache";
  }
  load_disk_cache();
}

void ExperimentRunner::load_disk_cache() {
  std::ifstream in(cache_path_);
  std::string line;
  while (std::getline(in, line)) {
    // insert keeps the first valid line of a key. Other-version entries
    // may deserialize cleanly but describe a different simulator;
    // parse_cache_line keeps them out of the memo.
    if (auto entry = parse_cache_line(line)) cache_.insert(std::move(*entry));
  }
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
  std::vector<Machine> machines;
  {
    std::scoped_lock lock(mu_);
    std::set<std::string> listed;
    for (const MachineCell& cell : cells) {
      const std::string key = cache_key(cell);
      if (!listed.insert(key).second) continue;  // listed twice
      if (cache_.find(key) != cache_.end()) {
        ++stats.reused;
        continue;
      }
      const std::string id = machine_id(cell);
      auto machine = std::find_if(machines.begin(), machines.end(),
                                  [&](const auto& m) { return m.first == id; });
      if (machine == machines.end()) {
        machine = machines.emplace(machines.end(), id,
                                   std::vector<TimingClass>{});
      }
      const AccountingView view = AccountingView::of(cell.config);
      auto run = std::find_if(
          machine->second.begin(), machine->second.end(),
          [&](const TimingClass& c) {
            return agree_until(AccountingView::of(jobs[c.front()]->config),
                               view) == decay::kNever;
          });
      if (run == machine->second.end()) {
        run = machine->second.emplace(machine->second.end());
      }
      run->push_back(jobs.size());
      jobs.push_back(&cell);
    }
  }
  if (jobs.empty()) return stats;

  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  stats.workers = workers;
  const std::vector<Run> runs = plan_runs(machines, jobs, workers);
  // Each simulation writes only the slots of the jobs it kept books for
  // and that came back: its own jobs always, a rider's when the run ended
  // before the rider's horizon. The merge below runs in job order under
  // the lock, so the memo map and the cache file are independent of
  // thread scheduling. Each run seeds from its own config alone
  // (run_config derives the seed), and every view's books are kept
  // exactly as its standalone run keeps them, so the merge is
  // bit-identical to running every cell by itself.
  //
  // Happens-before: a driver's results[] stores -> its finished[]
  // count_down -> the wait of each rider it carries, which then reads its
  // first job's slot and, empty, writes its own slots. Every store ->
  // parallel_for's join -> the merge's reads. A rider waits only on a run
  // listed before it, which a worker has already taken, so a wait always
  // ends.
  std::vector<std::optional<RunMetrics>> results(jobs.size());
  std::deque<std::latch> finished;
  for (std::size_t r = 0; r < runs.size(); ++r) finished.emplace_back(1);
  std::atomic<std::size_t> made{0};
  const auto simulate = [&](std::size_t r) {
    // The run's own jobs, then each rider's: one view per job.
    std::vector<std::size_t> kept = runs[r].jobs;
    for (const std::size_t c : runs[r].riders) {
      kept.insert(kept.end(), runs[c].jobs.begin(), runs[c].jobs.end());
    }
    std::vector<AccountingView> views;
    for (const std::size_t i : kept) {
      views.push_back(AccountingView::of(jobs[i]->config));
    }
    const MachineCell& lead = *jobs[kept.front()];
    ++made;
    std::vector<std::optional<RunMetrics>> ms =
        run_config(lead.config, *lead.bench, views);
    for (std::size_t k = 0; k < kept.size(); ++k) {
      if (ms[k]) results[kept[k]] = std::move(ms[k]);
    }
  };
  parallel_for(runs.size(), workers, [&](std::size_t r) {
    if (runs[r].driver != kAlone) {
      finished[runs[r].driver].wait();
      // A rider's jobs share one horizon: all came back, or none.
      if (results[runs[r].jobs.front()]) return;
    }
    try {
      simulate(r);
    } catch (...) {
      finished[r].count_down();  // a failed driver serves nobody
      throw;
    }
    finished[r].count_down();
  });
  stats.timing_runs = made;

  // Happens-before: this mu_ acquire pairs with the release in any
  // concurrent fill that inserted one of our cells while we simulated —
  // emplace then fails and we count the cell as reused instead of
  // clobbering it (tests/tsan_grid_test.cpp races exactly this). Every
  // reader acquires mu_ before find() and only dereferences the node after
  // that, so an entry's contents are visible to it; std::map nodes are
  // pointer-stable and an entry is never mutated after insertion, so a
  // reference to one stays valid outside the lock. The cache file gets
  // one line per result memoized here, in cell order, under the same
  // lock, so this runner's appends never overlap.
  std::scoped_lock lock(mu_);
  std::string lines;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto [it, fresh] =
        cache_.emplace(cache_key(*jobs[i]), std::move(results[i]).value());
    if (fresh) {
      ++stats.simulated;
      lines += cache_line(it->first, it->second) + '\n';
    } else {
      ++stats.reused;  // a concurrent fill beat us to this cell
    }
  }
  // Warn once: an unwritable cache path silently re-simulates the whole
  // grid on every invocation, which is worth a diagnostic line.
  if (!lines.empty() && !append_lines(cache_path_, std::move(lines)) &&
      !persist_warned_) {
    persist_warned_ = true;
    std::fprintf(stderr,
                 "cdsim: warning: could not persist result cache to "
                 "\"%s\"; results will be re-simulated next run\n",
                 cache_path_.c_str());
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
  fill({cell}, 1);
  std::scoped_lock lock(mu_);
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
