// cdsim_perfbench: runs one named benchmark workload in one process, checks
// every simulated output, and prints every metric by name with its unit.
// perfbench/README.md explains the workloads and metrics.
//
// Usage: cdsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                        --workdir DIR
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (tracing off, plus an
// obs-attached rep for traced_ns_per_instr); with --trace 1 they are the
// per-layer ones. Files (the replay trace, the sweep's results cache) are
// written only under --workdir and removed before exit.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cdsim/common/host_timer.hpp"
#include "cdsim/common/version.hpp"
#include "cdsim/obs/interval_sampler.hpp"
#include "cdsim/obs/trace_recorder.hpp"
#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "cdsim/workload/trace_source.hpp"
#include "cdsim/workload/trace_v2.hpp"
#include "components.hpp"
#include "fingerprint.hpp"

namespace {

using namespace cdsim;
using perfbench::fingerprint;
using perfbench::hex;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload constants. Budgets are per core; changing one changes every
// number the workload reports, and its fingerprint pin.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kDefaultSeed = 42;
constexpr std::uint64_t kBus4InstrPerCore = 2'000'000;
/// Short enough for ~20 rounds of reps in a 30 s invocation, which the
/// slice filter needs on a noisy host (perfbench/README.md).
constexpr std::uint64_t kMesh16InstrPerCore = 62'500;
constexpr std::uint64_t kSweepInstrPerCore = 250'000;
constexpr std::uint64_t kSweepL2Bytes = 4 * MiB;
/// IntervalSampler window of the obs-attached reps.
constexpr Cycle kSamplePeriod = 10'000;
/// Every kind of rep runs at least this often, however short --seconds is.
constexpr int kMinReps = 3;
/// Set-ups timed per sweep rep (the sweep itself runs once per rep).
constexpr int kSweepSetupSamples = 16;
/// WorkloadStream::next calls per timed slice of a run: a few ms of host
/// time, short next to the host's bursts of noise, long next to a clock read.
constexpr std::uint64_t kSliceCalls = 4'096;

/// Fingerprint of every checked output on the default seed (paper-sweep is
/// seed-invariant, so its pin holds on every seed).
struct Pin {
  std::string_view workload;
  std::uint64_t fingerprint;
};
constexpr Pin kPins[] = {
    {"paper-bus4", 0x0e3df82feca911b3ULL},
    {"mesh16-dram", 0xb4a78b870e852100ULL},
    {"paper-sweep", 0x15c850aa99019872ULL},
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// ---------------------------------------------------------------------------
// Report: metrics by name, plus the output checks behind failed/attempted.
// ---------------------------------------------------------------------------

class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      check(false, "metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit});
  }

  /// One checked simulation: `ok` false counts it as failed.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  void print_json() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Checks a workload's output fingerprint against its pin.
void check_pin(Report& r, std::string_view workload, std::uint64_t seed,
               bool seed_invariant, std::uint64_t fp) {
  if (seed != kDefaultSeed && !seed_invariant) return;
  for (const Pin& p : kPins) {
    if (p.workload != workload) continue;
    r.check(fp == p.fingerprint, "fingerprint " + hex(fp) + " != pin " +
                                     hex(p.fingerprint) + " for " +
                                     std::string(workload));
  }
}

// ---------------------------------------------------------------------------
// One simulation: prepared machine, timed set-up and run, and the counters
// the per-layer metrics read.
// ---------------------------------------------------------------------------

struct Machine {
  sim::SystemConfig cfg;
  const workload::Benchmark* bench = nullptr;
  workload::StreamFactory streams;  ///< Empty: the benchmark's presets.
};

/// Builds a Machine, doing all of the workload's set-up work.
using Prepare = std::function<Machine()>;

/// Host time spent inside WorkloadStream::next, across all cores.
struct StreamTiming {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

/// Clock reads at fixed points of a run: one at every kSliceCalls-th
/// WorkloadStream::next call, counted over all cores. Reps simulate
/// bit-identically, so the k-th mark falls at the same simulated moment in
/// every rep, and the slice between two marks is the same work in each.
struct SliceMarks {
  std::uint64_t until_mark = kSliceCalls;
  std::vector<Clock::time_point> marks;
};

/// Stream decorator that marks slice boundaries (plain and attached reps).
class SlicedStream final : public workload::WorkloadStream {
 public:
  SlicedStream(workload::StreamPtr inner, SliceMarks* marks)
      : inner_(std::move(inner)), marks_(marks) {}

  workload::MemOp next(Cycle now) override {
    if (--marks_->until_mark == 0) {
      marks_->until_mark = kSliceCalls;
      marks_->marks.push_back(Clock::now());
    }
    return inner_->next(now);
  }

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

 private:
  workload::StreamPtr inner_;
  SliceMarks* marks_;
};

/// Stream decorator that times every next() call (profiled reps).
class TimedStream final : public workload::WorkloadStream {
 public:
  TimedStream(workload::StreamPtr inner, StreamTiming* timing)
      : inner_(std::move(inner)), timing_(timing) {}

  workload::MemOp next(Cycle now) override {
    const auto t0 = Clock::now();
    const workload::MemOp op = inner_->next(now);
    const auto t1 = Clock::now();
    ++timing_->calls;
    timing_->ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    return op;
  }

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

 private:
  workload::StreamPtr inner_;
  StreamTiming* timing_;
};

/// The machine's streams, each wrapped in a `Decorator` built with `arg`.
template <class Decorator, class Arg>
workload::StreamFactory decorated_factory(const Machine& mc, Arg* arg) {
  return [inner = mc.streams, bench = mc.bench, arg](
             CoreId core, std::uint64_t seed) -> workload::StreamPtr {
    workload::StreamPtr s = inner ? inner(core, seed)
                                  : workload::make_stream(*bench, core, seed);
    return std::make_unique<Decorator>(std::move(s), arg);
  };
}

/// What a rep attaches: nothing (plain), obs::TraceRecorder to /dev/null
/// plus obs::IntervalSampler (attached), or prof::HostProfiler plus the
/// timing stream decorator (profiled).
enum class Mode { kPlain, kAttached, kProfiled };

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  sim::RunMetrics m;
  std::uint64_t fp = 0;
  std::uint64_t events = 0;
  std::uint64_t upgrades = 0;
  std::uint64_t l2_retries = 0;
  double stall_frac[4] = {};  ///< dep, lq, rob, store over core-cycles.
  std::uint64_t trace_events = 0;
  std::uint64_t sampler_rows = 0;
  StreamTiming streams;
  /// run() cut at the slice marks: start to first mark, ..., last mark to
  /// end. Empty on profiled reps.
  std::vector<double> slice_s;
  std::uint64_t prof_ns[static_cast<std::size_t>(prof::Phase::kCount)] = {};
};

Rep run_rep(const Prepare& prepare, Mode mode) {
  Rep r;
  SliceMarks slices;
  slices.marks.reserve(4096);  // no allocation while run() is timed
  const auto t0 = Clock::now();
  Machine mc = prepare();
  sim::validate_system_config(mc.cfg);
  workload::StreamFactory streams =
      mode == Mode::kProfiled
          ? decorated_factory<TimedStream>(mc, &r.streams)
          : decorated_factory<SlicedStream>(mc, &slices);
  sim::CmpSystem sys(mc.cfg, *mc.bench, streams);
  const auto t1 = Clock::now();

  obs::TraceRecorder rec;
  obs::IntervalSampler sampler(kSamplePeriod);
  if (mode == Mode::kAttached) {
    std::string err;
    if (!rec.open("/dev/null", &err)) {
      throw std::runtime_error("cannot open trace sink: " + err);
    }
    sys.set_trace_recorder(&rec);
    sys.set_sampler(&sampler);
  }
  if (mode == Mode::kProfiled) {
    prof::HostProfiler::reset();
    prof::HostProfiler::set_enabled(true);
  }
  const auto t2 = Clock::now();
  r.m = sys.run();
  const auto t3 = Clock::now();
  prof::HostProfiler::set_enabled(false);
  if (mode == Mode::kAttached && !rec.close()) {
    throw std::runtime_error("trace sink write failed");
  }

  sys.check_coherence_invariants();  // aborts on a violation
  r.setup_s = seconds_between(t0, t1);
  r.run_s = seconds_between(t2, t3);
  if (mode != Mode::kProfiled) {
    Clock::time_point from = t2;
    for (const Clock::time_point mark : slices.marks) {
      r.slice_s.push_back(seconds_between(from, mark));
      from = mark;
    }
    r.slice_s.push_back(seconds_between(from, t3));
  }
  r.fp = fingerprint(r.m);
  r.events = sys.events().executed();
  r.trace_events = rec.events();
  r.sampler_rows = sampler.rows();
  using SR = core::CoreModel::StallReason;
  const SR reasons[4] = {SR::kDep, SR::kLoadQueue, SR::kRob, SR::kStore};
  std::uint64_t stalls[4] = {};
  for (CoreId c = 0; c < mc.cfg.num_cores; ++c) {
    r.upgrades += sys.l2(c).upgrades();
    r.l2_retries += sys.l2(c).transient_retries();
    for (int i = 0; i < 4; ++i) {
      stalls[i] += sys.core_model(c).stall_breakdown(reasons[i]);
    }
  }
  const double core_cycles =
      static_cast<double>(r.m.cycles) * static_cast<double>(mc.cfg.num_cores);
  for (int i = 0; i < 4; ++i) {
    r.stall_frac[i] = ratio(static_cast<double>(stalls[i]), core_cycles);
  }
  for (std::size_t i = 0; i < std::size(r.prof_ns); ++i) {
    r.prof_ns[i] = prof::HostProfiler::nanos(static_cast<prof::Phase>(i));
  }
  return r;
}

double ns_per_instr(const Rep& r) {
  return ratio(r.run_s * 1e9, static_cast<double>(r.m.instructions));
}

/// Pins the calling thread to the round-th CPU of its allowed set for the
/// guard's lifetime. On a shared host one vCPU can run ~40% slower than
/// the others for tens of seconds, and an unpinned thread tends to stay on
/// the CPU it started on; rotating by round lets every CPU contribute reps.
/// Best effort: with one allowed CPU, or if pinning fails, nothing changes.
class CpuPin {
 public:
  explicit CpuPin(int round) {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    const int n = CPU_COUNT(&saved_);
    if (n < 2) return;
    for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || seen++ != round % n) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      break;
    }
  }
  ~CpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }

  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

struct RepSet {
  std::vector<Rep> plain, attached, profiled;
  std::optional<std::uint64_t> first_fp;

  /// Runs one rep of `mode` on the CPU picked for `round`, and checks it
  /// against the first rep: every mode must produce bit-identical outputs.
  void run(const Prepare& prepare, Mode mode, int round, Report& report) {
    const CpuPin pin(round);
    Rep r = run_rep(prepare, mode);
    if (!first_fp) first_fp = r.fp;
    report.check(r.fp == *first_fp, "rep fingerprint " + hex(r.fp) +
                                        " differs from the first rep's " +
                                        hex(*first_fp));
    (mode == Mode::kPlain      ? plain
     : mode == Mode::kAttached ? attached
                               : profiled)
        .push_back(std::move(r));
  }
};

/// Runs a round of reps, one per mode, until `seconds` have passed and at
/// least kMinReps rounds ran.
void run_rounds(RepSet& set, const Prepare& prepare,
                const std::vector<Mode>& modes, double seconds,
                Report& report) {
  const auto start = Clock::now();
  for (int round = 0;
       round < kMinReps || seconds_between(start, Clock::now()) < seconds;
       ++round) {
    for (const Mode mode : modes) set.run(prepare, mode, round, report);
  }
}

/// The rep whose run() was fastest. Profiled metrics come from one rep, so
/// that its phase times add up within one run.
const Rep& fastest(const std::vector<Rep>& reps) {
  return *std::min_element(reps.begin(), reps.end(),
                           [](const Rep& a, const Rep& b) {
                             return a.run_s < b.run_s;
                           });
}

/// run() time of plain or attached reps with host noise filtered out: the
/// sum over slices of each slice's fastest time in any rep. See "Why the
/// fastest slices" in perfbench/README.md.
double filtered_run_s(const std::vector<Rep>& reps) {
  std::vector<double> best = reps.front().slice_s;
  for (const Rep& r : reps) {
    if (r.slice_s.size() != best.size()) {
      throw std::runtime_error("reps of one kind ran different slice counts");
    }
    for (std::size_t k = 0; k < best.size(); ++k) {
      best[k] = std::min(best[k], r.slice_s[k]);
    }
  }
  double sum = 0.0;
  for (const double s : best) sum += s;
  return sum;
}

double filtered_ns_per_instr(const std::vector<Rep>& reps) {
  return ratio(filtered_run_s(reps) * 1e9,
               static_cast<double>(reps.front().m.instructions));
}

/// Per-rep values, for reading the spread inside one invocation.
void print_series(const char* name, const std::vector<double>& v) {
  std::printf("series %s (%zu reps):", name, v.size());
  for (const double x : v) std::printf(" %.4g", x);
  std::printf("\n");
}

void print_rep_series(const RepSet& set) {
  for (const auto& [name, reps] :
       {std::pair{"plain_ns_per_instr", &set.plain},
        std::pair{"attached_ns_per_instr", &set.attached},
        std::pair{"profiled_ns_per_instr", &set.profiled}}) {
    if (reps->empty()) continue;
    std::vector<double> v;
    for (const Rep& r : *reps) v.push_back(ns_per_instr(r));
    print_series(name, v);
    if (reps->front().slice_s.empty()) continue;
    std::printf("filtered %s (%zu slices): %.4g\n", name,
                reps->front().slice_s.size(), filtered_ns_per_instr(*reps));
  }
}

void print_outputs(const sim::RunMetrics& m, std::uint64_t fp) {
  std::printf("outputs: cycles=%llu ipc=%.17g l2_occupation=%.17g "
              "l2_miss_rate=%.17g amat=%.17g energy=%.17g fingerprint=%s\n",
              static_cast<unsigned long long>(m.cycles), m.ipc,
              m.l2_occupation, m.l2_miss_rate, m.amat, m.energy,
              hex(fp).c_str());
}

// ---------------------------------------------------------------------------
// Workload machines.
// ---------------------------------------------------------------------------

const decay::DecayConfig kDecay64K{decay::Technique::kDecay, 64 * 1024, 4};

/// paper-bus4: bench_kernel's configuration (4-core MESI bus, 2 levels,
/// flat memory, mpeg2enc, 8 MB L2, decay64K) at a longer budget.
Machine bus4_machine(std::uint64_t seed) {
  const workload::Benchmark& bench = workload::benchmark_by_name("mpeg2enc");
  sim::SystemConfig cfg = sim::make_system_config(8 * MiB, kDecay64K);
  cfg.instructions_per_core = kBus4InstrPerCore;
  cfg.seed = seed;
  return Machine{sim::normalized_run_config(cfg, bench), &bench, {}};
}

/// Writes a .cdt v2 trace of the FMM generators, drawing one op per core
/// round-robin until every core has `instr_per_core` instructions. A
/// stream's `now` is its core's instruction count, i.e. IPC 1 pacing.
void write_fmm_trace(const std::string& path, std::uint32_t cores,
                     std::uint64_t instr_per_core, std::uint64_t seed) {
  const workload::Benchmark& fmm = workload::benchmark_by_name("FMM");
  workload::ChunkedTraceWriter writer(path, cores);
  std::vector<workload::StreamPtr> streams;
  for (CoreId c = 0; c < cores; ++c) {
    streams.push_back(workload::make_stream(fmm, c, seed));
  }
  std::vector<std::uint64_t> instr(cores, 0);
  for (bool more = true; more;) {
    more = false;
    for (CoreId c = 0; c < cores; ++c) {
      if (instr[c] >= instr_per_core) continue;
      const workload::MemOp op = streams[c]->next(instr[c]);
      writer.append(workload::TraceRecord{c, op});
      instr[c] += op.gap + 1;
      more = true;
    }
  }
  if (!writer.finish()) {
    throw std::runtime_error("trace write failed: " + writer.error());
  }
}

/// mesh16-dram: 16-core MOESI directory mesh, 3 levels (16 MB L2, 64 MB L3),
/// banked DRAM, per-core TLBs, decay64K at every level, replaying an FMM
/// trace written during set-up.
Machine mesh16_machine(const std::string& trace_path, std::uint64_t seed,
                       std::vector<double>* trace_write_s) {
  constexpr std::uint32_t kCores = 16;
  const auto t0 = Clock::now();
  write_fmm_trace(trace_path, kCores, kMesh16InstrPerCore, seed);
  trace_write_s->push_back(seconds_between(t0, Clock::now()));

  const workload::TraceOpener open = [trace_path] {
    std::string err;
    auto src = workload::open_trace_source(trace_path, &err);
    if (src == nullptr) throw std::runtime_error("trace open failed: " + err);
    return src;
  };
  const auto budgets = open()->per_core_instructions();

  sim::SystemConfig cfg = sim::make_system_config(16 * MiB, kDecay64K);
  cfg.num_cores = kCores;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.hierarchy = sim::Hierarchy::kThreeLevel;
  cfg.total_l3_bytes = 64 * MiB;
  cfg.protocol = coherence::Protocol::kMoesi;
  cfg.l1_decay = kDecay64K;
  cfg.l3_decay = kDecay64K;
  cfg.mem.model = mem::MemoryModel::kDram;
  cfg.mem.tlb.enabled = true;
  cfg.instructions_per_core = *std::max_element(budgets.begin(), budgets.end());
  cfg.per_core_instructions = budgets;
  cfg.seed = seed;
  return Machine{cfg, &workload::benchmark_by_name("FMM"),
                 workload::replay_factory(open)};
}

/// One cell of the paper-sweep grid, seeded exactly as run_grid seeds it.
Machine sweep_machine(const workload::Benchmark& bench,
                      const decay::DecayConfig& technique) {
  sim::SystemConfig cfg = sim::make_system_config(kSweepL2Bytes, technique);
  cfg.instructions_per_core = kSweepInstrPerCore;
  return Machine{sim::normalized_run_config(cfg, bench), &bench, {}};
}

/// The grid cell whose reps give paper-sweep its traced_ns_per_instr and
/// per-layer numbers: FMM under selective decay 64K, the sharing-heavy
/// benchmark under the technique only this workload runs.
Machine sweep_cell_machine() {
  return sweep_machine(
      workload::benchmark_by_name("FMM"),
      decay::DecayConfig{decay::Technique::kSelectiveDecay, 64 * 1024, 4});
}

// ---------------------------------------------------------------------------
// paper-sweep: ExperimentRunner::run_grid over the paper's grid at 4 MB.
// ---------------------------------------------------------------------------

struct SweepRep {
  double wall_s = 0.0;
  double cpu_util = 0.0;
  std::size_t simulated = 0;
  unsigned workers = 0;
  std::uint64_t instructions = 0;
  std::uint64_t fp = perfbench::kFnvBasis;
  std::vector<std::uint64_t> config_fps;
  std::vector<double> setup_samples;
  /// Suite averages per technique label (the paper's Fig. 5/6 quantities).
  std::vector<std::pair<std::string, sim::RelativeMetrics>> averages;
};

unsigned sweep_workers() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

SweepRep run_sweep(const std::string& cache_path) {
  SweepRep s;
  // Set-up is what precedes the sweep's first simulated event: the runner
  // with its empty results cache, then the first grid cell's config
  // validation and system construction. The probes repeat that work
  // outside run_grid, which does it internally.
  const auto& suite = workload::benchmark_suite();
  const auto setup_probe = [&] {
    const auto t0 = Clock::now();
    sim::ExperimentRunner probe(kSweepInstrPerCore, cache_path);
    const Machine mc = sweep_machine(suite.front(), sim::baseline_config());
    sim::validate_system_config(mc.cfg);
    const sim::CmpSystem sys(mc.cfg, *mc.bench);
    s.setup_samples.push_back(seconds_between(t0, Clock::now()));
  };
  std::filesystem::remove(cache_path);
  for (int i = 0; i < kSweepSetupSamples; ++i) setup_probe();
  sim::ExperimentRunner runner(kSweepInstrPerCore, cache_path);

  const auto techniques = sim::paper_technique_set();
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  const sim::SweepStats stats =
      runner.run_grid(suite, {kSweepL2Bytes}, techniques, sweep_workers());
  const auto end = Clock::now();
  const double cpu1 = process_cpu_s();
  s.wall_s = seconds_between(start, end);
  s.simulated = stats.simulated;
  s.workers = stats.workers;
  s.cpu_util = ratio(cpu1 - cpu0, s.wall_s * std::max(1u, stats.workers));

  std::vector<decay::DecayConfig> cells = {sim::baseline_config()};
  cells.insert(cells.end(), techniques.begin(), techniques.end());
  for (const workload::Benchmark& b : suite) {
    for (const decay::DecayConfig& t : cells) {
      const sim::RunMetrics& m = runner.run(b, kSweepL2Bytes, t);
      s.instructions += m.instructions;
      s.config_fps.push_back(fingerprint(m));
      s.fp = perfbench::fnv_fold(s.fp, s.config_fps.back());
    }
  }
  for (const decay::DecayConfig& t : techniques) {
    const sim::RelativeMetrics rel = runner.suite_average(kSweepL2Bytes, t);
    s.fp = perfbench::fnv_fold(
        s.fp, std::bit_cast<std::uint64_t>(rel.energy_reduction));
    s.fp = perfbench::fnv_fold(s.fp,
                               std::bit_cast<std::uint64_t>(rel.ipc_loss));
    s.averages.emplace_back(t.label(), rel);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Metric sets.
// ---------------------------------------------------------------------------

void end_to_end_single(Report& r, const RepSet& set) {
  std::vector<double> setups;
  for (const auto* reps : {&set.plain, &set.attached}) {
    for (const Rep& x : *reps) setups.push_back(x.setup_s);
  }
  r.metric("ns_per_instr", filtered_ns_per_instr(set.plain), "ns");
  r.metric("traced_ns_per_instr", filtered_ns_per_instr(set.attached), "ns");
  r.metric("configs_per_s",
           1.0 / (median(setups) + filtered_run_s(set.plain)), "1/s");
  r.metric("setup_s", median(setups), "s");
}

void end_to_end_sweep(Report& r, const std::vector<SweepRep>& sweeps,
                       const RepSet& cell) {
  const SweepRep& best = *std::min_element(
      sweeps.begin(), sweeps.end(),
      [](const SweepRep& a, const SweepRep& b) { return a.wall_s < b.wall_s; });
  std::vector<double> setups;
  for (const SweepRep& s : sweeps) {
    setups.insert(setups.end(), s.setup_samples.begin(), s.setup_samples.end());
  }
  r.metric("ns_per_instr",
           ratio(best.wall_s * 1e9, static_cast<double>(best.instructions)),
           "ns");
  r.metric("traced_ns_per_instr", filtered_ns_per_instr(cell.attached), "ns");
  r.metric("configs_per_s",
           ratio(static_cast<double>(best.simulated), best.wall_s), "1/s");
  r.metric("setup_s", median(setups), "s");
}

/// `set` holds plain, attached and profiled reps; `sweeps` is empty except
/// on paper-sweep.
void per_layer(Report& r, const RepSet& set, double trace_write_s,
               const perfbench::ComponentCosts& c,
               const std::vector<SweepRep>& sweeps) {
  // Counts are identical in every rep; host times come from the fastest
  // profiled rep, so its phase times add up within one run.
  const Rep& p = fastest(set.profiled);
  const sim::RunMetrics& m = p.m;
  const double instr = static_cast<double>(m.instructions);
  const double kinstr = instr / 1000.0;
  const bool mesh = m.topology != "bus";
  const auto prof_ms = [&p](prof::Phase ph) {
    return static_cast<double>(p.prof_ns[static_cast<std::size_t>(ph)]) / 1e6;
  };
  const double dispatch_ms = prof_ms(prof::Phase::kEventDispatch);
  double leaves_ms = 0.0;
  for (const prof::Phase ph :
       {prof::Phase::kDecaySweep, prof::Phase::kCoherence,
        prof::Phase::kFabric, prof::Phase::kDram, prof::Phase::kOracle}) {
    leaves_ms += prof_ms(ph);
  }
  const double unattributed_ms = std::max(0.0, dispatch_ms - leaves_ms);

  // common: EventQueue
  r.metric("eventq.events_per_instr",
           ratio(static_cast<double>(p.events), instr), "events/instr");
  r.metric("eventq.ns_per_event",
           ratio(filtered_run_s(set.plain) * 1e9, static_cast<double>(p.events)),
           "ns");
  // sim run loop
  r.metric("host.dispatch_ms", dispatch_ms, "ms");
  r.metric("host.unattributed_frac", ratio(unattributed_ms, dispatch_ms),
           "ratio");
  // core
  const char* stall_names[4] = {"dep", "lq", "rob", "store"};
  for (int i = 0; i < 4; ++i) {
    r.metric(std::string("core.stall_frac.") + stall_names[i], p.stall_frac[i],
             "ratio");
  }
  // cache
  r.metric("l1.miss_rate",
           ratio(static_cast<double>(m.l1.misses),
                 static_cast<double>(m.l1.accesses)),
           "ratio");
  r.metric("l2.miss_rate", m.l2_miss_rate, "ratio");
  r.metric("l2.occupation", m.l2_occupation, "ratio");
  r.metric("l2.retries", static_cast<double>(p.l2_retries), "count");
  r.metric("l3.miss_rate",
           ratio(static_cast<double>(m.l3.misses),
                 static_cast<double>(m.l3.accesses)),
           "ratio");
  r.metric("cache.amat_cyc", m.amat, "cycles");
  // decay
  const double turnoffs = static_cast<double>(
      m.l1.decay_turnoffs + m.l2.decay_turnoffs + m.l3.decay_turnoffs);
  const double induced =
      static_cast<double>(m.l1.decay_induced_misses +
                          m.l2.decay_induced_misses + m.l3.decay_induced_misses);
  r.metric("decay.turnoffs", turnoffs, "count");
  r.metric("decay.useful_frac",
           turnoffs > 0.0 ? 1.0 - induced / turnoffs : 0.0, "ratio");
  r.metric("host.decay_sweep_ms", prof_ms(prof::Phase::kDecaySweep), "ms");
  // coherence
  r.metric("coh.invals_per_kinstr",
           ratio(static_cast<double>(m.l2_coherence_invals), kinstr),
           "1/kinstr");
  r.metric("coh.upgrades", static_cast<double>(p.upgrades), "count");
  r.metric("dir.snoops_per_kinstr",
           ratio(static_cast<double>(m.dir_directed_snoops), kinstr),
           "1/kinstr");
  r.metric("dir.recalls", static_cast<double>(m.dir_recalls), "count");
  r.metric("dir.deferrals", static_cast<double>(m.dir_deferrals), "count");
  r.metric("host.coherence_ms", prof_ms(prof::Phase::kCoherence), "ms");
  // bus / noc (RunMetrics::bus_utilization is the bottleneck of whichever
  // fabric ran)
  r.metric("bus.utilization", mesh ? 0.0 : m.bus_utilization, "ratio");
  r.metric("host.fabric_ms", prof_ms(prof::Phase::kFabric), "ms");
  r.metric("noc.flit_hops_per_instr",
           ratio(static_cast<double>(m.noc_flit_hops), instr), "hops/instr");
  r.metric("noc.avg_pkt_latency_cyc", m.noc_avg_packet_latency, "cycles");
  r.metric("noc.bottleneck_util", mesh ? m.bus_utilization : 0.0, "ratio");
  // mem
  const double row_ops = static_cast<double>(
      m.dram_row_hits + m.dram_row_misses + m.dram_row_conflicts);
  r.metric("dram.row_hit_frac",
           ratio(static_cast<double>(m.dram_row_hits), row_ops), "ratio");
  r.metric("dram.conflicts_per_kinstr",
           ratio(static_cast<double>(m.dram_row_conflicts), kinstr),
           "1/kinstr");
  r.metric("dram.write_forwards", static_cast<double>(m.dram_write_forwards),
           "count");
  r.metric("dram.refreshes", static_cast<double>(m.dram_refreshes), "count");
  r.metric("tlb.hit_frac",
           ratio(static_cast<double>(m.tlb_hits),
                 static_cast<double>(m.tlb_hits + m.tlb_misses)),
           "ratio");
  r.metric("host.dram_ms", prof_ms(prof::Phase::kDram), "ms");
  // workload
  r.metric("workload.next_calls", static_cast<double>(p.streams.calls),
           "count");
  const double next_ns = ratio(static_cast<double>(p.streams.ns),
                               static_cast<double>(p.streams.calls));
  r.metric("workload.next_ns", next_ns, "ns");
  r.metric("workload.trace_write_s", trace_write_s, "s");
  // obs
  const Rep& a = set.attached.front();
  r.metric("obs.trace_events", static_cast<double>(a.trace_events), "count");
  r.metric("obs.sampler_rows", static_cast<double>(a.sampler_rows), "count");
  r.metric("obs.attached_ratio",
           ratio(filtered_run_s(set.attached), filtered_run_s(set.plain)),
           "ratio");
  // sweep
  std::vector<double> sim_n, workers, util;
  for (const SweepRep& s : sweeps) {
    sim_n.push_back(static_cast<double>(s.simulated));
    workers.push_back(static_cast<double>(s.workers));
    util.push_back(s.cpu_util);
  }
  r.metric("sweep.simulated", median(sim_n), "count");
  r.metric("sweep.workers", median(workers), "count");
  r.metric("sweep.cpu_util", median(util), "ratio");
  // component pass, and the self time it predicts for the structures the
  // profiler leaves unattributed (tag lookups, MSHRs, event queue, streams)
  r.metric("component.tag_lookup_ns", c.tag_lookup_ns, "ns");
  r.metric("component.mshr_ns", c.mshr_ns, "ns");
  r.metric("component.eventq_ns", c.eventq_ns, "ns");
  r.metric("component.mesh_hop_ns", c.mesh_hop_ns, "ns");
  r.metric("component.dram_read_ns", c.dram_read_ns, "ns");
  r.metric("component.trace_next_ns", c.trace_next_ns, "ns");
  const double lookups =
      static_cast<double>(m.l1.accesses + m.l2.accesses + m.l3.accesses);
  const double fills =
      static_cast<double>(m.l1.misses + m.l2.misses + m.l3.misses);
  const double est_ms =
      (lookups * c.tag_lookup_ns + fills * c.mshr_ns +
       static_cast<double>(p.events) * c.eventq_ns +
       static_cast<double>(p.streams.calls) * next_ns) /
      1e6;
  r.metric("est.unattributed_struct_ms", est_ms, "ms");
  r.metric("est.unattributed_explained_frac", ratio(est_ms, unattributed_ms),
           "ratio");
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", argv[i]);
      return std::nullopt;
    }
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val, &end);
      if (!(o.seconds > 0.0)) end = const_cast<char*>(val);
    } else if (arg == "--trace") {
      if (std::string_view(val) != "0" && std::string_view(val) != "1") {
        end = const_cast<char*>(val);
      } else {
        o.trace = val[0] == '1';
      }
    } else if (arg == "--workdir") {
      o.workdir = val;
      have_workdir = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", argv[i - 1]);
      return std::nullopt;
    }
    if (end != nullptr && (end == val || *end != '\0')) {
      std::fprintf(stderr, "perfbench: invalid value \"%s\" for %s\n", val,
                   argv[i - 1]);
      return std::nullopt;
    }
  }
  if (!have_workload || !have_workdir) {
    std::fprintf(stderr,
                 "usage: cdsim_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n");
    return std::nullopt;
  }
  return o;
}

/// Reasons the numbers would not describe a normal Release run, or empty.
std::string refusal() {
  for (const char* var : {"CDSIM_INSTR", "CDSIM_VERIFY", "CDSIM_VERIFY_TRACE",
                          "CDSIM_CACHE_FILE"}) {
    if (std::getenv(var) != nullptr) return std::string(var) + " is set";
  }
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    return "build type is \"" PERFBENCH_BUILD_TYPE "\", not Release";
  }
  if (std::string_view(PERFBENCH_SANITIZE) != "" ||
      std::string_view(PERFBENCH_FLAGS).find("-fsanitize") !=
          std::string_view::npos) {
    return "build is instrumented (CDSIM_SANITIZE=\"" PERFBENCH_SANITIZE
           "\", flags \"" PERFBENCH_FLAGS "\")";
  }
#ifndef NDEBUG
  return "NDEBUG is not defined";
#else
  return {};
#endif
}

int run(const Options& o) {
  Report report;
  const std::string self_test = perfbench::fingerprint_self_test();
  report.check(self_test.empty(),
               "fingerprint self-test: perturbing " + self_test +
                   " left the fingerprint unchanged");

  std::filesystem::create_directories(o.workdir);
  const std::string trace_path = o.workdir + "/mesh16.cdt";
  const std::string cache_path = o.workdir + "/sweep.cache";
  const std::string component_trace = o.workdir + "/component.cdt";

  const std::vector<Mode> modes =
      o.trace ? std::vector<Mode>{Mode::kPlain, Mode::kAttached,
                                  Mode::kProfiled}
              : std::vector<Mode>{Mode::kPlain, Mode::kAttached};
  RepSet reps;
  std::vector<SweepRep> sweeps;
  std::vector<double> trace_write_s;

  if (o.workload == "paper-bus4" || o.workload == "mesh16-dram") {
    const bool bus = o.workload == "paper-bus4";
    const Prepare prepare = [&]() {
      return bus ? bus4_machine(o.seed)
                 : mesh16_machine(trace_path, o.seed, &trace_write_s);
    };
    run_rounds(reps, prepare, modes, o.seconds, report);
    print_outputs(reps.plain.front().m, *reps.first_fp);
    check_pin(report, o.workload, o.seed, false, *reps.first_fp);
    print_rep_series(reps);
  } else if (o.workload == "paper-sweep") {
    // Sweep reps alternate with one round of reps of a single grid cell,
    // which gives the sweep its traced_ns_per_instr and per-layer numbers.
    const auto start = Clock::now();
    for (int round = 0;
         round < kMinReps || seconds_between(start, Clock::now()) < o.seconds;
         ++round) {
      SweepRep s = run_sweep(cache_path);
      report.check(s.simulated == s.config_fps.size(),
                   "sweep simulated " + std::to_string(s.simulated) +
                       " configurations, expected " +
                       std::to_string(s.config_fps.size()));
      for (std::size_t i = 0; i < s.config_fps.size(); ++i) {
        report.check(
            sweeps.empty() || s.config_fps[i] == sweeps.front().config_fps[i],
            "sweep configuration " + std::to_string(i) +
                " differs from the first sweep's");
      }
      sweeps.push_back(std::move(s));
      for (const Mode mode : modes) {
        reps.run(sweep_cell_machine, mode, round, report);
      }
    }
    const SweepRep& first = sweeps.front();
    for (const auto& [label, rel] : first.averages) {
      std::printf("outputs: %-16s energy_reduction=%.17g ipc_loss=%.17g\n",
                  label.c_str(), rel.energy_reduction, rel.ipc_loss);
    }
    std::printf("outputs: fingerprint=%s\n", hex(first.fp).c_str());
    check_pin(report, o.workload, o.seed, true, first.fp);
    std::vector<double> walls;
    for (const SweepRep& sw : sweeps) walls.push_back(sw.wall_s);
    print_series("sweep_wall_s", walls);
    print_rep_series(reps);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload \"%s\" (paper-bus4, "
                         "mesh16-dram, paper-sweep)\n",
                 o.workload.c_str());
    return 2;
  }

  if (!o.trace) {
    if (sweeps.empty()) {
      end_to_end_single(report, reps);
    } else {
      end_to_end_sweep(report, sweeps, reps);
    }
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  } else {
    // The component pass decodes a 4-core FMM trace of its own, so its
    // trace_next_ns is comparable across workloads.
    write_fmm_trace(component_trace, 4, 250'000, o.seed);
    per_layer(report, reps, median(trace_write_s),
              perfbench::measure_components(component_trace), sweeps);
  }

  for (const std::string& f : {trace_path, cache_path, component_trace}) {
    std::filesystem::remove(f);
  }
  std::printf("fail_frac: %.17g (%llu of %llu checked simulations failed)\n",
              ratio(static_cast<double>(report.failed()),
                    static_cast<double>(report.attempted())),
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
  std::printf("build: {\"cdsim_version\": \"%s\", \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"flags\": \"%s\", \"nproc\": %u}\n",
              version(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              PERFBENCH_FLAGS, std::thread::hardware_concurrency());
  report.print_json();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> o = parse_args(argc, argv);
  if (!o) return 2;
  if (const std::string why = refusal(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why.c_str());
    return 2;
  }
  try {
    return run(*o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
