#include "cdsim/sim/parallel.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <set>
#include <utility>

#include "cdsim/common/host_timer.hpp"
#include "cdsim/sim/experiment.hpp"

namespace cdsim::sim {

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mu_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::scoped_lock lock(mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr e = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < n; ++i) {
    submit([&fn, i] { fn(i); });
  }
  wait_idle();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      task_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop();
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::scoped_lock lock(mu_);
      if (error && !first_error_) first_error_ = std::move(error);
      --in_flight_;
      if (in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

SweepStats ExperimentRunner::run_grid(
    const std::vector<workload::Benchmark>& benchmarks,
    const std::vector<std::uint64_t>& sizes,
    const std::vector<decay::DecayConfig>& techniques, unsigned workers) {
  struct Job {
    const workload::Benchmark* bench;
    std::uint64_t bytes;
    decay::DecayConfig technique;
    std::string key;
  };

  // Every relative metric divides by the matching baseline run, so the
  // baseline is an implicit member of every technique sweep.
  std::vector<decay::DecayConfig> techs;
  techs.reserve(techniques.size() + 1);
  techs.push_back(baseline_config());
  techs.insert(techs.end(), techniques.begin(), techniques.end());

  SweepStats stats;
  std::vector<Job> jobs;
  // Per (benchmark, size) cell, one simulation per timing class: the jobs
  // of the cell that share it, every one an accounting view of the run of
  // the first.
  std::vector<std::vector<std::vector<std::size_t>>> cell_runs;
  std::set<std::string> scheduled;
  {
    std::scoped_lock lock(mu_);
    for (const auto& bench : benchmarks) {
      for (const std::uint64_t bytes : sizes) {
        auto& cell = cell_runs.emplace_back();
        for (const auto& tech : techs) {
          std::string key = key_for(bench, bytes, tech);
          if (!scheduled.insert(key).second) continue;  // duplicate cell
          if (cache_.find(key) != cache_.end()) {
            ++stats.reused;
            continue;
          }
          const auto same = std::find_if(
              cell.begin(), cell.end(),
              [&](const std::vector<std::size_t>& run) {
                return decay::same_timing(jobs[run.front()].technique, tech);
              });
          if (same == cell.end()) {
            cell.push_back({jobs.size()});
          } else {
            same->push_back(jobs.size());
          }
          jobs.push_back(Job{&bench, bytes, tech, std::move(key)});
        }
      }
    }
  }
  if (jobs.empty()) return stats;

  // Submission order: every cell's first run, then every cell's second,
  // and so on. A cell's runs replay one workload, so their memory
  // footprints are about equal; submitted back to back, the workers would
  // run them side by side, and peak memory would be the largest cell's
  // footprint times the worker count. Interleaved, the simulations in
  // flight come from different cells.
  std::vector<const std::vector<std::size_t>*> runs;
  for (std::size_t k = 0; k < techs.size(); ++k) {
    for (const auto& cell : cell_runs) {
      if (k < cell.size()) runs.push_back(&cell[k]);
    }
  }

  ThreadPool pool(workers);
  stats.workers = pool.worker_count();
  stats.timing_runs = runs.size();
  // One pool task per timing run, each writing only its own jobs' slots;
  // merging under the lock happens once, after the barrier, in job order —
  // so the memo map and cache file contents are independent of thread
  // scheduling. Each run still seeds from its cell's description alone
  // (simulate() takes only the cell's parameters), and a view's books are
  // kept exactly as its standalone run keeps them, so the merge is
  // bit-identical to calling run() for every cell serially.
  //
  // Happens-before: each worker's results[i] stores -> its --in_flight_
  // under the pool mutex -> parallel_for's wait_idle observing 0 -> the
  // unguarded reads of results[] in the merge loop below. No slot is ever
  // touched by two threads, so the barrier is the only edge needed.
  std::vector<RunMetrics> results(jobs.size());
  pool.parallel_for(runs.size(), [&](std::size_t r) {
    const std::vector<std::size_t>& ids = *runs[r];
    const Job& lead = jobs[ids.front()];
    std::vector<decay::DecayConfig> views;
    views.reserve(ids.size());
    for (const std::size_t i : ids) views.push_back(jobs[i].technique);
    std::vector<RunMetrics> ms = simulate(*lead.bench, lead.bytes, views);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      results[ids[k]] = std::move(ms[k]);
    }
  });

  // Host-profiling aggregation: the phase accumulators are process-global
  // atomics, so worker shards fold in for free — one summary covers the
  // whole grid.
  if (prof::HostProfiler::enabled()) prof::HostProfiler::report(stderr);

  // Happens-before: this mu_ acquire pairs with the release in any
  // concurrent run() that inserted one of our cells while we simulated —
  // emplace then fails and we count the cell as reused instead of
  // clobbering it (tests/tsan_grid_test.cpp races exactly this).
  std::scoped_lock lock(mu_);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (cache_.emplace(std::move(jobs[i].key), std::move(results[i])).second) {
      ++stats.simulated;
      dirty_ = true;  // so the destructor retries if this persist fails
      ++unsaved_;
    } else {
      ++stats.reused;  // a concurrent run() beat us to this cell
    }
  }
  persist_disk_cache_locked();
  return stats;
}

}  // namespace cdsim::sim
