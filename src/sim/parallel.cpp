#include "cdsim/sim/parallel.hpp"

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

void ThreadPool::parallel_for_batched(
    std::size_t n, std::size_t batch,
    const std::function<void(std::size_t)>& fn) {
  if (batch == 0) batch = 1;
  for (std::size_t b = 0; b < n; b += batch) {
    const std::size_t end = b + batch < n ? b + batch : n;
    submit([&fn, b, end] {
      for (std::size_t i = b; i < end; ++i) fn(i);
    });
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
  std::set<std::string> scheduled;
  {
    std::scoped_lock lock(mu_);
    for (const auto& bench : benchmarks) {
      for (const std::uint64_t bytes : sizes) {
        for (const auto& tech : techs) {
          std::string key = key_for(bench, bytes, tech);
          if (!scheduled.insert(key).second) continue;  // duplicate cell
          if (cache_.find(key) != cache_.end()) {
            ++stats.reused;
            continue;
          }
          jobs.push_back(Job{&bench, bytes, tech, std::move(key)});
        }
      }
    }
  }
  if (jobs.empty()) return stats;

  ThreadPool pool(workers);
  stats.workers = pool.worker_count();
  // Each worker writes only its own slot; merging under the lock happens
  // once, after the barrier, in job order — so the memo map and cache file
  // contents are independent of thread scheduling.
  //
  // Happens-before: each worker's results[i] store -> its --in_flight_
  // under the pool mutex -> parallel_for_batched's wait_idle observing 0 ->
  // the unguarded reads of results[] in the merge loop below. No slot is
  // ever touched by two threads, so the barrier is the only edge needed.
  //
  // Batching: a simulation dwarfs a queue round trip, but a large grid on
  // many workers still pays jobs.size() submit()s of mutex traffic and
  // std::function heap churn. Chunking several configs per pool task keeps
  // ~4 tasks in flight per worker for load balance while amortizing the
  // scheduling overhead. Each config still seeds from its own description
  // alone (simulate() takes only the cell's parameters), so the merge —
  // done after the barrier, in job order — is bit-identical for every
  // batch size, parallel or serial.
  const std::size_t batch_hint = jobs.size() / (std::size_t{4} * stats.workers);
  const std::size_t batch = batch_hint < 1 ? 1 : batch_hint;
  std::vector<RunMetrics> results(jobs.size());
  pool.parallel_for_batched(jobs.size(), batch, [&](std::size_t i) {
    results[i] = simulate(*jobs[i].bench, jobs[i].bytes, jobs[i].technique);
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
