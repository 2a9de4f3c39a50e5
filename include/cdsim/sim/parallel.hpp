#pragma once
// Parallel sweep engine for the experiment grid.
//
// The paper's evaluation grid — 6 benchmarks x {1,2,4,8} MB total L2 x
// 7 techniques plus the always-on baseline — is 192 results from 168
// completely independent simulations: one per timing class of each
// (benchmark, size) cell, where baseline and protocol share a class and
// come from one run as two accounting views (decay::same_timing,
// sim::AccountingView). run_grid submits one ThreadPool task per
// simulation, unbatched: a task is a whole simulation, so a queue round
// trip is noise, while batching several per task left workers idle at the
// end of a sweep. Tasks go in round-robin over the (benchmark, size) cells,
// so the simulations in flight at once come from different cells and peak
// memory does not stack one cell's footprint per worker. Submission order
// never reaches a result. The determinism contract is that a configuration's
// result depends only on its own (benchmark, size, technique,
// instructions) description — deterministic per-cell Xoshiro256 seeding,
// no shared mutable simulation state, and per-view books kept exactly as a
// standalone run keeps them — so a parallel sweep is bit-identical to
// running the same configurations serially (tests/parallel_runner_test.cpp
// proves it).
//
// Happens-before map (the synchronization contract TSan certifies via
// tests/tsan_grid_test.cpp; every edge below is a mutex release/acquire or
// thread join — no lock-free tricks anywhere in the engine):
//
//   submit()           releases mu_ after pushing   -> worker_loop() acquires
//                      mu_ to pop: the task body happens-after everything
//                      the submitter wrote before submit().
//   worker_loop()      releases mu_ after --in_flight_ (post-task)
//                      -> wait_idle() acquires mu_ and observes
//                      in_flight_ == 0: everything every task wrote
//                      happens-before wait_idle() returning. This is the
//                      edge that lets run_grid read its slot-indexed
//                      results vector unguarded after the barrier.
//   ~ThreadPool()      joins the workers: all task effects happen-before
//                      pool destruction completing.
//
// Task exceptions ride the same edges: first_error_ is written under mu_ in
// worker_loop and consumed under mu_ in wait_idle.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cdsim::sim {

/// A fixed-size fork-join worker pool. Tasks are drained FIFO by whichever
/// worker frees up first; wait_idle() is the join barrier.
class ThreadPool {
 public:
  /// @param workers 0 = one worker per hardware thread (at least one).
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned worker_count() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Enqueues one task. Safe from any thread, including pool workers'
  /// callers, but not from inside a task (a task waiting on the pool it
  /// runs in deadlocks a one-worker pool).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. If any task threw,
  /// rethrows the first such exception here (remaining tasks still ran to
  /// the barrier first) instead of terminating the worker thread.
  void wait_idle();

  /// Runs fn(0) .. fn(n-1) across the workers and blocks until all are
  /// done. Slot-indexed: each call owns index i exclusively, so writing
  /// results[i] needs no locking.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable task_cv_;  ///< Signals workers: task or stop.
  std::condition_variable idle_cv_;  ///< Signals wait_idle: all drained.
  std::size_t in_flight_ = 0;        ///< Queued + currently-executing tasks.
  std::exception_ptr first_error_;   ///< First task exception; rethrown at the barrier.
  bool stop_ = false;
};

}  // namespace cdsim::sim
