#pragma once
// Fork-join loop of the parallel sweep engine.
//
// The paper's evaluation grid — 6 benchmarks x {1,2,4,8} MB total L2 x
// 7 techniques plus the always-on baseline — is 192 results from at most
// 168 independent simulations: one per timing class of each (benchmark,
// size) cell, where baseline and protocol share a class and come from one
// run as two accounting views (decay::agree_until, sim::AccountingView).
// A decaying class may also ride on the run of its cell's driver,
// decay512K, as more views, which come back when that run ends before the
// two could differ: 58 runs at 20K instr/core. ExperimentRunner fills the
// grid with one parallel_for index per simulation, unbatched: an index is
// a whole simulation, so handing it out is noise, while batching several
// per index left workers idle at the end of a sweep. The runner lists the
// drivers and other leads first and the riders after them, each
// round-robin over the (benchmark, size) cells, so the simulations in
// flight at once come from different cells and peak memory does not stack
// one cell's footprint per worker. A rider waits on its driver's latch,
// which a worker that took an earlier index counts down, so fn may block
// on an earlier index but never on a later one. Which worker runs which index never reaches a
// result. The determinism contract is that a configuration's result
// depends only on its own (benchmark, size, technique, instructions)
// description — deterministic per-cell Xoshiro256 seeding, no shared
// mutable simulation state, and per-view books kept exactly as a
// standalone run keeps them — so a parallel sweep is bit-identical to
// running the same configurations serially (tests/parallel_runner_test.cpp
// proves it).
//
// Happens-before map (the synchronization contract TSan certifies via
// tests/tsan_grid_test.cpp): every worker thread starts after everything
// the caller wrote before parallel_for, and the join is the one edge back:
// everything every fn(i) wrote, its exception included, happens-before
// parallel_for returning. The atomic index counter carries no data; it
// only makes each index run exactly once, so fn(i) may write slot i of a
// results vector unguarded.

#include <cstddef>
#include <functional>

namespace cdsim::sim {

/// Runs fn(0) .. fn(n-1) on `workers` threads, the calling thread one of
/// them, and returns once all have run and the other threads are joined.
/// Indices go out in order from one shared counter, each exactly once, so
/// when fn(i) starts every index below i has started: fn(i) may wait for
/// an earlier index to finish.
/// With one worker (or zero) everything runs on the calling thread. A
/// throwing call does not stop the others: after every index has run, the
/// exception of the lowest throwing index is rethrown.
void parallel_for(std::size_t n, unsigned workers,
                  const std::function<void(std::size_t)>& fn);

}  // namespace cdsim::sim
