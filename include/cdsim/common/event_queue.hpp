#pragma once
// Deterministic discrete-event simulation kernel.
//
// All cdsim components share one EventQueue. Events are ordered by
// (cycle, insertion sequence): two events scheduled for the same cycle run
// in the order they were scheduled, which makes every simulation bit-exact
// reproducible regardless of platform or standard-library heap tie-breaking.
//
// The queue is built for throughput on the simulator's hot path:
//
//   * callbacks are SmallFn (move-only, 72-byte inline buffer), and
//     schedule_at builds the caller's lambda directly in its pool slot, so
//     scheduling a typical kernel lambda allocates nothing and copies its
//     captures once;
//   * events live in a calendar ring of one bucket per cycle: scheduling is
//     an O(1) append, popping is an O(1) index bump (plus an occasional
//     scan over empty cycles — the simulated platform averages several
//     events per cycle, so the scan is essentially free). Cycle-level
//     simulators cluster deltas within a few hundred cycles; the rare
//     farther-out event waits in an overflow list that is spilled into the
//     ring once per ring revolution;
//   * per-bucket insertion order IS (cycle, sequence) order — events for a
//     cycle still in the overflow list were by construction scheduled
//     before the ring window reached that cycle, and the spill precedes
//     any direct append for that window — so determinism needs no
//     comparator at all;
//   * callbacks execute in place out of a stable slot pool (fixed-size
//     chunks, indexed by shift/mask), so bucket entries are a tiny POD
//     (cycle, slot) — cheap to append, cheap to spill — and an event may
//     freely schedule further events (including at the same cycle) while
//     it runs; the pool grows only to the high-water mark of concurrently
//     pending events and never allocates after that.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/small_fn.hpp"
#include "cdsim/common/types.hpp"

namespace cdsim {

/// Discrete-event scheduler with deterministic same-cycle ordering.
///
/// Usage:
///   EventQueue q;
///   q.schedule_at(100, [] { ... });
///   q.schedule_in(5,  [] { ... });  // relative to q.now()
///   q.run_until(1'000'000);
class EventQueue {
 public:
  /// Inline capture budget: fits the kernel's largest hot-path callback
  /// (a bus completion: a 48-byte completion functor plus a 24-byte
  /// BusResult). Larger captures fall back to the heap transparently.
  using Callback = SmallFn<void(), 72>;

  EventQueue() : ring_(kRingBuckets) { free_slots_.reserve(256); }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulated time. Advances monotonically as events execute.
  [[nodiscard]] Cycle now() const noexcept { return now_; }

  /// Number of events not yet executed.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }

  /// Schedules `fn` to run at absolute cycle `when`. Scheduling in the past
  /// is a logic error (asserts). `fn` is any callable, constructed directly
  /// in its pool slot; a Callback is moved in.
  template <typename F>
  void schedule_at(Cycle when, F&& fn) {
    CDSIM_ASSERT_MSG(when >= now_, "event scheduled in the past");
    const Event ev{when, acquire_slot(std::forward<F>(fn))};
    if (when < horizon_) {
      ring_[when & kRingMask].push_back(ev);
      if (when < scan_) {
        // run_until() stopped mid-scan past this cycle (its bucket was
        // drained and cleared); rewind so the new event is not skipped.
        // Only empty buckets lie between `when` and the old scan position.
        CDSIM_ASSERT(head_ == 0);
        scan_ = when;
      }
    } else {
      overflow_.push_back(ev);
    }
    ++pending_;
  }

  /// Schedules `fn` to run `delta` cycles from now.
  template <typename F>
  void schedule_in(Cycle delta, F&& fn) {
    schedule_at(now_ + delta, std::forward<F>(fn));
  }

  /// Executes the earliest pending event, advancing now(). Returns false if
  /// the queue was empty. The callback may schedule more events (including
  /// at the same cycle) while it runs.
  bool step() {
    if (pending_ == 0) return false;
    for (;;) {
      // Spill lazily, just before bucket horizon_ is first examined. This
      // keeps the window from advancing while run_until() is parked at a
      // revolution boundary — a premature spill there would let a
      // schedule_at(now()) share a bucket with a spilled far event one
      // full revolution later (two cycles aliasing one bucket).
      if (scan_ == horizon_) spill_overflow();
      std::vector<Event>& bucket = ring_[scan_ & kRingMask];
      if (head_ < bucket.size()) {
        execute(bucket[head_++]);
        return true;
      }
      bucket.clear();
      head_ = 0;
      ++scan_;
    }
  }

  /// Runs events until the queue drains or the next event lies strictly
  /// after `horizon`. Afterwards now() == min(horizon, last event time) —
  /// the clock is advanced to `horizon` if the queue drained early.
  void run_until(Cycle horizon) {
    while (pending_ > 0 && scan_ <= horizon) {
      if (scan_ == horizon_) spill_overflow();  // see step()
      std::vector<Event>& bucket = ring_[scan_ & kRingMask];
      if (head_ >= bucket.size()) {
        bucket.clear();
        head_ = 0;
        ++scan_;
        continue;
      }
      execute(bucket[head_++]);
    }
    if (now_ < horizon) now_ = horizon;
  }

  /// Runs until no events remain.
  void run() {
    while (step()) {
    }
  }

  /// Total events executed since construction (for perf accounting).
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Event {
    Cycle when = 0;
    std::uint32_t slot = 0;
  };

  /// Ring span in cycles. Covers every recurring kernel delta (retries,
  /// hit latencies, memory round-trips) with slack; only backlogged memory
  /// transfers and decay ticks overflow. Power of two for cheap indexing.
  static constexpr std::size_t kRingBuckets = 1024;
  static constexpr Cycle kRingMask = kRingBuckets - 1;

  // Takes the event BY VALUE: the callback may append to the bucket the
  // event was read from, reallocating its storage mid-execution.
  void execute(const Event ev) {
    CDSIM_ASSERT(ev.when == scan_);
    now_ = scan_;
    // Invoke in place: chunks give slots stable addresses, so the callback
    // may schedule further events (growing the pool) while it runs and the
    // reference stays good. The slot is recycled only after it returns.
    Callback& cb = slot(ev.slot);
    cb();
    cb = nullptr;
    free_slots_.push_back(ev.slot);
    --pending_;
    ++executed_;
  }

  /// Advances the ring window one revolution and spills the overflow
  /// events that now fall inside it into their buckets. Iterating the
  /// overflow list in order preserves scheduling order, and every spill
  /// happens before any direct append into the new window — so bucket
  /// order remains global scheduling order.
  void spill_overflow() {
    horizon_ += kRingBuckets;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < overflow_.size(); ++i) {
      const Event ev = overflow_[i];
      if (ev.when < horizon_) {
        ring_[ev.when & kRingMask].push_back(ev);
      } else {
        overflow_[keep++] = ev;
      }
    }
    overflow_.resize(keep);
  }

  /// Stable-address slot access: chunk base + offset, both powers of two.
  [[nodiscard]] Callback& slot(std::uint32_t i) noexcept {
    return slot_chunks_[i >> kSlotChunkShift][i & kSlotChunkMask];
  }

  template <typename F>
  [[nodiscard]] std::uint32_t acquire_slot(F&& fn) {
    std::uint32_t i = 0;
    if (free_slots_.empty()) {
      if ((slot_count_ & kSlotChunkMask) == 0) {
        slot_chunks_.push_back(
            std::make_unique<Callback[]>(std::size_t{1} << kSlotChunkShift));
      }
      i = slot_count_++;
    } else {
      i = free_slots_.back();
      free_slots_.pop_back();
    }
    slot(i).assign(std::forward<F>(fn));
    return i;
  }

  /// Calendar ring: bucket b holds the events for every cycle c with
  /// c & kRingMask == b inside the current window [horizon_ - kRingBuckets,
  /// horizon_), in scheduling order. Buckets keep their capacity across
  /// revolutions, so steady state never allocates.
  std::vector<std::vector<Event>> ring_;
  /// Events scheduled at or beyond horizon_, in scheduling order.
  std::vector<Event> overflow_;
  /// First cycle beyond the current ring window.
  Cycle horizon_ = kRingBuckets;
  /// Next bucket cycle to inspect; all buckets before it are drained.
  /// Invariant: now_ <= scan_, and scan_ > now_ only while every bucket in
  /// (now_, scan_) is empty.
  Cycle scan_ = 0;
  /// Index of the next unexecuted event in bucket scan_.
  std::size_t head_ = 0;
  /// Callback pool indexed by Event::slot; the free list recycles LIFO so
  /// the working set of slots stays cache-hot. Chunked (stable references)
  /// so in-flight callbacks survive pool growth; the chunk list grows only
  /// to the high-water mark of simultaneously pending events.
  static constexpr std::uint32_t kSlotChunkShift = 8;  ///< 256 slots/chunk.
  static constexpr std::uint32_t kSlotChunkMask =
      (std::uint32_t{1} << kSlotChunkShift) - 1;
  std::vector<std::unique_ptr<Callback[]>> slot_chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  std::size_t pending_ = 0;
  Cycle now_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace cdsim
