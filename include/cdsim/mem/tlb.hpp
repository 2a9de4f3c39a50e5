#pragma once
// Per-core TLBs in front of the cache hierarchy.
//
// mem::Tlb is the translation structure itself: page-granularity, true-LRU,
// fully associative (a deterministic linear scan over <= a few dozen
// entries). mem::TlbPort interposes it on the core's LoadStorePort: a TLB
// hit forwards to the L1 untouched; a miss pays a fixed walk latency before
// the load is issued. The port honours the L1's contract that completion
// callbacks never fire inside try_load (the walk is at least one cycle and
// all deferred work goes through the EventQueue).
//
// Stores consult and refill the TLB (state + stats) but never stall on the
// walk — the write buffer hides it, matching the simulator's store model
// where try_store either retires into the buffer or rejects on capacity.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/types.hpp"
#include "cdsim/core/core_model.hpp"
#include "cdsim/mem/memory.hpp"
#include "cdsim/obs/trace_recorder.hpp"

namespace cdsim::mem {

/// Fully associative, true-LRU page-translation buffer.
class Tlb {
 public:
  explicit Tlb(const TlbConfig& cfg) : cfg_(cfg), entries_(cfg.entries) {
    CDSIM_ASSERT(cfg.entries >= 1);
    CDSIM_ASSERT(cfg.page_bytes >= 1);
  }

  /// Looks up the page of `addr`; refills the LRU way on a miss.
  /// Returns true on a hit.
  bool access(Addr addr) {
    const Addr page = addr / cfg_.page_bytes;
    ++tick_;
    for (Entry& e : entries_) {
      if (e.valid && e.page == page) {
        e.last_use = tick_;
        hits_.inc();
        return true;
      }
    }
    misses_.inc();
    Entry* victim = &entries_.front();
    for (Entry& e : entries_) {
      if (!e.valid) {
        victim = &e;
        break;
      }
      if (e.last_use < victim->last_use) victim = &e;
    }
    victim->valid = true;
    victim->page = page;
    victim->last_use = tick_;
    return false;
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_.value(); }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.value();
  }

 private:
  struct Entry {
    Addr page = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  TlbConfig cfg_;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
  Counter hits_, misses_;
};

/// LoadStorePort interposer: TLB in front of an inner port (the L1).
class TlbPort final : public core::LoadStorePort {
 public:
  TlbPort(EventQueue& eq, const TlbConfig& cfg, core::LoadStorePort& inner)
      : eq_(eq), cfg_(cfg), tlb_(cfg), inner_(inner) {
    CDSIM_ASSERT(cfg.enabled);
    inner_.set_resources_freed([this] { on_inner_freed(); });
  }

  core::LoadOutcome try_load(Addr addr, core::LoadCallback on_done) override {
    if (tlb_.access(addr)) return inner_.try_load(addr, std::move(on_done));
    // Miss: accept the load now, issue it after the fixed walk. The walk is
    // clamped to >= 1 cycle so the completion can never fire inside
    // try_load (the core's bookkeeping relies on that).
    const std::uint64_t id = next_id_++;
    pending_.emplace(id, std::move(on_done));
    const Cycle walk =
        cfg_.miss_walk_latency >= 1 ? cfg_.miss_walk_latency : 1;
    // The walk duration is fixed and known at issue, so the span can be
    // emitted up front (the recorder orders events by emission, not time).
    if (trace_ != nullptr) {
      trace_->span(trace_track_, "walk", eq_.now(), eq_.now() + walk, "page",
                   addr / cfg_.page_bytes);
    }
    eq_.schedule_in(walk, [this, addr, id] { issue_after_walk(addr, id); });
    return {.accepted = true};
  }

  bool try_store(Addr addr) override {
    tlb_.access(addr);
    return inner_.try_store(addr);
  }

  void set_resources_freed(core::FreedCallback cb) override {
    core_waiter_ = std::move(cb);
  }

  [[nodiscard]] const Tlb& tlb() const noexcept { return tlb_; }

  /// Attaches the timeline recorder (observer-only; nullptr detaches):
  /// one span per load-miss page walk.
  void set_trace(obs::TraceRecorder* rec, obs::TrackId track) noexcept {
    trace_ = rec;
    trace_track_ = track;
  }

 private:
  void issue_after_walk(Addr addr, std::uint64_t id) {
    const core::LoadOutcome out =
        inner_.try_load(addr, [this, id](Cycle t) { complete(id, t); });
    if (!out.accepted) {
      // Inner MSHRs full: park and retry when the L1 frees a resource.
      parked_.push_back(ParkedLoad{addr, id});
      return;
    }
    if (out.completed) {
      // Synchronous inner hit — surface it asynchronously at the hit's
      // completion cycle, like any walked load.
      const Cycle done = eq_.now() + out.latency;
      eq_.schedule_at(done, [this, id, done] { complete(id, done); });
    }
  }

  void complete(std::uint64_t id, Cycle t) {
    const auto it = pending_.find(id);
    CDSIM_ASSERT(it != pending_.end());
    core::LoadCallback cb = std::move(it->second);
    pending_.erase(it);
    if (cb) cb(t);
  }

  void on_inner_freed() {
    // Walked loads parked on a full MSHR retry first (FIFO order; a retry
    // that rejects again re-parks into the fresh deque). The core's own
    // waiter is then woken regardless — a spurious wake is benign, the
    // core re-checks and parks again. The swap is skipped when nothing is
    // parked: constructing a std::deque allocates, and this runs on every
    // L1 resources-freed notification.
    if (!parked_.empty()) {
      std::deque<ParkedLoad> retry;
      retry.swap(parked_);
      for (ParkedLoad& p : retry) issue_after_walk(p.addr, p.id);
    }
    if (core_waiter_) core_waiter_();
  }

  struct ParkedLoad {
    Addr addr = 0;
    std::uint64_t id = 0;
  };

  EventQueue& eq_;
  TlbConfig cfg_;
  Tlb tlb_;
  core::LoadStorePort& inner_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::TrackId trace_track_ = 0;
  std::map<std::uint64_t, core::LoadCallback> pending_;
  std::deque<ParkedLoad> parked_;
  std::uint64_t next_id_ = 0;
  core::FreedCallback core_waiter_;
};

}  // namespace cdsim::mem
