#pragma once
// Shared split-transaction snoopy bus connecting the private L2 caches.
//
// Model (matches the paper's §V platform): a pipelined shared bus clocked at
// half the core clock with high bandwidth; coherence acts directly among the
// L2 caches. A transaction's life is:
//
//   request -> [round-robin arbitration, bus busy wait] -> grant
//          -> address phase (bus occupied, snoop broadcast resolves
//             atomically at the grant cycle)
//          -> data source latency (dirty-owner flush or memory read)
//          -> data phase (bus occupied per line-transfer beats)
//          -> completion callback at the requester
//
// Snooping is atomic-at-grant: all other caches observe and apply the
// transaction at the grant cycle, which serializes coherence decisions in
// bus order — exactly the property a physical snoopy bus provides. The
// transaction vocabulary (noc::Snooper, noc::BusResult, noc::RequestHooks)
// is shared with the directory mesh and lives in noc/interconnect.hpp.

#include <cstdint>
#include <vector>

#include "cdsim/coherence/mesi.hpp"
#include "cdsim/common/assert.hpp"
#include "cdsim/common/ring.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/small_fn.hpp"
#include "cdsim/common/stats.hpp"
#include "cdsim/common/types.hpp"
#include "cdsim/common/host_timer.hpp"
#include "cdsim/mem/memory.hpp"
#include "cdsim/noc/interconnect.hpp"

namespace cdsim::bus {

struct BusConfig {
  /// Cycles from request to earliest possible grant (arbiter latency).
  Cycle arbitration_latency = 2;
  /// Cycles the bus is held for the address/snoop phase of any transaction.
  Cycle address_phase = 2;
  /// Data beats: bytes moved per core cycle once a transfer starts. The
  /// paper's 57 GB/s at a ~3.5 GHz core is ~16 B/core-cycle.
  std::uint32_t bytes_per_cycle = 16;
  /// Latency for a dirty owner to start flushing after grant.
  Cycle cache_to_cache_latency = 10;
};

/// The shared snoopy bus.
class SnoopBus final : public noc::Interconnect {
 public:
  using noc::Interconnect::request;  // the Completion convenience overload

  SnoopBus(EventQueue& eq, const BusConfig& cfg, mem::MemoryController& mem)
      : eq_(eq), cfg_(cfg), mem_(mem) {
    CDSIM_ASSERT(cfg.bytes_per_cycle >= 1);
  }

  SnoopBus(const SnoopBus&) = delete;
  SnoopBus& operator=(const SnoopBus&) = delete;

  /// Registers a snooping agent. The agent's position in attach order is
  /// its round-robin arbitration slot. Must be called before any request.
  void attach(noc::Snooper* s) override {
    noc::Interconnect::attach(s);
    queues_.emplace_back(kQueueCapacity);
  }

  /// Full-control variant with grant hook and cancellation validator.
  void request(coherence::BusTxKind kind, Addr line_addr, CoreId requester,
               std::uint32_t bytes, noc::RequestHooks hooks) override {
    CDSIM_ASSERT(requester < queues_.size());
    queues_[requester].push_back(
        Pending{kind, line_addr, requester, bytes, std::move(hooks)});
    ++queued_;
    schedule_arbitration();
  }

  // --- statistics ---------------------------------------------------------
  /// Payload bytes accepted onto the bus (the §V bus energy).
  [[nodiscard]] std::uint64_t bytes_transferred() const noexcept {
    return bytes_.value();
  }
  /// Fraction of cycles the bus was occupied over [0, now]. The last
  /// transaction may extend past `now`; the ratio is clamped to 1.
  [[nodiscard]] double utilization(Cycle now) const override {
    const double u =
        safe_div(static_cast<double>(busy_cycles_), static_cast<double>(now));
    return u > 1.0 ? 1.0 : u;
  }

 private:
  struct Pending {
    coherence::BusTxKind kind;
    Addr line_addr = 0;
    CoreId requester = 0;
    std::uint32_t bytes = 0;
    noc::RequestHooks hooks;
  };

  [[nodiscard]] Cycle transfer_cycles(std::uint32_t bytes) const noexcept {
    return bytes == 0 ? 0
                      : (bytes + cfg_.bytes_per_cycle - 1) /
                            cfg_.bytes_per_cycle;
  }

  /// Arms an arbitration event if transactions are waiting and none armed.
  void schedule_arbitration() {
    if (arb_armed_ || queued_ == 0) return;
    arb_armed_ = true;
    const Cycle now = eq_.now();
    Cycle grant = now + cfg_.arbitration_latency;
    if (grant < free_at_) grant = free_at_;
    eq_.schedule_at(grant, [this] {
      arb_armed_ = false;
      grant_next();
      schedule_arbitration();
    });
  }

  /// Picks the next requester round-robin and executes its transaction's
  /// address phase (snoop) at the current cycle.
  void grant_next() {
    if (queued_ == 0) return;
    const std::size_t n = queues_.size();
    std::size_t who = next_rr_;
    for (std::size_t i = 0; i < n; ++i, who = (who + 1) % n) {
      if (!queues_[who].empty()) break;
    }
    CDSIM_ASSERT(!queues_[who].empty());
    next_rr_ = (who + 1) % n;
    Pending tx = std::move(queues_[who].front());
    queues_[who].pop_front();
    --queued_;
    execute(std::move(tx));
  }

  void execute(Pending tx) {
    const prof::ScopedPhase prof_scope(prof::Phase::kFabric);
    const Cycle granted = eq_.now();

    if (!admit(tx.kind, tx.line_addr, tx.requester, tx.hooks, granted)) {
      if (tx.hooks.on_cancel) tx.hooks.on_cancel();
      return;
    }

    noc::BusResult res;
    res.granted_at = granted;

    // Address/snoop phase: all *other* agents observe the transaction now.
    // (Write-backs are point-to-point to memory; no snoop needed, but they
    // are still broadcast for protocol completeness — third parties ignore
    // them, see coherence::apply_snoop.)
    const SnoopFold fold = snoop(~(std::uint64_t{1} << tx.requester),
                                 tx.kind, tx.line_addr, tx.requester, res);

    const Cycle mem_start = granted + cfg_.address_phase;
    Cycle done = mem_start;
    const Cycle beats = transfer_cycles(tx.bytes);
    // Memory decides when the transaction completes for a fill it supplies
    // and for a non-posted write-back.
    bool memory_completes = false;

    switch (tx.kind) {
      case coherence::BusTxKind::kBusRd:
      case coherence::BusTxKind::kBusRdX: {
        if (res.supplied_by_cache) {
          // Dirty owner flushes: data to the requester, and to memory when
          // the protocol says the flush ends ownership (MESI always; MOESI
          // keeps an Owned supplier responsible and memory stale). The
          // memory-update side of a flush is always posted — the requester
          // got its data from the owner and never waits on memory.
          done += cfg_.cache_to_cache_latency + beats;
          if (fold.memory_update) {
            mem_.write(mem_start, tx.bytes, tx.line_addr, {});
          }
        } else {
          memory_completes = true;  // memory supplies
        }
        break;
      }
      case coherence::BusTxKind::kBusUpgr:
        // Invalidation-only: done after the address phase.
        break;
      case coherence::BusTxKind::kWriteBack:
        done += beats;
        if (mem_.config().posted_writes) {
          mem_.write(mem_start, tx.bytes, tx.line_addr, {});
        } else {
          // Non-posted: the evicting cache holds the transaction open
          // until memory has absorbed the write.
          memory_completes = true;
        }
        writeback_accepted(tx.requester, tx.line_addr, granted);
        break;
    }

    // Bus occupancy: address phase always; data phase when data moved on
    // the shared bus (fills and write-backs).
    const Cycle occupied_until = granted + cfg_.address_phase + beats;
    busy_cycles_ += occupied_until - granted;
    free_at_ = occupied_until;
    bytes_.inc(tx.bytes);
    trace_grant(tx.kind, tx.line_addr, granted, occupied_until);

    if (!memory_completes) {
      res.done_at = done;
      if (tx.hooks.on_grant) tx.hooks.on_grant(res);
      if (tx.hooks.on_done) {
        eq_.schedule_at(done,
                        [cb = std::move(tx.hooks.on_done), res] { cb(res); });
      }
      return;
    }

    // Memory decides the completion cycle. The grant-time contract is
    // unchanged: on_grant consumers never read done_at (the directory mesh
    // sets the same provisional value), and coherence state still updates
    // atomically at grant. The memory call follows on_grant, and no grant
    // hook issues memory traffic of its own.
    res.done_at = granted;
    if (tx.hooks.on_grant) tx.hooks.on_grant(res);
    auto finish = [this, cb = std::move(tx.hooks.on_done), res,
                   done](Cycle t) mutable {
      if (!cb) return;
      // A write-back is complete when both the bus data phase and memory
      // are done with it (reads always finish at the fill).
      res.done_at = t > done ? t : done;
      mem::resume_at(eq_, res.done_at,
                     [cb = std::move(cb), res]() mutable { cb(res); });
    };
    if (tx.kind == coherence::BusTxKind::kWriteBack) {
      mem_.write(mem_start, tx.bytes, tx.line_addr, std::move(finish));
    } else {
      mem_.read(mem_start, tx.bytes, tx.line_addr, std::move(finish));
    }
  }

  EventQueue& eq_;
  BusConfig cfg_;
  mem::MemoryController& mem_;
  static constexpr std::size_t kQueueCapacity = 16;
  /// Per-agent pending-request rings (FIFO within an agent, round-robin
  /// across agents). Sized for the in-flight budget an L2 can sustain (its
  /// MSHR file plus turn-off write-backs); deeper bursts grow a ring to
  /// its high-water mark once, after which arbitration is allocation-free.
  std::vector<FifoRing<Pending>> queues_;
  std::size_t next_rr_ = 0;
  std::size_t queued_ = 0;
  bool arb_armed_ = false;
  Cycle free_at_ = 0;
  Counter bytes_;
  Cycle busy_cycles_ = 0;
};

}  // namespace cdsim::bus
