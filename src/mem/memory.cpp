// The banked-DRAM engine behind mem::MemoryController (model == kDram).
//
// Determinism: all scheduling state lives in std::deque / std::vector and
// every decision is a pure function of (cycle, queue order); completions go
// through the EventQueue, so two runs of the same trace produce identical
// service orders. Refresh is applied *lazily* — due refreshes are caught up
// whenever the scheduler looks at a channel — so an idle controller posts no
// events and unit tests that drain the queue terminate.
#include "cdsim/mem/memory.hpp"

#include <algorithm>
#include <string>

#include "cdsim/common/host_timer.hpp"

namespace cdsim::mem {

DramController::DramController(EventQueue& eq, const MemoryConfig& cfg)
    : eq_(eq), cfg_(cfg) {
  const DramConfig& d = cfg_.dram;
  CDSIM_ASSERT(d.channels >= 1);
  CDSIM_ASSERT(d.ranks_per_channel >= 1);
  CDSIM_ASSERT(d.banks_per_rank >= 1);
  CDSIM_ASSERT(d.interleave_bytes >= 1);
  CDSIM_ASSERT_MSG(d.row_bytes >= d.interleave_bytes,
                   "a row must hold at least one interleave unit");
  CDSIM_ASSERT(d.queue_depth >= 1);
  channels_.resize(d.channels);
  for (Channel& ch : channels_) {
    ch.banks.resize(static_cast<std::size_t>(d.ranks_per_channel) *
                    d.banks_per_rank);
  }
}

DramController::Decoded DramController::decode(Addr line) const noexcept {
  const DramConfig& d = cfg_.dram;
  // `line` is a line-aligned byte address (cache::Geometry::line_addr).
  const std::uint64_t unit = line / d.interleave_bytes;
  const std::uint64_t within = unit / d.channels;
  const std::uint64_t units_per_row = d.row_bytes / d.interleave_bytes;
  const std::uint64_t banks =
      static_cast<std::uint64_t>(d.ranks_per_channel) * d.banks_per_rank;
  Decoded out;
  out.channel = static_cast<std::uint32_t>(unit % d.channels);
  // Row-interleaved bank map: consecutive rows of one channel rotate over
  // the banks, while units inside a row stay together (streaming traffic
  // earns row hits, bank parallelism comes from row-sized strides).
  out.bank = static_cast<std::uint32_t>((within / units_per_row) % banks);
  out.row = within / (units_per_row * banks);
  return out;
}

Cycle DramController::transfer_cycles(std::uint32_t bytes) const noexcept {
  return (bytes + cfg_.bytes_per_cycle - 1) / cfg_.bytes_per_cycle;
}

void DramController::read(Cycle start, std::uint32_t bytes, Addr line,
                          MemCallback cb) {
  Request req;
  req.line = line;
  req.bytes = bytes;
  req.is_write = false;
  req.cb = std::move(cb);
  issue(start, std::move(req));
}

void DramController::write(Cycle start, std::uint32_t bytes, Addr line,
                           MemCallback cb) {
  Request req;
  req.line = line;
  req.bytes = bytes;
  req.is_write = true;
  req.cb = std::move(cb);
  issue(start, std::move(req));
}

void DramController::set_trace(obs::TraceRecorder* rec) {
  trace_ = rec;
  channel_tracks_.clear();
  bank_tracks_.clear();
  if (trace_ == nullptr) return;
  const std::size_t banks = channels_.front().banks.size();
  for (std::size_t ci = 0; ci < channels_.size(); ++ci) {
    channel_tracks_.push_back(trace_->track("dram.c" + std::to_string(ci)));
    for (std::size_t b = 0; b < banks; ++b) {
      bank_tracks_.push_back(trace_->track(
          "dram.c" + std::to_string(ci) + ".b" + std::to_string(b)));
    }
  }
}

void DramController::issue(Cycle start, Request req) {
  // Requests are handed over at their channel-arrival cycle; fabrics issue
  // them ahead of time (e.g. the bus at grant + address_phase).
  if (start > eq_.now()) {
    eq_.schedule_at(start, [this, req = std::move(req)]() mutable {
      arrive(std::move(req));
    });
  } else {
    arrive(std::move(req));
  }
}

void DramController::arrive(Request req) {
  const prof::ScopedPhase prof_scope(prof::Phase::kDram);
  const Decoded d = decode(req.line);
  req.bank = d.bank;
  req.row = d.row;
  Channel& ch = channels_[d.channel];
  if (!req.is_write) {
    // Write forwarding — the oracle-threading invariant: an older queued
    // write to the same line must satisfy this read, so it is served from
    // the queue (tCAS + transfer) and never visits the bank.
    const auto matches = [&req](const Request& q) {
      return q.is_write && q.line == req.line;
    };
    const bool fwd =
        std::any_of(ch.queue.begin(), ch.queue.end(), matches) ||
        std::any_of(ch.spill.begin(), ch.spill.end(), matches);
    if (fwd) {
      ++stats_.write_forwards;
      if (trace_ != nullptr) {
        trace_->instant(channel_tracks_[d.channel], "fwd", eq_.now(), "line",
                        req.line);
      }
      const Cycle done =
          eq_.now() + cfg_.dram.t_cas + transfer_cycles(req.bytes);
      if (req.cb) {
        eq_.schedule_at(done, [cb = std::move(req.cb), done]() mutable {
          cb(done);
        });
      }
      return;
    }
  }
  if (ch.queue.size() < cfg_.dram.queue_depth) {
    ch.queue.push_back(std::move(req));
  } else {
    ch.spill.push_back(std::move(req));
  }
  pump(d.channel);
}

void DramController::apply_refresh(std::size_t ci, Cycle now) {
  Channel& ch = channels_[ci];
  const DramConfig& d = cfg_.dram;
  if (d.t_refi == 0) return;
  const std::uint64_t due = now / d.t_refi;
  if (due <= ch.refreshes_applied) return;
  // Catch up all elapsed refresh intervals at once: each one closes every
  // open row and holds the banks for tRFC past its nominal tick. Only the
  // latest tick's window can still bind (earlier ones ended in the past).
  const Cycle busy_until = due * d.t_refi + d.t_rfc;
  for (Bank& b : ch.banks) {
    b.open_row = -1;
    b.ready = std::max(b.ready, busy_until);
  }
  if (trace_ != nullptr) {
    trace_->instant(channel_tracks_[ci], "refresh", now, "caught_up",
                    due - ch.refreshes_applied);
  }
  stats_.refreshes += due - ch.refreshes_applied;
  ch.refreshes_applied = due;
}

void DramController::pump(std::size_t ci) {
  const prof::ScopedPhase prof_scope(prof::Phase::kDram);
  Channel& ch = channels_[ci];
  if (ch.busy) return;
  // Refill the scheduler window from the FIFO spill.
  while (ch.queue.size() < cfg_.dram.queue_depth && !ch.spill.empty()) {
    ch.queue.push_back(std::move(ch.spill.front()));
    ch.spill.pop_front();
  }
  if (ch.queue.empty()) return;
  const Cycle now = eq_.now();
  apply_refresh(ci, now);

  // FR-FCFS: oldest row-hit first, oldest overall otherwise — unless the
  // oldest has been bypassed starvation_limit times, which forces it.
  std::size_t pick = 0;
  if (ch.queue.front().bypassed < cfg_.dram.starvation_limit) {
    for (std::size_t i = 0; i < ch.queue.size(); ++i) {
      const Request& q = ch.queue[i];
      if (ch.banks[q.bank].open_row == static_cast<std::int64_t>(q.row)) {
        pick = i;
        break;
      }
    }
  }
  if (pick != 0) ++ch.queue.front().bypassed;

  Request req = std::move(ch.queue[pick]);
  ch.queue.erase(ch.queue.begin() +
                 static_cast<std::ptrdiff_t>(pick));
  Bank& bank = ch.banks[req.bank];
  const DramConfig& dc = cfg_.dram;

  const Cycle start = std::max(now, bank.ready);
  Cycle access = 0;
  const char* row_outcome = nullptr;
  if (bank.open_row == static_cast<std::int64_t>(req.row)) {
    access = dc.t_cas;
    ++stats_.row_hits;
    row_outcome = req.is_write ? "wr.hit" : "rd.hit";
  } else if (bank.open_row < 0) {
    access = dc.t_rcd + dc.t_cas;
    ++stats_.row_misses;
    ++stats_.activates;
    row_outcome = req.is_write ? "wr.miss" : "rd.miss";
  } else {
    access = dc.t_rp + dc.t_rcd + dc.t_cas;
    ++stats_.row_conflicts;
    ++stats_.precharges;
    ++stats_.activates;
    row_outcome = req.is_write ? "wr.conflict" : "rd.conflict";
  }
  bank.open_row = static_cast<std::int64_t>(req.row);

  const Cycle data_start = std::max(start + access, ch.data_free);
  const Cycle done = data_start + transfer_cycles(req.bytes);
  ch.data_free = done;
  bank.ready = done;

  if (trace_ != nullptr) {
    trace_->span(bank_tracks_[ci * ch.banks.size() + req.bank], row_outcome,
                 start, done, "row", req.row);
  }

  // One command in service per channel at a time; the completion event
  // reopens the scheduler. (Bank-level overlap is folded into the access
  // latency — see the class comment.)
  ch.busy = true;
  ch.in_service = std::move(req.cb);
  eq_.schedule_at(done, [this, ci, done] {
    Channel& c = channels_[ci];
    c.busy = false;
    // Moved out before the call: the callback may issue a request that
    // re-pumps this channel and puts the next command in service.
    const MemCallback cb = std::move(c.in_service);
    if (cb) cb(done);
    pump(ci);
  });
}

}  // namespace cdsim::mem
