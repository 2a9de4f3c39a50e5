#include "cdsim/core/core_model.hpp"

#include <bit>

#include "cdsim/common/assert.hpp"

namespace cdsim::core {
namespace {

constexpr const char* stall_name(CoreModel::StallReason r) noexcept {
  switch (r) {
    case CoreModel::StallReason::kDep: return "stall.dep";
    case CoreModel::StallReason::kLoadQueue: return "stall.loadq";
    case CoreModel::StallReason::kRob: return "stall.rob";
    case CoreModel::StallReason::kPort: return "stall.mshr";
    case CoreModel::StallReason::kStore: return "stall.store";
    case CoreModel::StallReason::kCount: break;
  }
  return "stall";
}

}  // namespace

CoreModel::CoreModel(EventQueue& eq, const CoreConfig& cfg, CoreId id,
                     workload::WorkloadStream& stream, LoadStorePort& port,
                     std::uint64_t instr_budget)
    : eq_(eq),
      cfg_(cfg),
      id_(id),
      stream_(stream),
      port_(port),
      budget_(instr_budget),
      outstanding_(std::bit_ceil(std::size_t{cfg.rob_window} + 2)) {
  CDSIM_ASSERT(std::has_single_bit(cfg_.issue_width));
  CDSIM_ASSERT(cfg_.max_outstanding_loads >= 1);
  CDSIM_ASSERT(instr_budget >= 1);
  gap_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg_.issue_width));
  port_.set_resources_freed([this] { wake(); });
}

void CoreModel::start(std::function<void()> on_finished) {
  on_finished_ = std::move(on_finished);
  advance();
}

double CoreModel::ipc(Cycle now) const {
  const Cycle end = done_ ? finish_ : now;
  return safe_div(static_cast<double>(committed_),
                  static_cast<double>(end == 0 ? 1 : end));
}

void CoreModel::advance() {
  if (done_) return;
  if (committed_ >= budget_) {
    // Budget committed; drain outstanding loads before declaring finish so
    // the last misses' latencies are fully accounted.
    if (outstanding_count_ == 0) finish();
    return;
  }
  CDSIM_ASSERT(!have_op_);
  op_ = stream_.next(eq_.now());
  have_op_ = true;

  // The gap's non-memory instructions retire at issue_width per cycle;
  // the fractional cycle carries over, in 1/issue_width units, so pacing
  // is exact in the long run.
  committed_ += op_.gap;
  gap_rem_ += op_.gap;
  const Cycle delay = gap_rem_ >> gap_shift_;
  gap_rem_ &= (std::uint64_t{1} << gap_shift_) - 1;

  // Zero-delay ops issue in the same cycle; calling directly (with a depth
  // guard) avoids an event per operation on the hot path.
  if (delay == 0 && chain_depth_ < 64) {
    ++chain_depth_;
    try_issue();
    --chain_depth_;
    return;
  }
  eq_.schedule_in(delay, [this] { try_issue(); });
}

bool CoreModel::rob_blocked() const {
  if (outstanding_len_ == 0) return false;
  // Oldest incomplete load bounds the window (completed fronts were
  // retired in try_issue before this check).
  const OutstandingLoad& oldest = outstanding_[outstanding_head_];
  return committed_ > oldest.instr_no &&
         committed_ - oldest.instr_no > cfg_.rob_window;
}

void CoreModel::try_issue() {
  if (done_) return;
  CDSIM_ASSERT(have_op_);

  // Retire completed loads in program order (ROB head drains).
  const std::size_t mask = outstanding_.size() - 1;
  while (outstanding_len_ != 0 && outstanding_[outstanding_head_].completed) {
    outstanding_head_ = (outstanding_head_ + 1) & mask;
    --outstanding_len_;
  }

  const bool is_load = op_.type != AccessType::kStore;
  const std::uint8_t chain = op_.chain % workload::kMaxChains;
  if (is_load) {
    if (op_.dependent && chain_outstanding_[chain]) {
      park(StallReason::kDep);  // woken by that chain's load completion
      return;
    }
    if (outstanding_count_ >= cfg_.max_outstanding_loads) {
      park(StallReason::kLoadQueue);  // woken by any load completion
      return;
    }
    if (rob_blocked()) {
      park(StallReason::kRob);
      return;
    }
    CDSIM_ASSERT_MSG(outstanding_len_ <= cfg_.rob_window,
                     "outstanding-load ring would overwrite a live slot");
    OutstandingLoad* slot =
        &outstanding_[(outstanding_head_ + outstanding_len_) & mask];
    *slot = OutstandingLoad{committed_, eq_.now(), /*completed=*/false};
    ++outstanding_len_;
    const std::uint64_t seq = next_load_seq_++;
    const core::LoadOutcome out =
        port_.try_load(op_.addr, [this, slot, seq, chain](Cycle t) {
          slot->completed = true;
          --outstanding_count_;
          load_lat_.add(t >= slot->issued_at ? t - slot->issued_at : 0);
          if (seq == chain_last_seq_[chain]) chain_outstanding_[chain] = false;
          if (done_) return;
          if (committed_ >= budget_ && !have_op_ && outstanding_count_ == 0) {
            finish();
            return;
          }
          wake();
        });
    if (!out.accepted) {
      --outstanding_len_;
      park(StallReason::kPort);  // woken by the resources-freed callback
      return;
    }
    loads_.inc();
    if (out.completed) {
      // Synchronous hit: a few cycles of latency, fully hidden by the
      // out-of-order window. No outstanding tracking needed.
      --outstanding_len_;
      load_lat_.add(out.latency);
    } else {
      ++outstanding_count_;
      chain_last_seq_[chain] = seq;
      chain_outstanding_[chain] = true;
    }
  } else {
    if (!port_.try_store(op_.addr)) {
      park(StallReason::kStore);  // woken when the write buffer drains
      return;
    }
  }

  ++committed_;
  have_op_ = false;
  advance();
}

void CoreModel::park(StallReason r) {
  if (parked_) return;
  parked_ = true;
  park_reason_ = r;
  parked_since_ = eq_.now();
}

void CoreModel::wake() {
  if (done_) return;
  if (parked_) {
    parked_ = false;
    const Cycle stalled = eq_.now() - parked_since_;
    stall_cycles_.inc(stalled);
    stall_by_[static_cast<std::size_t>(park_reason_)].inc(stalled);
    if (trace_ != nullptr && stalled > 0) {
      trace_->span(trace_track_, stall_name(park_reason_), parked_since_,
                   eq_.now());
    }
    try_issue();
  }
}

void CoreModel::finish() {
  CDSIM_ASSERT(!done_);
  // Reached only with no pending op, and a parked core always holds one.
  CDSIM_ASSERT(!parked_);
  done_ = true;
  finish_ = eq_.now();
  if (trace_ != nullptr) trace_->instant(trace_track_, "finish", eq_.now());
  if (on_finished_) on_finished_();
}

}  // namespace cdsim::core
