#include "cdsim/workload/trace_source.hpp"

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "cdsim/common/small_fn.hpp"

namespace cdsim::workload {

StreamFactory capture_factory(StreamFactory inner, TraceSink* sink) {
  CDSIM_ASSERT(sink != nullptr);
  return [inner = std::move(inner), sink](CoreId core,
                                          std::uint64_t seed) -> StreamPtr {
    return std::make_unique<CaptureStream>(inner(core, seed), core, sink);
  };
}

namespace {

/// Per-core replay with the tail rule every replay shares (see the file
/// comment of trace_source.hpp): `pull` yields the core's recorded ops in
/// order and returns false once there are no more; then the final op
/// repeats re-stamped independent, or `core`'s idle filler op when there
/// was none.
class ReplayStream final : public WorkloadStream {
 public:
  using Pull = SmallFn<bool(MemOp&)>;

  ReplayStream(Pull pull, CoreId core)
      : pull_(std::move(pull)), core_(core) {}

  MemOp next(Cycle /*now*/) override {
    if (!tail_) {
      if (pull_(last_)) {
        have_last_ = true;
        return last_;  // the final recorded op leaves here verbatim
      }
      tail_ = true;
      if (!have_last_) last_ = replay_idle_op(core_);
    }
    MemOp op = last_;
    // The idle filler's first return counts as its verbatim appearance;
    // it is already independent.
    if (have_last_) op.dependent = false;
    have_last_ = true;
    return op;
  }

  [[nodiscard]] std::string_view name() const override { return "replay"; }

 private:
  Pull pull_;
  CoreId core_ = 0;
  MemOp last_;
  bool have_last_ = false;
  bool tail_ = false;
};

/// Shared-cursor demultiplexer: one forward pass over a TraceSource
/// feeding per-core FIFO queues. pop(core) advances the source (queueing
/// other cores' ops) until an op for `core` appears or the source ends.
class ReplayDemux {
 public:
  explicit ReplayDemux(TraceSourcePtr source)
      : source_(std::move(source)), queues_(source_->num_cores()) {}

  /// False once the source is exhausted and `core`'s queue is empty.
  bool pop(CoreId core, MemOp& out) {
    CDSIM_ASSERT(core < queues_.size());
    while (queues_[core].empty() && !exhausted_) {
      TraceRecord rec;
      if (!source_->next(rec)) {
        exhausted_ = true;
        break;
      }
      CDSIM_ASSERT_MSG(rec.core < queues_.size(),
                       "trace record names a core outside the trace header");
      queues_[rec.core].push_back(rec.op);
    }
    if (queues_[core].empty()) return false;
    out = queues_[core].front();
    queues_[core].pop_front();
    return true;
  }

  [[nodiscard]] std::uint32_t num_cores() const {
    return static_cast<std::uint32_t>(queues_.size());
  }

 private:
  TraceSourcePtr source_;
  std::vector<std::deque<MemOp>> queues_;
  bool exhausted_ = false;
};

/// Shared-cursor state for replay_factory: the demux of the current pass
/// plus the last core handed out, so a non-ascending request (CmpSystem
/// always asks 0..N-1 in order) re-opens the source for a fresh pass.
struct DemuxPass {
  std::shared_ptr<ReplayDemux> demux;
  CoreId prev_core = 0;
  bool any = false;
};

}  // namespace

StreamPtr filtered_replay_stream(TraceSourcePtr source, CoreId target) {
  CDSIM_ASSERT(source != nullptr);
  return std::make_unique<ReplayStream>(
      [source = std::move(source), target](MemOp& out) {
        TraceRecord rec;
        while (source->next(rec)) {
          if (rec.core != target) continue;  // another core's record
          out = rec.op;
          return true;
        }
        return false;
      },
      target);
}

StreamFactory replay_factory(TraceOpener open) {
  CDSIM_ASSERT(open != nullptr);
  auto pass = std::make_shared<DemuxPass>();
  return [open = std::move(open), pass](CoreId core,
                                        std::uint64_t /*seed*/) -> StreamPtr {
    if (pass->demux == nullptr || (pass->any && core <= pass->prev_core)) {
      TraceSourcePtr src = open();
      CDSIM_ASSERT_MSG(src != nullptr, "trace opener failed");
      pass->demux = std::make_shared<ReplayDemux>(std::move(src));
    }
    pass->prev_core = core;
    pass->any = true;
    CDSIM_ASSERT_MSG(core < pass->demux->num_cores(),
                     "replay on more cores than the trace recorded");
    return std::make_unique<ReplayStream>(
        [demux = pass->demux, core](MemOp& out) {
          return demux->pop(core, out);
        },
        core);
  };
}

}  // namespace cdsim::workload
