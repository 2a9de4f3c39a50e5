#pragma once
// In-memory traces: capture and replay of per-core memory-operation
// streams without touching disk.
//
// A Trace is the exact sequence of MemOps the simulator drew from each
// core's workload stream, in global draw order. Because every workload
// stream is a deterministic function of its inputs and the event kernel is
// deterministic, replaying a captured trace (with per-core budgets of
// exactly sum(gap+1)) reproduces the original run bit-identically — which
// is what makes traces usable as divergence repros and as shrinker input.
//
// On disk, traces are .cdt v2 files (trace_v2.hpp): save_v2() writes a
// Trace, and open_trace_source() streams one back.

#include <cstdint>
#include <memory>
#include <vector>

#include "cdsim/workload/trace_source.hpp"

namespace cdsim::workload {

/// A captured (or hand-built) in-memory trace. Implements TraceSink, so
/// capture decorators write into it directly.
struct Trace : TraceSink {
  std::uint32_t num_cores = 0;
  std::vector<TraceRecord> records;  ///< Global draw order.

  void append(const TraceRecord& rec) override { records.push_back(rec); }

  /// Per-core op sequences, in draw order (size = num_cores).
  [[nodiscard]] std::vector<std::vector<MemOp>> ops_by_core() const;

  /// Instruction budget that makes a replayed core commit exactly its
  /// recorded ops: sum of (gap + 1) per core. Cores with no records get 1
  /// (they replay a single idle filler op — see replay_factory).
  [[nodiscard]] std::vector<std::uint64_t> per_core_instructions() const;
};

/// TraceSource cursor over an in-memory Trace (shared, never copied).
/// Bridges captured and hand-built traces — the shrinker's candidates and
/// the fuzz replays — into the streaming replay machinery.
class InMemoryTraceSource final : public TraceSource {
 public:
  explicit InMemoryTraceSource(std::shared_ptr<const Trace> trace)
      : trace_(std::move(trace)) {
    CDSIM_ASSERT(trace_ != nullptr);
  }

  bool next(TraceRecord& out) override {
    if (pos_ >= trace_->records.size()) return false;
    out = trace_->records[pos_++];
    return true;
  }

  [[nodiscard]] std::uint32_t num_cores() const override {
    return trace_->num_cores;
  }

  [[nodiscard]] std::vector<std::uint64_t> per_core_instructions()
      const override {
    return trace_->per_core_instructions();
  }

 private:
  std::shared_ptr<const Trace> trace_;
  std::size_t pos_ = 0;
};

/// Replays a shared in-memory trace without duplicating its records: each
/// pass opens an InMemoryTraceSource cursor over `trace` and demultiplexes
/// it per core (see trace_source.hpp for the tail/idle-core contract).
StreamFactory replay_factory(std::shared_ptr<const Trace> trace);

/// Convenience overload for temporaries: copies `trace` once into shared
/// ownership so the factory outlives it. Callers holding a stable Trace
/// should prefer the shared_ptr overload (no copy).
StreamFactory replay_factory(const Trace& trace);

}  // namespace cdsim::workload
