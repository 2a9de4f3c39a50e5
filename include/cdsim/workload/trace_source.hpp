#pragma once
// Streaming trace plumbing: the TraceSource/TraceSink abstraction every
// trace producer and consumer in the repo is built on.
//
// A TraceSink receives drawn operations one at a time, in global draw
// order (capture decorators write into one; an in-memory Trace and the
// chunked .cdt v2 writer both implement it). A TraceSource is a forward
// cursor over a stored trace — pull records one at a time, O(1) state —
// implemented by the in-memory Trace bridge and the chunked v2 reader.
// Replay is built on sources, never on materialized per-core vectors, so
// a multi-gigabyte trace replays without ever living in memory:
//
//   * replay_factory(open): ONE shared cursor per system, demultiplexed
//     into per-core queues. Memory is bounded by the capture's
//     interleaving skew (simulator captures interleave fairly, so queues
//     stay shallow). Cheapest when the source is already in memory.
//   * filtered_replay_stream(source, core): one core's OWN cursor, which
//     discards other cores' records. Strictly O(chunk) memory per core no
//     matter how skewed the trace is, at the price of N file cursors.
//     sim::plan_mix builds every mix on it, so trace_replay and the
//     multi-gigabyte CI smoke replay through it.
//
// Both feed one replay stream, which ends every core's ops with the same
// tail rule: the final recorded op is returned verbatim once, every repeat
// after that is re-stamped dependent=false, and a core the trace never
// scheduled replays a single idle filler op. A repeated *dependent* load
// would chain on its own previous issue through the core's per-chain
// tracker, serializing the filler tail on the memory latency, so the
// tail's timing would depend on how often the op repeats rather than on
// the trace; re-stamped, a captured run replayed with a larger budget
// degrades into uniform, independent filler. One rule on both paths is
// what keeps the golden replay pins bit-identical across the in-memory and
// streaming paths.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdsim/common/assert.hpp"
#include "cdsim/workload/stream.hpp"

namespace cdsim::workload {

/// One drawn operation: which core drew it plus the op itself.
struct TraceRecord {
  CoreId core = 0;
  MemOp op;
};

/// Receives records in global draw order.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void append(const TraceRecord& rec) = 0;
};

/// Forward cursor over a stored trace.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Pulls the next record in global draw order. Returns false at the end
  /// of the trace (or, for disk-backed sources, on a read error — check
  /// the source's own error state when that matters).
  virtual bool next(TraceRecord& out) = 0;

  [[nodiscard]] virtual std::uint32_t num_cores() const = 0;

  /// Per-core instruction budgets that make a replayed core commit exactly
  /// its recorded ops: sum of (gap + 1) per core, with op-less cores
  /// bumped to 1 (they replay the idle filler). Available without scanning
  /// for footer-indexed formats; the in-memory bridge computes it.
  [[nodiscard]] virtual std::vector<std::uint64_t> per_core_instructions()
      const = 0;
};

using TraceSourcePtr = std::unique_ptr<TraceSource>;

/// Opens one fresh, independent cursor over a trace, positioned at the
/// start. Replay factories take openers rather than sources so a factory
/// can be reused across systems (each pass re-opens) and so rate-mode
/// co-scheduling can give every assigned core its own cursor.
using TraceOpener = std::function<TraceSourcePtr()>;

/// Reserved region for the idle filler op of cores a trace never
/// scheduled (region id 7 in the synthetic address map's bits 40+, far
/// from every generator).
inline constexpr Addr kReplayIdleRegion = 0x7ull << 40;

/// The single idle load an op-less core replays (budget 1 via
/// per_core_instructions()): a reserved, never-shared line.
[[nodiscard]] inline MemOp replay_idle_op(CoreId core) {
  return MemOp{AccessType::kLoad,
               kReplayIdleRegion | (static_cast<Addr>(core) << 32), 0, false,
               0};
}

/// Stream decorator that records every drawn op into `sink` before handing
/// it to the simulator. The event kernel is single-threaded, so appends
/// from all cores interleave in deterministic global draw order.
class CaptureStream final : public WorkloadStream {
 public:
  CaptureStream(StreamPtr inner, CoreId core, TraceSink* sink)
      : inner_(std::move(inner)), core_(core), sink_(sink) {}

  MemOp next(Cycle now) override {
    const MemOp op = inner_->next(now);
    sink_->append(TraceRecord{core_, op});
    return op;
  }

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

 private:
  StreamPtr inner_;
  CoreId core_ = 0;
  TraceSink* sink_ = nullptr;
};

/// Wraps `inner` so every produced stream records into `sink` (an
/// in-memory Trace, a ChunkedTraceWriter, ...). The caller keeps the sink
/// alive for the run and finalizes it afterwards if the sink needs it.
StreamFactory capture_factory(StreamFactory inner, TraceSink* sink);

/// One core's replay over a PRIVATE cursor: skips records of other cores
/// as it streams, so memory stays O(1) in trace length regardless of how
/// the capture interleaved. `target` is the trace core whose ops it
/// replays (rate-mode co-scheduling maps machine cores onto trace cores
/// explicitly); the tail rule is replay_factory's.
[[nodiscard]] StreamPtr filtered_replay_stream(TraceSourcePtr source,
                                               CoreId target);

/// Replay on a single shared cursor (one forward pass, per-core queues).
/// The opener runs once per system: CmpSystem requests streams in core
/// order, and a request for a core at or below the previous one starts a
/// fresh pass, so the factory is safely reusable across runs.
StreamFactory replay_factory(TraceOpener open);

}  // namespace cdsim::workload
