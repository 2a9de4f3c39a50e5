#include "cdsim/workload/trace_file.hpp"

#include <memory>
#include <utility>

#include "cdsim/common/assert.hpp"

namespace cdsim::workload {

std::vector<std::vector<MemOp>> Trace::ops_by_core() const {
  std::vector<std::vector<MemOp>> per(num_cores);
  for (const TraceRecord& r : records) {
    CDSIM_ASSERT(r.core < num_cores);
    per[r.core].push_back(r.op);
  }
  return per;
}

std::vector<std::uint64_t> Trace::per_core_instructions() const {
  std::vector<std::uint64_t> budget(num_cores, 0);
  for (const TraceRecord& r : records) {
    CDSIM_ASSERT(r.core < num_cores);
    budget[r.core] += static_cast<std::uint64_t>(r.op.gap) + 1;
  }
  for (auto& b : budget) {
    if (b == 0) b = 1;  // idle filler op (see replay_factory)
  }
  return budget;
}

StreamFactory replay_factory(std::shared_ptr<const Trace> trace) {
  CDSIM_ASSERT(trace != nullptr);
  return replay_factory(TraceOpener{[trace]() -> TraceSourcePtr {
    return std::make_unique<InMemoryTraceSource>(trace);
  }});
}

StreamFactory replay_factory(const Trace& trace) {
  return replay_factory(std::make_shared<const Trace>(trace));
}

}  // namespace cdsim::workload
