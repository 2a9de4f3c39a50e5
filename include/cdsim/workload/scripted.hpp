#pragma once
// Scripted workload: loops over a fixed operation sequence.
//
// Used by unit/integration tests to drive the hierarchy with directed
// access patterns, and by examples that hand-write a sharing pattern.

#include <utility>
#include <vector>

#include "cdsim/common/assert.hpp"
#include "cdsim/workload/stream.hpp"

namespace cdsim::workload {

/// Replays `ops` in order and loops at the end. (Recorded traces replay
/// through trace_source.hpp's factories, which end a core's ops with a
/// repeat-last tail instead.)
class ScriptedWorkload final : public WorkloadStream {
 public:
  explicit ScriptedWorkload(std::vector<MemOp> ops,
                            std::string name = "scripted")
      : ops_(std::move(ops)), name_(std::move(name)) {
    CDSIM_ASSERT(!ops_.empty());
  }

  MemOp next(Cycle /*now*/) override {
    const MemOp op = ops_[pos_];
    pos_ = pos_ + 1 < ops_.size() ? pos_ + 1 : 0;
    return op;
  }

  [[nodiscard]] std::string_view name() const override { return name_; }

 private:
  std::vector<MemOp> ops_;
  std::size_t pos_ = 0;
  std::string name_;
};

}  // namespace cdsim::workload
