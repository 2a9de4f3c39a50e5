#include "cdsim/obs/interval_sampler.hpp"

#include <bit>
#include <cinttypes>

#include "cdsim/common/assert.hpp"

namespace cdsim::obs {

IntervalSampler::IntervalSampler(Cycle period) : period_(period) {
  CDSIM_ASSERT_MSG(period >= 1, "sampler period must be >= 1 cycle");
}

IntervalSampler::~IntervalSampler() { finish(); }

bool IntervalSampler::open_csv(const std::string& path, std::string* err) {
  if (out_ != nullptr) {
    if (err != nullptr) *err = "sampler CSV already open";
    return false;
  }
  out_ = std::fopen(path.c_str(), "wb");
  if (out_ == nullptr) {
    if (err != nullptr) *err = "cannot open series file: " + path;
    return false;
  }
  if (std::fputs(
          "window_start,window_end,instructions,l2_accesses,l2_misses,"
          "ipc,l2_miss_rate,l2_powered_frac,dram_row_hit_rate,"
          "fabric_occupancy,avg_l2_temp_k,max_l2_temp_k\n",
          out_) < 0) {
    write_error_ = true;
  }
  return true;
}

void IntervalSampler::push(const SampleRow& row) {
  ++rows_;
  // FNV-1a over each field's 8 bytes, little-endian, in field order: fully
  // specified, so the pinned golden checksum is platform-independent.
  for (const std::uint64_t bits :
       {row.window_start, row.window_end, row.instructions, row.l2_accesses,
        row.l2_misses, std::bit_cast<std::uint64_t>(row.ipc),
        std::bit_cast<std::uint64_t>(row.l2_miss_rate),
        std::bit_cast<std::uint64_t>(row.l2_powered_frac),
        std::bit_cast<std::uint64_t>(row.dram_row_hit_rate),
        std::bit_cast<std::uint64_t>(row.fabric_occupancy),
        std::bit_cast<std::uint64_t>(row.avg_l2_temp_kelvin),
        std::bit_cast<std::uint64_t>(row.max_l2_temp_kelvin)}) {
    hash_ = fnv1a_u64(hash_, bits);
  }
  if (out_ == nullptr) return;
  // CSV text is the human-facing view; %.9g round-trips enough digits for
  // plotting while the checksum above carries the exact bits.
  if (std::fprintf(out_,
                   "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                   ",%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n",
                   row.window_start, row.window_end, row.instructions,
                   row.l2_accesses, row.l2_misses, row.ipc, row.l2_miss_rate,
                   row.l2_powered_frac, row.dram_row_hit_rate,
                   row.fabric_occupancy, row.avg_l2_temp_kelvin,
                   row.max_l2_temp_kelvin) < 0) {
    write_error_ = true;
  }
}

bool IntervalSampler::finish() {
  if (out_ == nullptr) return !write_error_;
  if (std::fclose(out_) != 0) write_error_ = true;
  out_ = nullptr;
  return !write_error_;
}

}  // namespace cdsim::obs
