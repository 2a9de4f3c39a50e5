#include "components.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cdsim/cache/mshr.hpp"
#include "cdsim/cache/tag_array.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/rng.hpp"
#include "cdsim/mem/memory.hpp"
#include "cdsim/noc/mesh.hpp"
#include "cdsim/workload/trace_v2.hpp"

namespace perfbench {
namespace {

using namespace cdsim;

constexpr int kBatches = 5;

/// Keeps timed results observable so the loops are not optimized away.
volatile std::uint64_t g_sink = 0;

/// Median ns per op over kBatches calls of body(), which performs `ops`
/// operations per call.
template <class Body>
double ns_per_op(std::uint64_t ops, Body&& body) {
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(ops));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double tag_lookup_ns() {
  constexpr std::uint64_t kOps = 1u << 20;
  cache::TagArray<int> tags(cache::Geometry(1 * MiB, 64, 8));
  Xoshiro256 rng(1);
  std::vector<Addr> probes(4096);
  for (Addr& a : probes) {
    a = rng.below(1 << 16) * 64;
    // About half the probes hit: each address is installed with p = 1/2.
    if (rng.below(2) == 0) tags.install(tags.pick_victim(a), a, 0);
  }
  return ns_per_op(kOps, [&] {
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      hits += static_cast<bool>(tags.find(probes[i & 4095])) ? 1 : 0;
    }
    g_sink = g_sink + hits;
  });
}

double mshr_ns() {
  constexpr std::uint64_t kOps = 1u << 20;
  cache::MshrFile mshr(16);
  Addr a = 0;
  return ns_per_op(kOps, [&] {
    for (std::uint64_t i = 0; i < kOps; ++i) {
      auto& e = mshr.allocate(a, false, 0);
      mshr.merge(e, false, [](Cycle) {});
      mshr.complete(a, 1);
      a += 64;
    }
    g_sink = g_sink + mshr.total_allocations();
  });
}

double eventq_ns() {
  constexpr std::uint64_t kOps = 1u << 20;
  EventQueue eq;
  std::uint64_t fired = 0;
  return ns_per_op(kOps, [&] {
    for (std::uint64_t i = 0; i < kOps; ++i) {
      eq.schedule_in(1, [&fired] { ++fired; });
      eq.step();
    }
    g_sink = g_sink + fired;
  });
}

double mesh_hop_ns() {
  constexpr std::uint64_t kPackets = 1u << 16;
  EventQueue eq;
  noc::MeshNoc mesh(eq, noc::NocConfig{}, 4, 4);
  const std::uint32_t hops = mesh.hops(0, 15);
  std::uint64_t delivered = 0;
  const double per_packet = ns_per_op(kPackets, [&] {
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      mesh.send(0, 15, 64, [&delivered](Cycle) { ++delivered; });
      eq.run();
    }
    g_sink = g_sink + delivered;
  });
  return per_packet / static_cast<double>(hops);
}

double dram_read_ns() {
  constexpr std::uint64_t kOps = 1u << 16;
  EventQueue eq;
  mem::MemoryConfig cfg;
  cfg.model = mem::MemoryModel::kDram;
  mem::DramController dram(eq, cfg);
  Xoshiro256 rng(3);
  std::uint64_t done = 0;
  return ns_per_op(kOps, [&] {
    for (std::uint64_t i = 0; i < kOps; ++i) {
      dram.read(eq.now(), 64, rng.below(1 << 22) * 64,
                [&done](Cycle) { ++done; });
      eq.run();
    }
    g_sink = g_sink + done;
  });
}

double trace_next_ns(const std::string& path) {
  std::string err;
  auto reader = workload::ChunkedTraceReader::open(path, &err);
  if (reader == nullptr) {
    throw std::runtime_error("component pass: cannot open " + path + ": " +
                             err);
  }
  const std::uint64_t records = reader->info().total_records;
  return ns_per_op(records, [&] {
    workload::TraceRecord rec;
    std::uint64_t sum = 0;
    reader->seek(0);
    while (reader->next(rec)) sum += rec.op.addr;
    if (reader->failed()) {
      throw std::runtime_error("component pass: " + reader->error());
    }
    g_sink = g_sink + sum;
  });
}

}  // namespace

ComponentCosts measure_components(const std::string& trace_path) {
  ComponentCosts c;
  c.tag_lookup_ns = tag_lookup_ns();
  c.mshr_ns = mshr_ns();
  c.eventq_ns = eventq_ns();
  c.mesh_hop_ns = mesh_hop_ns();
  c.dram_read_ns = dram_read_ns();
  c.trace_next_ns = trace_next_ns(trace_path);
  return c;
}

}  // namespace perfbench
