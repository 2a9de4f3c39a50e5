#pragma once
// 2D-mesh network-on-chip with XY deterministic routing and credit-based
// flow control.
//
// Model: one router per tile, connected to its N/S/E/W neighbours by
// unidirectional links. A packet of `flits` flits traverses hop by hop:
//
//   * routing is dimension-ordered (X first, then Y) — the channel
//     dependency graph is acyclic, so with sinking destinations the mesh is
//     deadlock-free for any traffic pattern and any (nonzero) buffer depth;
//   * each link serializes one flit per cycle (`free_at` tracks the tail)
//     and is backed by `link_credits` packet buffers at the receiving
//     router. A packet may only start a hop when a credit is available;
//     otherwise it waits FIFO in the link's queue, holding its current
//     buffer — that is the backpressure that makes hot-home contention
//     visible end to end;
//   * a credit returns when the packet leaves the downstream buffer (it is
//     forwarded onward, or consumed at its destination).
//
// Everything runs on the shared EventQueue with FIFO wait queues, so a
// simulation using the mesh stays bit-exact reproducible. Per-link
// occupancy/packet/flit/stall statistics feed the scaling bench and the
// energy ledger (flit-hops x per-hop energy, see PowerConfig).

#include <cstdint>
#include <vector>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/ring.hpp"
#include "cdsim/common/small_fn.hpp"
#include "cdsim/common/stats.hpp"
#include "cdsim/common/types.hpp"

namespace cdsim::noc {

struct NocConfig {
  /// Pipeline latency of one router traversal (route compute + switch).
  Cycle router_latency = 1;
  /// Wire latency of one link hop.
  Cycle link_latency = 1;
  /// Payload bytes per flit (link width).
  std::uint32_t flit_bytes = 16;
  /// Header/command overhead added to every packet, in bytes.
  std::uint32_t header_bytes = 8;
  /// Packet buffers per link at the receiving router (credits). Must be
  /// at least 1; small values surface backpressure sooner.
  std::uint32_t link_credits = 4;
};

/// Tile grid shape used for `n` tiles: the most square w x h factorization
/// with both sides powers of two (16 -> 4x4, 32 -> 8x4, 8 -> 4x2).
/// Precondition: is_pow2(n).
struct MeshDims {
  std::uint32_t width = 1;
  std::uint32_t height = 1;
};
[[nodiscard]] MeshDims mesh_dims(std::uint32_t tiles) noexcept;

/// The mesh fabric.
class MeshNoc {
 public:
  /// Delivery callback, fired when the packet's tail reaches (and is
  /// consumed by) the destination tile. The buffer is sized for the
  /// directory mesh's largest capture (a result + a completion hook);
  /// larger captures fall back to the heap transparently.
  using Delivery = SmallFn<void(Cycle), 64>;

  struct LinkStats {
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;
    Cycle busy_cycles = 0;    ///< Cycles the link serialized flits.
    std::uint64_t stalls = 0; ///< Packets that had to wait for a credit.
  };

  MeshNoc(EventQueue& eq, const NocConfig& cfg, std::uint32_t width,
          std::uint32_t height);

  MeshNoc(const MeshNoc&) = delete;
  MeshNoc& operator=(const MeshNoc&) = delete;

  /// Injects a packet of `payload_bytes` (+ header) from tile `src` to
  /// tile `dst`. `on_delivered` fires at the consumption cycle.
  void send(std::uint32_t src, std::uint32_t dst, std::uint32_t payload_bytes,
            Delivery on_delivered);

  // --- geometry -----------------------------------------------------------
  [[nodiscard]] std::uint32_t num_tiles() const noexcept {
    return width_ * height_;
  }
  /// Manhattan hop count of the XY route.
  [[nodiscard]] std::uint32_t hops(std::uint32_t src,
                                   std::uint32_t dst) const noexcept;

  // --- statistics ---------------------------------------------------------
  [[nodiscard]] std::uint64_t packets_delivered() const noexcept {
    return packets_delivered_;
  }
  /// Packets injected but not yet consumed (0 after a drained run).
  [[nodiscard]] std::uint64_t packets_in_flight() const noexcept {
    return packets_sent_ - packets_delivered_;
  }
  /// Sum over hops of the flits that crossed each link — the dynamic-energy
  /// driver (energy = flit_hops x PowerConfig::noc_dyn_per_flit_hop).
  [[nodiscard]] std::uint64_t flit_hops() const noexcept { return flit_hops_; }
  [[nodiscard]] std::uint64_t bytes_injected() const noexcept {
    return bytes_injected_;
  }
  /// Mean injection-to-consumption latency of delivered packets, cycles.
  [[nodiscard]] double avg_packet_latency() const noexcept {
    return safe_div(static_cast<double>(latency_sum_),
                    static_cast<double>(packets_delivered_));
  }
  /// Busy fraction of the most-occupied link over [0, now] (clamped to 1):
  /// the fabric's bottleneck, comparable to bus utilization.
  [[nodiscard]] double max_link_utilization(Cycle now) const noexcept;
  /// Total credit-stall events across all links.
  [[nodiscard]] std::uint64_t total_stalls() const noexcept;
  [[nodiscard]] const LinkStats& link_stats(std::uint32_t tile,
                                            std::uint32_t dir) const {
    return links_[tile * kDirs + dir].stats;
  }

  /// Flits for a payload of `bytes` (header included, at least one flit).
  [[nodiscard]] std::uint32_t flits_for(std::uint32_t bytes) const noexcept {
    const std::uint32_t total = bytes + cfg_.header_bytes;
    const std::uint32_t f = (total + cfg_.flit_bytes - 1) / cfg_.flit_bytes;
    return f == 0 ? 1 : f;
  }

  static constexpr std::uint32_t kDirs = 4;  ///< E, W, N, S.

 private:
  static constexpr std::uint32_t kEast = 0, kWest = 1, kNorth = 2, kSouth = 3;
  static constexpr std::int32_t kNoLink = -1;

  struct Packet {
    std::uint32_t dst = 0;
    std::uint32_t flits = 0;
    Cycle injected = 0;
    std::int32_t in_link = kNoLink;  ///< Link whose buffer the packet holds.
    Delivery on_delivered;
  };

  struct Link {
    std::uint32_t to = 0;        ///< Receiving tile.
    std::uint32_t credits = 0;   ///< Free buffers at the receiving router.
    Cycle free_at = 0;           ///< Serialization tail on the wire.
    /// Packets (slots) awaiting a credit, FIFO. Ring capacity is fixed at
    /// construction from the credit budget (see the MeshNoc constructor's
    /// sizing proof); only injection bursts beyond every buffer in the
    /// mesh can ever grow it.
    FifoRing<std::uint32_t> waitq;
    LinkStats stats;
  };

  [[nodiscard]] std::uint32_t tile_x(std::uint32_t t) const noexcept {
    return t % width_;
  }
  [[nodiscard]] std::uint32_t tile_y(std::uint32_t t) const noexcept {
    return t / width_;
  }
  /// Output direction of the XY route from `at` toward `dst` (at != dst).
  [[nodiscard]] std::uint32_t xy_dir(std::uint32_t at,
                                     std::uint32_t dst) const noexcept;
  /// Link a packet at `tile` bound for `dst` takes next (tile != dst).
  [[nodiscard]] std::uint32_t next_link(std::uint32_t tile,
                                        std::uint32_t dst) const noexcept {
    return next_link_[static_cast<std::size_t>(tile) * num_tiles() + dst];
  }

  std::uint32_t acquire_slot(Packet&& p);
  void release_slot(std::uint32_t slot);
  /// Routes the packet one hop onward from `tile` (or consumes it there).
  void advance(std::uint32_t slot, std::uint32_t tile);
  /// Starts the hop across `link` (a credit is available).
  void traverse(std::uint32_t slot, std::uint32_t link);
  /// Returns one credit to `link` and unblocks its oldest waiter.
  void release_credit(std::uint32_t link);

  EventQueue& eq_;
  NocConfig cfg_;
  std::uint32_t width_ = 0, height_ = 0;
  std::vector<Link> links_;  ///< tile * kDirs + dir (unused edges inert).
  /// XY route table, tile * num_tiles() + dst -> next link index, filled
  /// at construction so a hop indexes instead of dividing by the width.
  std::vector<std::uint32_t> next_link_;
  /// Packet slot pool + LIFO free list, pre-sized from the credit budget
  /// at construction so the steady-state fabric never touches the heap.
  /// Safe as a vector (growth moves elements): no Packet& is ever held
  /// across an acquire_slot(), and delivery callbacks run only after the
  /// packet's slot has been released.
  std::vector<Packet> slots_;
  std::vector<std::uint32_t> free_slots_;

  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_delivered_ = 0;
  std::uint64_t flit_hops_ = 0;
  std::uint64_t bytes_injected_ = 0;
  std::uint64_t latency_sum_ = 0;
};

}  // namespace cdsim::noc
