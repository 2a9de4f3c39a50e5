#include "cdsim/noc/mesh.hpp"

#include <utility>

namespace cdsim::noc {

MeshDims mesh_dims(std::uint32_t tiles) noexcept {
  CDSIM_ASSERT(is_pow2(tiles));
  const unsigned bits = log2_pow2(tiles);
  // Split the exponent as evenly as possible; the wider side takes the
  // odd bit (32 -> 8x4, 8 -> 4x2, 2 -> 2x1).
  MeshDims d;
  d.height = 1u << (bits / 2);
  d.width = tiles / d.height;
  return d;
}

MeshNoc::MeshNoc(EventQueue& eq, const NocConfig& cfg, std::uint32_t width,
                 std::uint32_t height)
    : eq_(eq), cfg_(cfg), width_(width), height_(height) {
  CDSIM_ASSERT(width_ >= 1 && height_ >= 1);
  CDSIM_ASSERT(cfg_.link_credits >= 1);
  CDSIM_ASSERT(cfg_.flit_bytes >= 1);
  links_.resize(static_cast<std::size_t>(num_tiles()) * kDirs);
  // Wait-queue sizing: a packet waiting on link L occupies an input buffer
  // of L's source router, and that router has at most kDirs inbound links
  // of link_credits buffers each — so transit waiters per link are bounded
  // by kDirs * link_credits. Injection waiters (packets still at their
  // source, holding no buffer) sit on top of that bound, so the ring keeps
  // its amortized growth path; the assert pins the credit-derived floor.
  const std::size_t transit_bound =
      static_cast<std::size_t>(kDirs) * cfg_.link_credits;
  std::size_t wired = 0;
  for (std::uint32_t t = 0; t < num_tiles(); ++t) {
    const std::uint32_t x = tile_x(t), y = tile_y(t);
    auto wire = [&](std::uint32_t dir, std::uint32_t to) {
      Link& l = links_[t * kDirs + dir];
      l.to = to;
      l.credits = cfg_.link_credits;
      l.waitq = FifoRing<std::uint32_t>(transit_bound);
      CDSIM_ASSERT(l.waitq.capacity() >= transit_bound);
      ++wired;
    };
    if (x + 1 < width_) wire(kEast, t + 1);
    if (x > 0) wire(kWest, t - 1);
    if (y > 0) wire(kNorth, t - width_);
    if (y + 1 < height_) wire(kSouth, t + width_);
  }
  // Slot-pool sizing: every packet occupying a mesh buffer holds a slot
  // (wired links x credits), plus one injection in flight per tile. Bursts
  // beyond that grow the pool to its high-water mark once; steady state
  // then never allocates (same policy as the EventQueue slot pool).
  const std::size_t slot_budget = wired * cfg_.link_credits + num_tiles();
  slots_.reserve(slot_budget);
  free_slots_.reserve(slot_budget);
  next_link_.resize(static_cast<std::size_t>(num_tiles()) * num_tiles());
  for (std::uint32_t t = 0; t < num_tiles(); ++t) {
    for (std::uint32_t d = 0; d < num_tiles(); ++d) {
      if (d != t) {
        next_link_[static_cast<std::size_t>(t) * num_tiles() + d] =
            t * kDirs + xy_dir(t, d);
      }
    }
  }
}

std::uint32_t MeshNoc::hops(std::uint32_t src,
                            std::uint32_t dst) const noexcept {
  const std::int64_t dx = static_cast<std::int64_t>(tile_x(dst)) - tile_x(src);
  const std::int64_t dy = static_cast<std::int64_t>(tile_y(dst)) - tile_y(src);
  return static_cast<std::uint32_t>((dx < 0 ? -dx : dx) +
                                    (dy < 0 ? -dy : dy));
}

std::uint32_t MeshNoc::xy_dir(std::uint32_t at,
                              std::uint32_t dst) const noexcept {
  // Dimension order: resolve X fully before touching Y.
  if (tile_x(dst) > tile_x(at)) return kEast;
  if (tile_x(dst) < tile_x(at)) return kWest;
  return tile_y(dst) > tile_y(at) ? kSouth : kNorth;
}

std::uint32_t MeshNoc::acquire_slot(Packet&& p) {
  if (free_slots_.empty()) {
    slots_.push_back(std::move(p));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = std::move(p);
  return slot;
}

void MeshNoc::release_slot(std::uint32_t slot) {
  slots_[slot].on_delivered = nullptr;
  free_slots_.push_back(slot);
}

void MeshNoc::send(std::uint32_t src, std::uint32_t dst,
                   std::uint32_t payload_bytes, Delivery on_delivered) {
  CDSIM_ASSERT(src < num_tiles() && dst < num_tiles());
  Packet p;
  p.dst = dst;
  p.flits = flits_for(payload_bytes);
  p.injected = eq_.now();
  p.on_delivered = std::move(on_delivered);
  ++packets_sent_;
  bytes_injected_ += payload_bytes;
  const std::uint32_t slot = acquire_slot(std::move(p));
  // Injection models the local router traversal; a same-tile message never
  // touches a link.
  eq_.schedule_in(cfg_.router_latency,
                  [this, slot, src] { advance(slot, src); });
}

void MeshNoc::advance(std::uint32_t slot, std::uint32_t tile) {
  Packet& p = slots_[slot];
  if (tile == p.dst) {
    ++packets_delivered_;
    latency_sum_ += eq_.now() - p.injected;
    const std::int32_t in = p.in_link;
    Delivery cb = std::move(p.on_delivered);
    release_slot(slot);
    // Consumption frees the input buffer; the ejection port always sinks,
    // which (with XY's acyclic channel dependencies) is what makes the
    // mesh deadlock-free.
    if (in != kNoLink) release_credit(static_cast<std::uint32_t>(in));
    if (cb) cb(eq_.now());
    return;
  }
  const std::uint32_t link = next_link(tile, p.dst);
  Link& l = links_[link];
  if (l.credits == 0) {
    l.waitq.push_back(slot);  // holds its current buffer: backpressure
    ++l.stats.stalls;
    return;
  }
  traverse(slot, link);
}

void MeshNoc::traverse(std::uint32_t slot, std::uint32_t link) {
  Packet& p = slots_[slot];
  Link& l = links_[link];
  CDSIM_ASSERT(l.credits > 0);
  --l.credits;

  // Wire serialization: one flit per cycle, back to back behind the
  // previous occupant.
  const Cycle start = eq_.now() > l.free_at ? eq_.now() : l.free_at;
  const Cycle ser = p.flits;
  l.free_at = start + ser;
  l.stats.busy_cycles += ser;
  ++l.stats.packets;
  l.stats.flits += p.flits;
  flit_hops_ += p.flits;

  // The packet departs this router: its previous input buffer frees now.
  const std::int32_t prev = p.in_link;
  p.in_link = static_cast<std::int32_t>(link);
  if (prev != kNoLink) release_credit(static_cast<std::uint32_t>(prev));

  const std::uint32_t to = l.to;
  const Cycle arrival = start + ser + cfg_.link_latency + cfg_.router_latency;
  eq_.schedule_at(arrival, [this, slot, to] { advance(slot, to); });
}

void MeshNoc::release_credit(std::uint32_t link) {
  Link& l = links_[link];
  ++l.credits;
  if (!l.waitq.empty()) {
    const std::uint32_t waiter = l.waitq.front();
    l.waitq.pop_front();
    traverse(waiter, link);
  }
}

double MeshNoc::max_link_utilization(Cycle now) const noexcept {
  double best = 0.0;
  for (const Link& l : links_) {
    const double u = safe_div(static_cast<double>(l.stats.busy_cycles),
                              static_cast<double>(now));
    if (u > best) best = u;
  }
  return best > 1.0 ? 1.0 : best;
}

std::uint64_t MeshNoc::total_stalls() const noexcept {
  std::uint64_t n = 0;
  for (const Link& l : links_) n += l.stats.stalls;
  return n;
}

}  // namespace cdsim::noc
