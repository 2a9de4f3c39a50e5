#pragma once
// Open-addressing hash map keyed by line address.
//
// Per-line bookkeeping — the decay-attribution map of every CacheLevel, the
// directory's sharer entries and the mesh's deferred-request chains — used
// std::unordered_map, which pays a malloc per insert, a free per erase and a
// division by a prime plus a node-chain walk per lookup. LineMap stores
// entries inline in one power-of-two slot array:
//
//   * linear probing from a multiplicative (Fibonacci) hash of the key;
//   * the empty key is ~Addr{0}, never a line-aligned address, so a slot is
//     just {key, value} (16 bytes for a Cycle value) with no occupancy flag;
//   * erase shifts the following run back over the hole (no tombstones),
//     so a map that erases as often as it inserts never degrades;
//   * the table starts at kMinSlots on first insert and doubles when an
//     insert would pass 3/4 load; it never shrinks, so steady state
//     allocates nothing.
//
// Reference rule: any insert or erase may move entries. A pointer or
// reference returned by find()/operator[] is valid only until the next
// insert or erase on the same map.
//
// Iteration order is a function of the table layout, which depends on
// insertion history. The map therefore offers no iteration, only
// erase_if(pred): its result — the set of surviving entries — is
// independent of visit order as long as pred looks at one entry at a time.
//
// V must be trivially copyable: entries move by assignment during erase and
// growth.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/types.hpp"

namespace cdsim {

template <typename V>
class LineMap {
  static_assert(std::is_trivially_copyable_v<V>,
                "LineMap values move by assignment on erase and growth");

 public:
  /// Reserved key marking an empty slot (never line-aligned).
  static constexpr Addr kEmptyKey = ~Addr{0};

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The value stored under `key`, or nullptr.
  [[nodiscard]] V* find(Addr key) noexcept {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == kEmptyKey) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  [[nodiscard]] const V* find(Addr key) const noexcept {
    return const_cast<LineMap*>(this)->find(key);
  }

  /// The value under `key`, value-initialized on first use.
  V& operator[](Addr key) {
    CDSIM_ASSERT_MSG(key != kEmptyKey, "LineMap key ~0 is reserved");
    if (!slots_.empty()) {
      for (std::size_t i = home(key);; i = (i + 1) & mask_) {
        Slot& s = slots_[i];
        if (s.key == key) return s.value;
        if (s.key == kEmptyKey) {
          if ((size_ + 1) * 4 <= slots_.size() * 3) return claim(s, key);
          break;
        }
      }
    }
    grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == kEmptyKey) return claim(slots_[i], key);
    }
  }

  /// Removes `key`; returns whether it was present.
  bool erase(Addr key) noexcept {
    if (size_ == 0) return false;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Addr k = slots_[i].key;
      if (k == kEmptyKey) return false;
      if (k == key) {
        erase_slot(i);
        return true;
      }
    }
  }

  /// Removes every entry for which `pred(key, value)` holds; returns how
  /// many were removed. Each entry is tested exactly once.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    if (size_ == 0) return 0;
    // Start just past an empty slot: no probe run crosses it, so an erase
    // only shifts not-yet-visited entries back into the position being
    // visited, which is then tested again.
    std::size_t start = 0;
    while (slots_[start].key != kEmptyKey) ++start;
    const std::size_t before = size_;
    for (std::size_t n = 1; n < slots_.size();) {
      const std::size_t i = (start + n) & mask_;
      Slot& s = slots_[i];
      if (s.key != kEmptyKey && pred(s.key, s.value)) {
        erase_slot(i);
      } else {
        ++n;
      }
    }
    return before - size_;
  }

 private:
  struct Slot {
    Addr key = kEmptyKey;
    V value{};
  };

  static constexpr std::size_t kMinSlots = 16;

  [[nodiscard]] std::size_t home(Addr key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  V& claim(Slot& s, Addr key) {
    s.key = key;
    s.value = V{};
    ++size_;
    return s.value;
  }

  /// Backward-shift deletion: walks the run after the hole and moves back
  /// every entry whose home does not lie cyclically in (hole, its slot].
  void erase_slot(std::size_t hole) noexcept {
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmptyKey;
         j = (j + 1) & mask_) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    --size_;
  }

  void grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    const std::size_t n = old.empty() ? kMinSlots : old.size() * 2;
    slots_.resize(n);
    mask_ = n - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
    for (const Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  /// 64 - log2(slot count): home() keeps the hash's top bits.
  unsigned shift_ = 64;
};

}  // namespace cdsim
