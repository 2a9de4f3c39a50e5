// LineMap (common/line_map.hpp) against std::unordered_map.
//
// A randomized differential test: every operation is applied to both maps
// and, after each one, the sizes and the full contents must agree. LineMap
// has no iteration, so "full contents" is checked as: equal size, every
// reference entry found with its value, and a fixed set of never-inserted
// keys absent. The key pool mixes random line addresses with keys whose
// hash puts them in the table's last slot at every size up to 1,024 slots:
// they collide with each other and their probe runs wrap past the end of
// the table, which is where backward-shift erase is easiest to get wrong.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cdsim/common/line_map.hpp"
#include "cdsim/common/rng.hpp"

namespace cdsim {
namespace {

/// Line-aligned keys whose multiplicative hash has its top ten bits set:
/// the last slot of every table of 16 to 1,024 slots. Mirrors the map's
/// hash; if that changes the test stays valid but loses this targeting.
std::vector<Addr> keys_homed_at_table_end(std::size_t n) {
  std::vector<Addr> keys;
  for (Addr line = 1; keys.size() < n; ++line) {
    const Addr key = line * 64;
    if (((key * 0x9E3779B97F4A7C15ull) >> 54) == 0x3ff) keys.push_back(key);
  }
  return keys;
}

class Differential {
 public:
  explicit Differential(std::vector<Addr> absent) : absent_(std::move(absent)) {}

  void set(Addr k, std::uint64_t v) {
    map_[k] = v;
    ref_[k] = v;
  }
  void erase(Addr k) { EXPECT_EQ(map_.erase(k), ref_.erase(k) == 1); }
  void erase_if(std::uint64_t mod, std::uint64_t rem) {
    const auto pred = [mod, rem](Addr k, std::uint64_t v) {
      return (k ^ v) % mod == rem;
    };
    std::size_t want = 0;
    for (auto it = ref_.begin(); it != ref_.end();) {
      if (pred(it->first, it->second)) {
        it = ref_.erase(it);
        ++want;
      } else {
        ++it;
      }
    }
    EXPECT_EQ(map_.erase_if(pred), want);
  }

  /// Size and every entry agree; never-inserted keys are absent.
  void check() const {
    ASSERT_EQ(map_.size(), ref_.size());
    for (const auto& [k, v] : ref_) {
      const std::uint64_t* got = map_.find(k);
      ASSERT_NE(got, nullptr) << "missing key " << k;
      ASSERT_EQ(*got, v) << "key " << k;
    }
    for (const Addr k : absent_) ASSERT_EQ(map_.find(k), nullptr) << k;
  }

  [[nodiscard]] std::size_t size() const { return ref_.size(); }

 private:
  LineMap<std::uint64_t> map_;
  std::unordered_map<Addr, std::uint64_t> ref_;
  std::vector<Addr> absent_;
};

TEST(LineMap, MatchesUnorderedMapThroughGrowthCollisionsAndWrap) {
  Xoshiro256 rng(0x11e);
  std::vector<Addr> pool = keys_homed_at_table_end(24);
  for (int i = 0; i < 900; ++i) pool.push_back(rng.below(Addr{1} << 24) * 64);
  // Odd addresses are never line-aligned, so never in the pool.
  const std::vector<Addr> absent = {1, 65, 0x12345, LineMap<int>::kEmptyKey};
  Differential d(absent);
  d.check();

  // Grow to ~600 entries (16 -> 1,024 slots), drain to ~120, then churn
  // around a steady size, with an occasional erase_if; every op checked.
  const struct Phase {
    int ops;
    double p_set;
    double p_erase;
  } phases[] = {{2500, 0.75, 0.15}, {2500, 0.15, 0.75}, {3000, 0.45, 0.45}};
  for (const Phase& ph : phases) {
    for (int op = 0; op < ph.ops; ++op) {
      const Addr key = pool[rng.below(pool.size())];
      const double r = rng.uniform();
      if (r < ph.p_set) {
        d.set(key, rng.next());  // insert or overwrite
      } else if (r < ph.p_set + ph.p_erase) {
        d.erase(key);  // present or absent
      } else if (r < ph.p_set + ph.p_erase + 0.003) {
        d.erase_if(2 + rng.below(6), 0);
      }
      d.check();
      if (HasFatalFailure()) return;
    }
  }
}

TEST(LineMap, CollidingRunAtTableEndSurvivesEveryEraseOrder) {
  // Eight keys homed at the last slot fill it and wrap into slots 0..6.
  // Erasing them in any rotation must keep the rest reachable.
  const std::vector<Addr> keys = keys_homed_at_table_end(8);
  for (std::size_t first = 0; first < keys.size(); ++first) {
    Differential d({});
    for (std::size_t i = 0; i < keys.size(); ++i) d.set(keys[i], i);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      d.erase(keys[(first + i) % keys.size()]);
      d.check();
    }
    EXPECT_EQ(d.size(), 0u);
  }
}

TEST(LineMap, EraseIfSeesEachEntryOnce) {
  LineMap<std::uint64_t> m;
  for (Addr k = 1; k <= 300; ++k) m[k * 64] = k;
  std::size_t calls = 0;
  EXPECT_EQ(m.erase_if([&calls](Addr, std::uint64_t v) {
              ++calls;
              return v % 3 == 0;
            }),
            100u);
  EXPECT_EQ(calls, 300u);
  EXPECT_EQ(m.size(), 200u);
  EXPECT_EQ(m.find(3 * 64), nullptr);
  ASSERT_NE(m.find(4 * 64), nullptr);
  EXPECT_EQ(*m.find(4 * 64), 4u);
}

TEST(LineMap, OperatorBracketValueInitializes) {
  struct Entry {
    std::uint64_t sharers = 0;
    std::uint32_t owner = 7;
  };
  LineMap<Entry> m;
  EXPECT_EQ(m.find(0x40), nullptr);
  Entry& e = m[0x40];
  EXPECT_EQ(e.sharers, 0u);
  EXPECT_EQ(e.owner, 7u);
  e.owner = 1;
  EXPECT_EQ(m[0x40].owner, 1u);  // existing entry, not re-initialized
  EXPECT_TRUE(m.erase(0x40));
  EXPECT_EQ(m[0x40].owner, 7u);  // a fresh entry after erase
}

}  // namespace
}  // namespace cdsim
