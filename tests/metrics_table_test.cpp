// The RunMetrics field table: for_each_metric visits every leaf once under
// its published name, first_difference names exactly the leaf that
// changed, and format_metrics prints one exact "name value" line per leaf.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cdsim/sim/metrics.hpp"

namespace {

using namespace cdsim;

/// Moves a leaf by the smallest step that changes it: one ULP for a
/// double, +1 for an integer, one appended character for a string.
struct Bump {
  void operator()(std::string& s) const { s += '~'; }
  void operator()(std::uint64_t& v) const { ++v; }
  void operator()(double& v) const { v = std::nextafter(v, 1e300); }
  void operator()(sim::LedgerLeaf l) const {
    const double v = l.ledger->get(l.component);
    l.ledger->add(l.component, std::nextafter(v, 1e300) - v);
  }
};

// Modeled on perfbench's fingerprint self-test: every leaf gets a distinct
// value, then each in turn is bumped, and first_difference must name
// exactly that leaf, from either side.
TEST(MetricsTable, FirstDifferenceNamesEachChangedLeaf) {
  std::vector<std::string> names;  // the printer's first column
  std::istringstream text(sim::format_metrics(sim::RunMetrics{}));
  for (std::string line; std::getline(text, line);) {
    names.push_back(line.substr(0, line.find(' ')));
  }
  ASSERT_EQ(names.size(), 75u);  // 38 fields + 3 x 7 level + 16 ledger
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(), 75u);
  EXPECT_EQ(names[6], "l2_occupation");
  EXPECT_EQ(names[20], "ledger.core_dyn");
  EXPECT_EQ(names[44], "l1.accesses");

  sim::RunMetrics base;  // leaf i bumped i + 1 times
  std::size_t leaf = 0;
  sim::for_each_metric(
      [&leaf](const std::string&, auto&& v) {
        for (std::size_t k = 0; k <= leaf; ++k) Bump{}(v);
        ++leaf;
      },
      base);
  EXPECT_EQ(sim::first_difference(base, base), "");

  for (std::size_t target = 0; target < names.size(); ++target) {
    sim::RunMetrics m = base;
    leaf = 0;
    sim::for_each_metric(
        [&](const std::string&, auto&& v) {
          if (leaf++ == target) Bump{}(v);
        },
        m);
    EXPECT_EQ(sim::first_difference(base, m), names[target]);
    EXPECT_EQ(sim::first_difference(m, base), names[target]);
  }

  sim::RunMetrics zero = base;
  zero.amat = -0.0;
  base.amat = 0.0;  // == says equal; the bits do not
  EXPECT_EQ(sim::first_difference(base, zero), "amat");
}

TEST(MetricsTable, FormatWritesOneExactLinePerLeaf) {
  sim::RunMetrics m;
  m.benchmark = "FMM";
  m.cycles = 12345;
  m.ipc = 1.5;
  m.ledger.add(power::Component::kL2Leakage, 0.1);
  const std::string text = sim::format_metrics(m);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 75);
  EXPECT_TRUE(text.starts_with("benchmark FMM\ntechnique \n"));
  EXPECT_TRUE(text.ends_with("\ntlb_misses 0\n"));
  for (const char* line : {"\ncycles 12345\n", "\nipc 0x1.8p+0\n",
                           "\nledger.l2_leak 0x1.999999999999ap-4\n",
                           "\nl3.occupation 0x1p+0\n", "\ntopology bus\n"}) {
    EXPECT_NE(text.find(line), std::string::npos) << line;
  }
}

}  // namespace
