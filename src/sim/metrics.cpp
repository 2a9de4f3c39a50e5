#include "cdsim/sim/metrics.hpp"

#include <bit>
#include <sstream>

namespace cdsim::sim {

// As many distinct entries as members: every member is listed exactly once.
static_assert(detail::lists_every_member<RunMetrics>(kRunMetricsFields),
              "kRunMetricsFields must list each RunMetrics member once");
static_assert(detail::lists_every_member<LevelMetrics>(kLevelMetricsFields),
              "kLevelMetricsFields must list each LevelMetrics member once");

std::string first_difference(const RunMetrics& a, const RunMetrics& b) {
  std::string first;
  for_each_metric(
      [&first](const std::string& name, const auto& x, const auto& y) {
        bool same = false;
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(x)>,
                                     double>) {
          same = std::bit_cast<std::uint64_t>(x) ==
                 std::bit_cast<std::uint64_t>(y);
        } else {
          same = x == y;
        }
        if (!same && first.empty()) first = name;
      },
      a, b);
  return first;
}

std::string format_metrics(const RunMetrics& m) {
  std::ostringstream os;
  os << std::hexfloat;
  for_each_metric(
      [&os](const std::string& name, const auto& v) {
        os << name << ' ' << v << '\n';
      },
      m);
  return os.str();
}

}  // namespace cdsim::sim
