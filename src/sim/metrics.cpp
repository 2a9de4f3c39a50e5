#include "cdsim/sim/metrics.hpp"

#include <bit>
#include <sstream>

namespace cdsim::sim {

namespace {

// Counts the direct members of an aggregate by brace-initializing it from
// ever more "convert to anything" placeholders. Used only in unevaluated
// context, so the conversion operator needs no definition.
struct AnyField {
  template <class T>
  operator T() const;  // NOLINT(google-explicit-constructor)
};

template <class T, class... Fields>
consteval std::size_t member_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return member_count<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

/// No member and no name appears twice.
template <class Table>
consteval bool all_distinct(const Table& t) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (t[i].member == t[j].member || t[i].name == t[j].name) return false;
    }
  }
  return true;
}

// As many distinct entries as members: every member is listed exactly once.
static_assert(kRunMetricsFields.size() == member_count<RunMetrics>() &&
                  all_distinct(kRunMetricsFields),
              "kRunMetricsFields must list each RunMetrics member once");
static_assert(kLevelMetricsFields.size() == member_count<LevelMetrics>() &&
                  all_distinct(kLevelMetricsFields),
              "kLevelMetricsFields must list each LevelMetrics member once");

}  // namespace

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
