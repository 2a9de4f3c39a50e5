#pragma once
// Shared scaffolding for the bench binaries.
//
// bench_figures, bench_ablations and bench_datapoints each fill all their
// machines in one call to an ExperimentRunner, which persists results to
// cdsim_results.cache, and report the fill with report_sweep: bench_figures
// prints Figs. 3-6 from the paper's grid, bench_ablations the A1 and A3
// tables. bench_datapoints (one file per sweep) and bench_kernel write
// their results as JSON through write_datapoints, and bench_kernel's gate
// reads its baseline back through read_datapoints.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "cdsim/common/version.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/sim/metrics.hpp"

namespace cdsim::bench {

/// Reports on stderr what a fill had to simulate: the results, and the
/// timing runs they came from (baseline and protocol share one). Silent
/// when everything was cached. Progress goes to stderr: stdout carries only
/// data, so cached and uncached runs of a bench print the same.
inline void report_sweep(const sim::SweepStats& sweep) {
  if (sweep.simulated > 0) {
    std::cerr << "[simulated " << sweep.simulated << " configurations in "
              << sweep.timing_runs << " timing runs on " << sweep.workers
              << " workers; " << sweep.reused << " already cached]\n";
  }
}

/// A value of a datapoint file: a header field or a row label.
using JsonValue = std::variant<std::uint64_t, double, bool, std::string,
                               std::vector<double>>;
/// A named value of a datapoint file.
using JsonField = std::pair<const char*, JsonValue>;
/// Fields as printed: each name with the JSON text of its value, in order.
using JsonText = std::vector<std::pair<std::string, std::string>>;

/// The JSON text of a datapoint value, doubles at max_digits10 so the text
/// round-trips: write_datapoints prints it, and a gate that formats its own
/// run the same way compares values as text, exactly.
template <class T>
std::string json_text(const T& v) {
  std::ostringstream out;
  out.precision(17);
  if constexpr (std::is_same_v<T, std::string>) {
    out << '"' << v << '"';
  } else if constexpr (std::is_same_v<T, std::vector<double>>) {
    out << '[';
    for (std::size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << v[i];
    out << ']';
  } else {
    out << std::boolalpha << v;
  }
  return out.str();
}

/// The JSON text of whichever value `v` holds.
inline std::string json_text(const JsonValue& v) {
  return std::visit([](const auto& x) { return json_text(x); }, v);
}

/// A row of a datapoint file: its labels, then every RunMetrics leaf under
/// its for_each_metric name ("l1.accesses", "ledger.core_dyn").
inline JsonText datapoint_row(const std::vector<JsonField>& labels,
                              const sim::RunMetrics& m) {
  JsonText row;
  for (const auto& [name, v] : labels) row.emplace_back(name, json_text(v));
  sim::for_each_metric(
      [&row](const std::string& name, const auto& leaf) {
        row.emplace_back(name, json_text(leaf));
      },
      m);
  return row;
}

/// The text of field `name`, or "" when `fields` has none (a value's text
/// is never empty).
inline std::string field_text(const JsonText& fields, std::string_view name) {
  for (const auto& [n, text] : fields) {
    if (n == name) return text;
  }
  return "";
}

/// Writes a datapoint file: "bench" and "version", the `header` fields one
/// per line, then "configs", one datapoint_row per result on a line of its
/// own. On failure prints a message naming `path` and returns false, so the
/// caller can exit 1 instead of leaving a truncated datapoint behind a
/// success status (a full disk fails only at close).
inline bool write_datapoints(const char* tool, const char* path,
                             const std::vector<JsonField>& header,
                             const std::vector<std::vector<JsonField>>& labels,
                             const std::vector<sim::RunMetrics>& results) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"" << tool << "\",\n  \"version\": \"" << version()
      << "\",\n";
  for (const auto& [name, v] : header) {
    out << "  \"" << name << "\": " << json_text(v) << ",\n";
  }
  out << "  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const char* sep = "    {";
    for (const auto& [name, text] : datapoint_row(labels[i], results[i])) {
      out << sep << '"' << name << "\": " << text;
      sep = ", ";
    }
    out << (i + 1 < results.size() ? "},\n" : "}\n");
  }
  out << "  ]\n}\n";
  out.close();
  if (!out) std::fprintf(stderr, "%s: failed writing %s\n", tool, path);
  return static_cast<bool>(out);
}

/// A datapoint file read back: "bench", "version" and the header fields,
/// and one JsonText per row of "configs", in file order.
struct Datapoints {
  JsonText header;
  std::vector<JsonText> configs;
};

/// Reads back a file write_datapoints wrote, each value as the text it
/// printed; empty when the file cannot be read. A header field has a line
/// of its own and a row is one line, whose fields split at `, "`: no value
/// the writer prints holds a quote inside it, so that only ever starts the
/// next field.
inline Datapoints read_datapoints(const std::string& path) {
  std::ifstream in(path);
  Datapoints d;
  for (std::string line; std::getline(in, line);) {
    std::string_view t = line;
    if (t.ends_with(',')) t.remove_suffix(1);
    const bool row = t.starts_with("    {") && t.ends_with('}');
    if (!row && (!t.starts_with("  \"") || t.ends_with('['))) continue;
    t = row ? t.substr(5, t.size() - 6) : t.substr(2);
    JsonText& fields = row ? d.configs.emplace_back() : d.header;
    for (std::size_t colon = t.find("\": "); colon != t.npos;
         colon = t.find("\": ")) {
      const std::size_t next = t.find(", \"", colon);
      fields.emplace_back(t.substr(1, colon - 1),
                          t.substr(colon + 3, next - colon - 3));
      t.remove_prefix(next == t.npos ? t.size() : next + 2);
    }
  }
  return d;
}

}  // namespace cdsim::bench
