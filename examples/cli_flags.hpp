#pragma once
// Shared CLI parsing for the example binaries (trace_replay, diagnose,
// fuzz_verify, leakage_explorer), so the flag vocabulary cannot drift
// between them. One FlagParser instance declares the options a binary
// accepts — the machine-family trio (--topology=/--hierarchy=/--cores=),
// boolean toggles, and --name=value flags — and routes every non-flag
// argument (in order) to the positional handler. Strict: an unknown or
// malformed flag prints an error and parse() returns false. MachineFlags
// turns the trio into a machine and parse_technique_flag a technique name
// and decay time into a technique, the same way in every binary.

#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cdsim/decay/technique.hpp"
#include "cdsim/noc/interconnect.hpp"
#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"

namespace cdsim::examples {

struct MachineFlags {
  noc::Topology topology = noc::Topology::kSnoopBus;
  sim::Hierarchy hierarchy = sim::Hierarchy::kTwoLevel;
  std::uint32_t cores = 0;  ///< 0 = default for the topology.

  /// Cores after defaulting: 4 on the bus, 16 on the mesh.
  [[nodiscard]] std::uint32_t effective_cores() const {
    if (cores != 0) return cores;
    return topology == noc::Topology::kDirectoryMesh ? 16 : 4;
  }

  /// The machine of this family with `total_l2_bytes` of L2 running
  /// `technique` (make_system_config on the chosen topology, hierarchy and
  /// cores). The three-level machine has four times the L2 in L3, and the
  /// technique runs in the L1 front ends and the L3 banks too.
  [[nodiscard]] sim::SystemConfig machine(
      std::uint64_t total_l2_bytes,
      const decay::DecayConfig& technique) const {
    sim::SystemConfig cfg = sim::make_system_config(total_l2_bytes, technique);
    cfg.topology = topology;
    cfg.hierarchy = hierarchy;
    cfg.num_cores = effective_cores();
    if (hierarchy == sim::Hierarchy::kThreeLevel) {
      cfg.total_l3_bytes = 4 * total_l2_bytes;
      cfg.l1_decay = cfg.decay;
      cfg.l3_decay = cfg.decay;
    }
    return cfg;
  }
};

/// The technique named `name` (baseline|protocol|decay|sel_decay) with a
/// decay time of `decay_k` Kcycles; an unknown name is reported on stderr
/// and yields nullopt.
inline std::optional<decay::DecayConfig> parse_technique_flag(
    const std::string& name, std::uint64_t decay_k) {
  const std::optional<decay::Technique> technique =
      decay::parse_technique(name);
  if (!technique) {
    std::fprintf(stderr,
                 "unknown technique \"%s\" (baseline|protocol|decay|"
                 "sel_decay)\n",
                 name.c_str());
    return std::nullopt;
  }
  decay::DecayConfig d;
  d.technique = *technique;
  d.decay_time = decay_k * 1024;
  return d;
}

/// Declarative argv parser. Register options, then parse(); registration
/// order does not matter. Example:
///
///   MachineFlags mf;
///   bool verify = false;
///   examples::FlagParser p;
///   p.machine(&mf).toggle("verify", &verify).on_positional(...);
///   if (!p.parse(argc, argv)) return 2;
class FlagParser {
 public:
  /// The machine-family trio. The three-level machine is mesh-only;
  /// asking for --hierarchy=3 implies --topology=dmesh.
  FlagParser& machine(MachineFlags* out) {
    machine_ = out;
    value_option("topology", [out](const std::string& v) {
      if (v == "dmesh") {
        out->topology = noc::Topology::kDirectoryMesh;
      } else if (v != "bus") {
        std::fprintf(stderr, "unknown topology \"%s\" (bus|dmesh)\n",
                     v.c_str());
        return false;
      }
      return true;
    });
    value_option("hierarchy", [out](const std::string& v) {
      if (v == "3") {
        out->hierarchy = sim::Hierarchy::kThreeLevel;
      } else if (v != "2") {
        std::fprintf(stderr, "unknown hierarchy \"%s\" (2|3)\n", v.c_str());
        return false;
      }
      return true;
    });
    value_option("cores", [out](const std::string& v) {
      const auto n = sim::detail::parse_positive_u64(v.c_str());
      if (!n || *n > 0xffffffffu) {
        std::fprintf(stderr, "invalid --cores value \"%s\"\n", v.c_str());
        return false;
      }
      out->cores = static_cast<std::uint32_t>(*n);
      return true;
    });
    return *this;
  }

  /// Bare boolean switch: --name sets *out (and *seen, when given).
  FlagParser& toggle(const std::string& name, bool* out,
                     bool* seen = nullptr) {
    options_.push_back({name, /*takes_value=*/false,
                        [out, seen](const std::string&) {
                          *out = true;
                          if (seen != nullptr) *seen = true;
                          return true;
                        }});
    return *this;
  }

  /// --name=N with N a positive 64-bit decimal.
  FlagParser& u64(const std::string& name, std::uint64_t* out,
                  bool* seen = nullptr) {
    value_option(name, [name, out, seen](const std::string& v) {
      const auto n = sim::detail::parse_positive_u64(v.c_str());
      if (!n) {
        std::fprintf(stderr,
                     "invalid --%s value \"%s\" (want a positive integer)\n",
                     name.c_str(), v.c_str());
        return false;
      }
      *out = *n;
      if (seen != nullptr) *seen = true;
      return true;
    });
    return *this;
  }

  /// --name=value, any non-empty string.
  FlagParser& str(const std::string& name, std::string* out,
                  bool* seen = nullptr) {
    value_option(name, [name, out, seen](const std::string& v) {
      if (v.empty()) {
        std::fprintf(stderr, "--%s needs a value\n", name.c_str());
        return false;
      }
      *out = v;
      if (seen != nullptr) *seen = true;
      return true;
    });
    return *this;
  }

  /// Handler for non-flag arguments, called with (index, arg) in order.
  FlagParser& on_positional(
      std::function<void(int pos, const std::string&)> fn) {
    on_pos_ = std::move(fn);
    return *this;
  }

  /// Returns false (after printing to stderr) on any unknown flag or
  /// invalid value.
  bool parse(int argc, char** argv) {
    int pos = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        // A single-dash argument is a mistyped flag, not a positional —
        // silently routing "-cores=8" to the positional handler used to
        // make typos vanish. A bare "-" stays positional (stdin idiom).
        if (arg.size() >= 2 && arg[0] == '-') {
          std::fprintf(stderr, "unknown flag \"%s\" (flags use --name[=value])\n",
                       arg.c_str());
          return false;
        }
        if (on_pos_) on_pos_(pos, arg);
        ++pos;
        continue;
      }
      const std::size_t eq = arg.find('=');
      const std::string name =
          arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
      const Option* opt = nullptr;
      for (const Option& o : options_) {
        if (o.name == name) {
          opt = &o;
          break;
        }
      }
      if (opt == nullptr) {
        std::fprintf(stderr, "unknown flag \"%s\"\n", arg.c_str());
        return false;
      }
      if (opt->takes_value != (eq != std::string::npos)) {
        std::fprintf(stderr, "flag --%s %s a =value\n", name.c_str(),
                     opt->takes_value ? "needs" : "does not take");
        return false;
      }
      const std::string value =
          eq == std::string::npos ? std::string() : arg.substr(eq + 1);
      if (!opt->apply(value)) return false;
    }
    if (machine_ != nullptr &&
        machine_->hierarchy == sim::Hierarchy::kThreeLevel) {
      machine_->topology = noc::Topology::kDirectoryMesh;
    }
    return true;
  }

 private:
  struct Option {
    std::string name;
    bool takes_value = false;
    std::function<bool(const std::string&)> apply;
  };

  void value_option(const std::string& name,
                    std::function<bool(const std::string&)> apply) {
    options_.push_back({name, /*takes_value=*/true, std::move(apply)});
  }

  MachineFlags* machine_ = nullptr;
  std::vector<Option> options_;
  std::function<void(int, const std::string&)> on_pos_;
};

}  // namespace cdsim::examples
