// experiment_spec.h — declarative experiment matrices over the simulator.
//
// The scenario space (metro × intensity × adoption × edge-cache ×
// preload × schedule × overload × trace scale/days/seed) used to need a
// bespoke bench binary per combination. An ExperimentSpec expresses one
// experiment as data instead: a JSON file naming *axes* (parameters with
// a list of values) over a *base* configuration (parameters fixed for
// every cell). The matrix expander crosses the axes into one
// ExperimentCell per point, applies axis-subset pinning and explicit
// cell exclusions, and the runner (experiment_runner.h) executes the
// cells in parallel — per-cell results bit-identical to a standalone
// `cl simulate` with the same flags.
//
// Spec schema (DESIGN.md §13, docs/CLI.md "cl experiment"):
//
//   {
//     "name":        "ablation_adoption",      // [a-z0-9_-]+, optional
//                                              // (defaults to file stem)
//     "description": "free text",              // optional
//     "base":  { "days": 10, "seed": 7 },      // fixed parameters
//     "axes":  { "adoption": [50, 5, 0.5],     // declaration order =
//                "metro": ["london_top5"] },   // matrix nesting order
//     "pin":     { "adoption": [50, 5] },      // optional: restrict an
//                                              // axis to a declared subset
//     "exclude": [ { "adoption": 5,            // optional: drop cells
//                    "metro": "london_top5" } ]// matching ALL pairs
//   }
//
// Parameter vocabulary (each key is valid in base, axes, pin, exclude):
//
//   metro            topology preset (MetroRegistry)         london_top5
//   intensity        "none" | "metro" | preset | CSV path    none
//   adoption         "off" | swarm-capacity tier > 0         off
//   edge_cache       "off" | items per ExP cache >= 1        off
//   edge_cache_p2p   on/off — cache misses use P2P           on
//   preload          "off" | "START-END" hour window         off
//   preload_adoption fraction of sessions preloaded, [0,1]   0.5
//   schedule         off|preload|route|all (needs intensity) off
//   overload         on/off — warm-upload cap + CDN spill    off
//   simulate         on/off — run the hybrid simulator       on
//   days             trace span in days > 0                  10
//   scale            population multiplier > 0               1
//   seed             master seed, non-negative integer       20130901
//   qb               upload ratio q/beta > 0                 1
//
// A cell with simulate off must set adoption or edge_cache and leave
// schedule, overload and intensity (simulated-run settings) at default.
// A cell that generates a trace (simulate on, or an edge cache) needs
// days >= 1 and a scale that leaves at least one user.
//
// Every malformed input — unknown axis, empty value list, duplicate
// axis, out-of-range value, missing intensity CSV — is a cl::ParseError
// with a distinct, actionable message (tests/test_experiment.cpp pins
// the reject matrix).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cl {

class JsonValue;

/// One fully-resolved parameter assignment — everything a cell run needs
/// (defaults chosen to match a bare `cl simulate` invocation).
struct CellConfig {
  std::string metro = "london_top5";
  std::string intensity = "none";  ///< "none" | "metro" | preset | CSV path
  double adoption = 0;             ///< 0 = off; else swarm-capacity tier
  std::size_t edge_cache = 0;      ///< 0 = off; else items per ExP cache
  bool edge_cache_p2p = true;
  bool preload = false;
  double preload_start_hour = 7;
  double preload_end_hour = 9;
  double preload_adoption = 0.5;
  std::string schedule = "off";  ///< off | preload | route | all
  bool overload = false;
  bool simulate = true;
  double days = 10;
  double scale = 1;
  std::uint64_t seed = 20130901;  ///< TraceConfig's master-seed default
  double qb = 1;

  /// Whether the cell reads a generated trace: it simulates or runs edge
  /// caches.
  [[nodiscard]] bool generates_trace() const {
    return simulate || edge_cache > 0;
  }
};

/// One axis of the matrix: a parameter name plus its (post-pinning)
/// canonical value list, in declaration order.
struct ExperimentAxis {
  std::string name;
  std::vector<std::string> values;
};

/// One cross-product point of the matrix.
struct ExperimentCell {
  std::size_t index = 0;  ///< position in the expanded (post-exclusion) list
  /// Canonical value per axis, aligned with ExperimentSpec::axes().
  std::vector<std::string> values;
  /// Filesystem-safe label: "<axis>-<value>" pairs joined by "_"
  /// ("base" when the spec has no axes) — the <cell> part of the
  /// BENCH_<spec>_<cell>.json file name.
  std::string slug;
  CellConfig config;  ///< base config with the axis values applied
};

/// A parsed, validated experiment specification.
class ExperimentSpec {
 public:
  /// Parses `path` (the file stem is the default experiment name).
  [[nodiscard]] static ExperimentSpec parse_file(const std::string& path);

  /// Parses an in-memory spec document. `default_name` substitutes for a
  /// missing "name" member.
  [[nodiscard]] static ExperimentSpec parse(const std::string& text,
                                            const std::string& default_name);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& description() const {
    return description_;
  }
  [[nodiscard]] const CellConfig& base() const { return base_; }
  [[nodiscard]] const std::vector<ExperimentAxis>& axes() const {
    return axes_;
  }

  /// Expands the matrix: the cross product of the axes' value lists (in
  /// declaration order, last axis fastest) over the base config, minus
  /// excluded cells. Guaranteed non-empty and cross-validated (e.g. a
  /// schedule needs an intensity) — violations throw cl::ParseError.
  [[nodiscard]] std::vector<ExperimentCell> cells() const;

  /// The number of cells expand() would return (dry-run sizing).
  [[nodiscard]] std::size_t cell_count() const { return cells().size(); }

  /// The parameter vocabulary, sorted — error messages list it, docs
  /// tables are generated from it.
  [[nodiscard]] static const std::vector<std::string>& known_keys();

 private:
  [[nodiscard]] static ExperimentSpec from_json(const JsonValue& root,
                                                const std::string& fallback);

  std::string name_;
  std::string description_;
  CellConfig base_;
  std::vector<ExperimentAxis> axes_;
  /// Each exclusion: (axis index, canonical value) pairs that must ALL
  /// match for a cell to be dropped.
  std::vector<std::vector<std::pair<std::size_t, std::string>>> exclusions_;
};

}  // namespace cl
