#include "experiment/experiment_spec.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <set>

#include "carbon/intensity_curve.h"
#include "carbon/schedule.h"
#include "topology/metro_registry.h"
#include "trace/synthetic.h"
#include "util/error.h"
#include "util/json.h"
#include "util/table.h"

namespace cl {

namespace {

constexpr std::size_t kMaxCells = 4096;

[[nodiscard]] std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

[[nodiscard]] std::string known_keys_joined() {
  return joined(ExperimentSpec::known_keys());
}

/// "on"/"off" from a JSON bool or an on/off/yes/no/true/false string.
[[nodiscard]] std::string canonical_switch(const std::string& key,
                                           const JsonValue& value) {
  if (value.is_bool()) return value.as_bool() ? "on" : "off";
  if (value.is_string()) {
    const std::string& s = value.as_string();
    if (s == "on" || s == "yes" || s == "true") return "on";
    if (s == "off" || s == "no" || s == "false") return "off";
  }
  throw ParseError("parameter '" + key + "' must be a switch (true/false, "
                   "\"on\"/\"off\" or \"yes\"/\"no\"), got " +
                   (value.is_string() ? "'" + value.as_string() + "'"
                                      : value.kind_name()));
}

[[nodiscard]] double number_of(const std::string& key,
                               const JsonValue& value) {
  if (!value.is_number()) {
    throw ParseError("parameter '" + key + "' must be a number, got " +
                     std::string(value.kind_name()));
  }
  return value.as_number();
}

[[nodiscard]] std::string string_of(const std::string& key,
                                    const JsonValue& value) {
  if (!value.is_string()) {
    throw ParseError("parameter '" + key + "' must be a string, got " +
                     std::string(value.kind_name()));
  }
  return value.as_string();
}

/// The preload window "START-END" in hours, validated against
/// apply_preload's same-day contract.
void parse_preload_window(const std::string& text, double* start,
                          double* end) {
  const auto dash = text.find('-', 1);
  const char* first = text.data();
  const char* mid = text.data() + dash;
  const char* last = text.data() + text.size();
  double s = 0, e = 0;
  const auto res_s = std::from_chars(first, mid, s);
  const auto res_e =
      dash == std::string::npos
          ? std::from_chars(first, first, e)  // forced failure
          : std::from_chars(mid + 1, last, e);
  if (dash == std::string::npos || res_s.ec != std::errc() ||
      res_s.ptr != mid || res_e.ec != std::errc() || res_e.ptr != last) {
    throw ParseError("preload window '" + text +
                     "' must be \"START-END\" hours (e.g. \"7-9\") or "
                     "\"off\"");
  }
  if (!(s >= 0 && s < e && e <= 24)) {
    throw ParseError("preload window '" + text +
                     "' is out of range (need 0 <= START < END <= 24)");
  }
  *start = s;
  *end = e;
}

/// Validates one parameter value and returns its canonical string form
/// (what slugs, dry-run listings and exclusion matching use).
[[nodiscard]] std::string canonicalize(const std::string& key,
                                       const JsonValue& value) {
  if (key == "metro") {
    const std::string name = string_of(key, value);
    if (MetroRegistry::instance().find(name) == nullptr) {
      throw ParseError("unknown metro '" + name + "' (valid: " +
                       MetroRegistry::instance().names_joined() + ")");
    }
    return name;
  }
  if (key == "intensity") {
    const std::string name = string_of(key, value);
    if (name == "none" || name == "metro") return name;
    if (IntensityRegistry::instance().find(name) != nullptr) return name;
    if (!std::filesystem::exists(name)) {
      throw ParseError(
          "intensity '" + name + "' is not a preset (valid: none, metro, " +
          IntensityRegistry::instance().names_joined() +
          ") and no 24-hour intensity CSV exists at that path");
    }
    return name;
  }
  if (key == "adoption") {
    if (value.is_string() && value.as_string() == "off") return "off";
    const double tier = number_of(key, value);
    if (!(std::isfinite(tier) && tier > 0)) {
      throw ParseError("adoption value '" + value.text() +
                       "' is out of range (a swarm-capacity tier must be "
                       "> 0, or \"off\")");
    }
    return fmt_shortest(tier);
  }
  if (key == "edge_cache") {
    if (value.is_string() && value.as_string() == "off") return "off";
    const double items = number_of(key, value);
    if (!(std::isfinite(items) && items >= 1 &&
          items == std::floor(items) && items <= 1e9)) {
      throw ParseError("edge_cache value '" + value.text() +
                       "' must be a whole number of items per ExP cache "
                       ">= 1, or \"off\"");
    }
    return fmt_shortest(items);
  }
  if (key == "edge_cache_p2p" || key == "overload" || key == "simulate") {
    return canonical_switch(key, value);
  }
  if (key == "preload") {
    const std::string text = string_of(key, value);
    if (text == "off") return "off";
    double start = 0, end = 0;
    parse_preload_window(text, &start, &end);
    return fmt_shortest(start) + "-" + fmt_shortest(end);
  }
  if (key == "preload_adoption") {
    const double fraction = number_of(key, value);
    if (!(std::isfinite(fraction) && fraction >= 0 && fraction <= 1)) {
      throw ParseError("preload_adoption value '" + value.text() +
                       "' is out of range [0, 1]");
    }
    return fmt_shortest(fraction);
  }
  if (key == "schedule") {
    const std::string mode = string_of(key, value);
    (void)parse_schedule_mode(mode);
    return mode;
  }
  if (key == "days" || key == "scale" || key == "qb") {
    const double v = number_of(key, value);
    if (!(std::isfinite(v) && v > 0)) {
      throw ParseError("parameter '" + key + "' must be > 0, got '" +
                       value.text() + "'");
    }
    return fmt_shortest(v);
  }
  if (key == "seed") {
    const double v = number_of(key, value);
    if (!(std::isfinite(v) && v >= 0 && v == std::floor(v) && v <= 1e15)) {
      throw ParseError("seed '" + value.text() +
                       "' must be a non-negative integer");
    }
    return std::to_string(static_cast<std::uint64_t>(v));
  }
  throw ParseError("unknown parameter '" + key + "' (valid: " +
                   known_keys_joined() + ")");
}

/// Applies an already-canonical value to a config. Canonical strings come
/// from canonicalize(), so plain from_chars parsing cannot fail.
void apply_canonical(CellConfig& config, const std::string& key,
                     const std::string& value) {
  const auto as_double = [&] {
    double v = 0;
    std::from_chars(value.data(), value.data() + value.size(), v);
    return v;
  };
  if (key == "metro") {
    config.metro = value;
  } else if (key == "intensity") {
    config.intensity = value;
  } else if (key == "adoption") {
    config.adoption = value == "off" ? 0 : as_double();
  } else if (key == "edge_cache") {
    config.edge_cache =
        value == "off" ? 0 : static_cast<std::size_t>(as_double());
  } else if (key == "edge_cache_p2p") {
    config.edge_cache_p2p = value == "on";
  } else if (key == "preload") {
    if (value == "off") {
      config.preload = false;
    } else {
      config.preload = true;
      parse_preload_window(value, &config.preload_start_hour,
                           &config.preload_end_hour);
    }
  } else if (key == "preload_adoption") {
    config.preload_adoption = as_double();
  } else if (key == "schedule") {
    config.schedule = value;
  } else if (key == "overload") {
    config.overload = value == "on";
  } else if (key == "simulate") {
    config.simulate = value == "on";
  } else if (key == "days") {
    config.days = as_double();
  } else if (key == "scale") {
    config.scale = as_double();
  } else if (key == "seed") {
    std::uint64_t v = 0;
    std::from_chars(value.data(), value.data() + value.size(), v);
    config.seed = v;
  } else if (key == "qb") {
    config.qb = as_double();
  }
}

/// File-name-safe form of a canonical value (CSV paths and windows carry
/// '/' and other separators).
[[nodiscard]] std::string sanitize(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                      c == '_';
    out += safe ? c : '-';
  }
  return out;
}

}  // namespace

const std::vector<std::string>& ExperimentSpec::known_keys() {
  static const std::vector<std::string> keys{
      "adoption",       "days",     "edge_cache", "edge_cache_p2p",
      "intensity",      "metro",    "overload",   "preload",
      "preload_adoption", "qb",     "scale",      "schedule",
      "seed",           "simulate"};
  return keys;
}

ExperimentSpec ExperimentSpec::parse_file(const std::string& path) {
  const JsonValue root = JsonValue::parse_file(path);
  try {
    return from_json(root, std::filesystem::path(path).stem().string());
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what());
  }
}

ExperimentSpec ExperimentSpec::parse(const std::string& text,
                                     const std::string& default_name) {
  return from_json(JsonValue::parse(text), default_name);
}

ExperimentSpec ExperimentSpec::from_json(const JsonValue& root,
                                         const std::string& fallback) {
  if (!root.is_object()) {
    throw ParseError(std::string("spec root must be a JSON object, got ") +
                     root.kind_name());
  }
  ExperimentSpec spec;
  spec.name_ = fallback;

  static const std::set<std::string> top_keys{
      "name", "description", "base", "axes", "pin", "exclude"};
  std::set<std::string> seen_top;
  for (const auto& [key, value] : root.as_object()) {
    if (!top_keys.contains(key)) {
      throw ParseError("unknown spec key '" + key +
                       "' (valid: name, description, base, axes, pin, "
                       "exclude)");
    }
    if (!seen_top.insert(key).second) {
      throw ParseError("duplicate spec key '" + key + "'");
    }
    (void)value;
  }

  if (const JsonValue* name = root.find("name")) {
    spec.name_ = string_of("name", *name);
  }
  if (spec.name_.empty()) {
    throw ParseError("spec name is empty");
  }
  for (const char c : spec.name_) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) {
      throw ParseError("spec name '" + spec.name_ +
                       "' may use only [a-z0-9_-] (it names the "
                       "BENCH_*.json files)");
    }
  }
  if (const JsonValue* description = root.find("description")) {
    spec.description_ = string_of("description", *description);
  }

  // --- base: fixed parameters ------------------------------------------
  std::set<std::string> base_keys;
  if (const JsonValue* base = root.find("base")) {
    if (!base->is_object()) {
      throw ParseError(std::string("'base' must be an object of parameter "
                                   "values, got ") +
                       base->kind_name());
    }
    for (const auto& [key, value] : base->as_object()) {
      const auto& known = known_keys();
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        throw ParseError("unknown base parameter '" + key + "' (valid: " +
                         known_keys_joined() + ")");
      }
      if (!base_keys.insert(key).second) {
        throw ParseError("duplicate base parameter '" + key + "'");
      }
      apply_canonical(spec.base_, key, canonicalize(key, value));
    }
  }

  // --- axes: the matrix dimensions -------------------------------------
  std::set<std::string> axis_names;
  if (const JsonValue* axes = root.find("axes")) {
    if (!axes->is_object()) {
      throw ParseError(std::string("'axes' must be an object mapping axis "
                                   "names to value arrays, got ") +
                       axes->kind_name());
    }
    for (const auto& [key, value] : axes->as_object()) {
      const auto& known = known_keys();
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        throw ParseError("unknown axis '" + key + "' (valid: " +
                         known_keys_joined() + ")");
      }
      if (!axis_names.insert(key).second) {
        throw ParseError("duplicate axis '" + key +
                         "' (each axis may be declared once)");
      }
      if (base_keys.contains(key)) {
        throw ParseError("parameter '" + key +
                         "' is declared both in base and as an axis");
      }
      if (!value.is_array()) {
        throw ParseError("axis '" + key + "' must map to an array of "
                         "values, got " + value.kind_name());
      }
      ExperimentAxis axis;
      axis.name = key;
      for (const JsonValue& element : value.as_array()) {
        std::string canonical = canonicalize(key, element);
        if (std::find(axis.values.begin(), axis.values.end(), canonical) !=
            axis.values.end()) {
          throw ParseError("axis '" + key + "' repeats value '" +
                           canonical + "'");
        }
        axis.values.push_back(std::move(canonical));
      }
      if (axis.values.empty()) {
        throw ParseError("axis '" + key + "' has an empty value list "
                         "(declare at least one value or drop the axis)");
      }
      spec.axes_.push_back(std::move(axis));
    }
  }

  const auto axis_index = [&spec](const std::string& name) {
    for (std::size_t i = 0; i < spec.axes_.size(); ++i) {
      if (spec.axes_[i].name == name) return i;
    }
    return spec.axes_.size();
  };

  // --- pin: restrict axes to declared subsets --------------------------
  if (const JsonValue* pin = root.find("pin")) {
    if (!pin->is_object()) {
      throw ParseError(std::string("'pin' must be an object mapping axis "
                                   "names to a declared value (or value "
                                   "subset), got ") +
                       pin->kind_name());
    }
    std::set<std::string> pinned;
    for (const auto& [key, value] : pin->as_object()) {
      const std::size_t idx = axis_index(key);
      if (idx == spec.axes_.size()) {
        throw ParseError("pin names '" + key +
                         "' which is not a declared axis");
      }
      if (!pinned.insert(key).second) {
        throw ParseError("duplicate pin for axis '" + key + "'");
      }
      ExperimentAxis& axis = spec.axes_[idx];
      std::vector<std::string> subset;
      const auto add_pinned = [&](const JsonValue& element) {
        std::string canonical = canonicalize(key, element);
        if (std::find(axis.values.begin(), axis.values.end(), canonical) ==
            axis.values.end()) {
          throw ParseError("pin for axis '" + key + "' names '" +
                           canonical +
                           "' which is not among the axis's declared "
                           "values");
        }
        if (std::find(subset.begin(), subset.end(), canonical) !=
            subset.end()) {
          throw ParseError("pin for axis '" + key + "' repeats value '" +
                           canonical + "'");
        }
        subset.push_back(std::move(canonical));
      };
      if (value.is_array()) {
        for (const JsonValue& element : value.as_array()) {
          add_pinned(element);
        }
        if (value.as_array().empty()) {
          throw ParseError("pin for axis '" + key + "' is empty (drop the "
                           "pin or name at least one declared value)");
        }
      } else {
        add_pinned(value);
      }
      axis.values = std::move(subset);
    }
  }

  // --- exclude: drop individual cells ----------------------------------
  if (const JsonValue* exclude = root.find("exclude")) {
    if (!exclude->is_array()) {
      throw ParseError(std::string("'exclude' must be an array of "
                                   "{axis: value} objects, got ") +
                       exclude->kind_name());
    }
    for (const JsonValue& entry : exclude->as_array()) {
      if (!entry.is_object() || entry.as_object().empty()) {
        throw ParseError("each 'exclude' entry must be a non-empty object "
                         "of {axis: value} pairs");
      }
      std::vector<std::pair<std::size_t, std::string>> pairs;
      std::set<std::string> seen;
      for (const auto& [key, value] : entry.as_object()) {
        const std::size_t idx = axis_index(key);
        if (idx == spec.axes_.size()) {
          throw ParseError("exclude names '" + key +
                           "' which is not a declared axis");
        }
        if (!seen.insert(key).second) {
          throw ParseError("exclude entry repeats axis '" + key + "'");
        }
        pairs.emplace_back(idx, canonicalize(key, value));
      }
      spec.exclusions_.push_back(std::move(pairs));
    }
  }

  // Validate the expansion eagerly: a spec that cannot expand is rejected
  // at parse time, not at run time.
  (void)spec.cells();
  return spec;
}

std::vector<ExperimentCell> ExperimentSpec::cells() const {
  std::size_t total = 1;
  for (const ExperimentAxis& axis : axes_) {
    if (axis.values.size() > kMaxCells / total) {
      throw ParseError("spec expands to more than " +
                       std::to_string(kMaxCells) +
                       " cells — trim an axis or pin a subset");
    }
    total *= axis.values.size();
  }

  std::vector<ExperimentCell> out;
  std::vector<std::size_t> at(axes_.size(), 0);
  for (std::size_t point = 0; point < total; ++point) {
    // Decode `point` into per-axis positions, last axis fastest (the
    // nesting order of loops written in axis declaration order).
    std::size_t rest = point;
    for (std::size_t a = axes_.size(); a-- > 0;) {
      at[a] = rest % axes_[a].values.size();
      rest /= axes_[a].values.size();
    }

    ExperimentCell cell;
    cell.config = base_;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      cell.values.push_back(axes_[a].values[at[a]]);
      apply_canonical(cell.config, axes_[a].name, cell.values.back());
    }

    const bool excluded = std::any_of(
        exclusions_.begin(), exclusions_.end(), [&](const auto& pairs) {
          return std::all_of(pairs.begin(), pairs.end(),
                             [&](const auto& pair) {
                               return cell.values[pair.first] == pair.second;
                             });
        });
    if (excluded) continue;

    if (axes_.empty()) {
      cell.slug = "base";
    } else {
      for (std::size_t a = 0; a < axes_.size(); ++a) {
        if (a) cell.slug += "_";
        cell.slug += axes_[a].name + "-" + sanitize(cell.values[a]);
      }
    }

    if (cell.config.schedule != "off" && cell.config.intensity == "none") {
      throw ParseError("cell '" + cell.slug + "': schedule '" +
                       cell.config.schedule +
                       "' needs an intensity (set an intensity axis or "
                       "base value)");
    }
    if (!cell.config.simulate && cell.config.adoption == 0 &&
        cell.config.edge_cache == 0) {
      throw ParseError("cell '" + cell.slug +
                       "' would run nothing (simulate is off and no "
                       "adoption/edge_cache tier is set)");
    }
    if (!cell.config.simulate &&
        (cell.config.schedule != "off" || cell.config.overload ||
         cell.config.intensity != "none")) {
      throw ParseError("cell '" + cell.slug +
                       "' sets schedule, overload or intensity, which only "
                       "act on the simulated run, but simulate is off");
    }

    // The generator's own preconditions, checked here so a bad cell fails
    // before any cell has run or written its file.
    if (cell.config.generates_trace()) {
      if (cell.config.days < 1) {
        throw ParseError("cell '" + cell.slug + "': days " +
                         fmt_shortest(cell.config.days) +
                         " is under the generated trace's 1-day minimum");
      }
      const std::uint32_t users =
          TraceConfig::london_month_scaled(cell.config.days).users;
      if (std::llround(users * cell.config.scale) == 0) {
        throw ParseError("cell '" + cell.slug + "': scale " +
                         fmt_shortest(cell.config.scale) +
                         " leaves no users (" + std::to_string(users) +
                         " x scale rounds to 0)");
      }
    }

    cell.index = out.size();
    out.push_back(std::move(cell));
  }

  if (out.empty()) {
    throw ParseError("spec expands to zero cells (pins/exclusions removed "
                     "every point)");
  }
  return out;
}

}  // namespace cl
