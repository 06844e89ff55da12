// intensity_curve.h — time-varying grid carbon intensity.
//
// The paper's headline is *carbon-free* delivery, but a joule is not a
// gram: the CO₂ cost of a kWh depends on what the local grid is burning
// at that hour (solar noon vs the evening peak). An IntensityCurve is a
// 24-hour gCO₂/kWh profile (hour-of-day resolution, local time, wrapped
// modulo 24 for multi-day traces); the registry below names the presets
// and pairs each metro topology preset with a default grid, so carbon
// accounting composes with the metro registry the same way `--metro`
// does: `--intensity <name>` anywhere, with a per-metro default.
//
// The `flat` preset is the backward-compatibility anchor: a constant
// curve weights every hour identically, so intensity-weighted results
// reduce to the unweighted energy results scaled by one constant (and
// ratio metrics such as CCT are unchanged). See DESIGN.md §7.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/units.h"

namespace cl {

/// The registry key carbon-aware paths default to when no metro pairing
/// applies (constant intensity — weighting changes nothing but units).
inline constexpr char kFlatIntensityName[] = "flat";

/// A 24-hour grid carbon-intensity profile in gCO₂ per kWh.
class IntensityCurve {
 public:
  /// `hours[h]` is the intensity during local hour-of-day h; every value
  /// must be finite and > 0 (a grid cannot emit negative carbon per kWh,
  /// zero would make weighted ratios degenerate, and an infinite hour
  /// would turn every gram total into inf). Throws cl::InvalidArgument.
  IntensityCurve(std::string name, std::array<double, 24> hours);

  /// Constant profile at `gco2_per_kwh` for every hour.
  [[nodiscard]] static IntensityCurve constant(std::string name,
                                               double gco2_per_kwh);

  /// Loads a *measured* curve from an ElectricityMap-style 24-hour CSV
  /// export: an optional header row, then exactly 24 data rows of either
  /// `hour,gCO2_per_kwh` (each hour 0–23 exactly once, any order; extra
  /// columns ignored) or a single gCO₂/kWh column in hour order. Blank
  /// lines and `#` comments are skipped. The curve is named after the
  /// file's stem. Throws cl::IoError (unreadable file) or cl::ParseError
  /// (any bad content: non-numeric fields, wrong row count,
  /// duplicate/out-of-range hours, values <= 0 or not finite).
  [[nodiscard]] static IntensityCurve from_csv(const std::string& path);

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Intensity at an absolute trace hour (hour 0 = trace start = local
  /// midnight); wraps modulo 24.
  [[nodiscard]] double at_hour(std::size_t absolute_hour) const {
    return hours_[absolute_hour % 24];
  }

  /// The raw 24-hour profile.
  [[nodiscard]] const std::array<double, 24>& hours() const { return hours_; }

  /// Unweighted daily mean / min / max of the profile.
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// True when every hour carries the same intensity — the
  /// backward-compatible regime where weighting cancels out of ratios.
  [[nodiscard]] bool is_flat() const;

  /// Grams of CO₂ emitted by spending `energy` during `absolute_hour`.
  [[nodiscard]] double grams(Energy energy, std::size_t absolute_hour) const {
    return energy.kwh() * at_hour(absolute_hour);
  }

 private:
  std::string name_;
  std::array<double, 24> hours_{};
};

/// Name + one-line summary of one registry preset (for --help / errors).
struct IntensityPresetInfo {
  std::string name;
  std::string description;
};

/// Immutable catalogue of the named intensity presets, mirroring
/// MetroRegistry (topology/metro_registry.h). Lookups return long-lived
/// references.
class IntensityRegistry {
 public:
  /// The process-wide registry (built once, thread-safe init).
  [[nodiscard]] static const IntensityRegistry& instance();

  /// The preset curve called `name`, or nullptr.
  [[nodiscard]] const IntensityCurve* find(const std::string& name) const;

  /// True when `name` is a registered preset.
  [[nodiscard]] bool contains(const std::string& name) const {
    return find(name) != nullptr;
  }

  /// The preset curve called `name`; throws cl::InvalidArgument listing
  /// every valid name otherwise.
  [[nodiscard]] const IntensityCurve& get(const std::string& name) const;

  /// Preset names in registration order (`flat` first).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Name/description pairs in registration order.
  [[nodiscard]] const std::vector<IntensityPresetInfo>& presets() const {
    return infos_;
  }

  /// "flat, uk_2018, us_caiso, nordic_hydro" — for errors / help.
  [[nodiscard]] std::string names_joined(const char* separator = ", ") const;

  /// The intensity preset registered alongside a metro preset: the grid
  /// the metro's region runs on (london_top5 → uk_2018, us_sparse →
  /// us_caiso, fiber_dense → nordic_hydro). The registry verifies at
  /// construction that *every* MetroRegistry preset has a pairing — a
  /// new metro without one fails on first use, not silently — and an
  /// unknown metro name here throws cl::InvalidArgument.
  [[nodiscard]] const IntensityCurve& default_for_metro(
      const std::string& metro_name) const;

 private:
  IntensityRegistry();

  std::vector<IntensityPresetInfo> infos_;
  std::vector<IntensityCurve> curves_;  ///< parallel to infos_
  /// metro preset name → intensity preset name.
  std::vector<std::pair<std::string, std::string>> metro_pairings_;
};

}  // namespace cl
