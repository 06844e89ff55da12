#include "carbon/intensity_curve.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <utility>

#include "topology/metro_registry.h"
#include "util/csv.h"
#include "util/error.h"

namespace cl {

IntensityCurve::IntensityCurve(std::string name, std::array<double, 24> hours)
    : name_(std::move(name)), hours_(hours) {
  for (double v : hours_) {
    if (!(std::isfinite(v) && v > 0)) {
      throw InvalidArgument("intensity curve '" + name_ +
                            "' must be finite and > 0 gCO2/kWh at every hour");
    }
  }
}

IntensityCurve IntensityCurve::constant(std::string name,
                                        double gco2_per_kwh) {
  std::array<double, 24> hours{};
  hours.fill(gco2_per_kwh);
  return IntensityCurve(std::move(name), hours);
}

double IntensityCurve::mean() const {
  return std::accumulate(hours_.begin(), hours_.end(), 0.0) / 24.0;
}

double IntensityCurve::min() const {
  return *std::min_element(hours_.begin(), hours_.end());
}

double IntensityCurve::max() const {
  return *std::max_element(hours_.begin(), hours_.end());
}

bool IntensityCurve::is_flat() const {
  return std::all_of(hours_.begin(), hours_.end(),
                     [&](double v) { return v == hours_[0]; });
}

namespace {

/// Full-consumption double parse; std::nullopt on any trailing garbage.
std::optional<double> parse_number(const std::string& field) {
  if (field.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (errno != 0 || end != field.c_str() + field.size()) return std::nullopt;
  return value;
}

}  // namespace

IntensityCurve IntensityCurve::from_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw IoError("cannot open intensity CSV '" + path + "'");
  }
  const std::string name = std::filesystem::path(path).stem().string();

  std::array<double, 24> hours{};
  std::array<bool, 24> seen{};
  std::size_t rows = 0;
  std::size_t line_no = 0;
  bool first_data_row = true;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = split_csv_line(line);

    // An ElectricityMap export leads with a header row; recognise it by
    // its non-numeric fields — but only in first position, so a garbage
    // row in the middle of the data stays a hard error.
    const std::optional<double> first = parse_number(fields[0]);
    const std::optional<double> second =
        fields.size() > 1 ? parse_number(fields[1]) : std::nullopt;
    if (first_data_row && (!first || (fields.size() > 1 && !second))) {
      first_data_row = false;
      continue;
    }
    first_data_row = false;

    std::size_t hour = 0;
    double value = 0;
    if (fields.size() == 1) {
      // Single-column form: gCO₂/kWh values in hour order.
      if (!first) {
        throw ParseError("intensity CSV '" + path + "' line " +
                         std::to_string(line_no) + ": non-numeric value '" +
                         fields[0] + "'");
      }
      hour = rows;
      value = *first;
    } else {
      if (!first || !second) {
        throw ParseError("intensity CSV '" + path + "' line " +
                         std::to_string(line_no) +
                         ": expected numeric hour,gCO2_per_kwh fields");
      }
      if (*first < 0 || *first > 23 || *first != std::floor(*first)) {
        throw ParseError("intensity CSV '" + path + "' line " +
                              std::to_string(line_no) + ": hour '" +
                              fields[0] + "' is not an integer in 0..23");
      }
      hour = static_cast<std::size_t>(*first);
      value = *second;
    }
    if (rows >= 24 || hour >= 24) {
      throw ParseError("intensity CSV '" + path +
                            "' has more than 24 hourly rows");
    }
    if (seen[hour]) {
      throw ParseError("intensity CSV '" + path + "' line " +
                            std::to_string(line_no) + ": duplicate hour " +
                            std::to_string(hour));
    }
    seen[hour] = true;
    hours[hour] = value;
    ++rows;
  }
  if (rows != 24) {
    throw ParseError("intensity CSV '" + path +
                          "' must carry exactly 24 hourly rows (got " +
                          std::to_string(rows) + ")");
  }
  // The constructor rejects values <= 0, infinities and NaN with its own
  // message; in a file they are bad input like any other.
  try {
    return IntensityCurve(name, hours);
  } catch (const InvalidArgument& e) {
    throw ParseError(e.what());
  }
}

IntensityRegistry::IntensityRegistry() {
  // flat — the backward-compatibility anchor. 250 g/kWh is a generic
  // mixed-grid figure; the absolute level only scales gram totals, never
  // ratios (CCT, savings fractions).
  infos_.push_back({kFlatIntensityName,
                    "constant 250 gCO2/kWh (hour-independent; reproduces "
                    "the unweighted energy results)"});
  curves_.push_back(IntensityCurve::constant(kFlatIntensityName, 250.0));

  // uk_2018 — the UK grid around the paper's setting: gas/wind/nuclear
  // mix, overnight low (wind + nuclear cover the small demand), shallow
  // daytime plateau and a gas-fired evening peak. Mean ≈ 277 g/kWh
  // (national average that year was ~280).
  infos_.push_back({"uk_2018",
                    "UK 2018 gas/wind/nuclear mix: overnight low, "
                    "gas-fired evening peak (mean ~277 gCO2/kWh)"});
  curves_.push_back(IntensityCurve(
      "uk_2018",
      {245, 238, 233, 230, 228, 232, 248, 268, 285, 292, 295, 296,
       294, 290, 287, 288, 295, 310, 325, 330, 322, 305, 280, 258}));

  // us_caiso — the California duck curve: deep midday solar trough,
  // steep evening ramp onto gas peakers. Mean ≈ 270 g/kWh.
  infos_.push_back({"us_caiso",
                    "California duck curve: midday solar trough, steep "
                    "gas-fired evening ramp (mean ~270 gCO2/kWh)"});
  curves_.push_back(IntensityCurve(
      "us_caiso",
      {310, 305, 300, 298, 300, 310, 330, 300, 240, 180, 150, 140,
       138, 140, 150, 175, 230, 300, 360, 380, 370, 350, 330, 318}));

  // nordic_hydro — a hydro-dominated grid: an order of magnitude
  // cleaner and nearly flat (reservoirs follow demand with almost no
  // marginal carbon). Mean ≈ 48 g/kWh.
  infos_.push_back({"nordic_hydro",
                    "hydro-dominated grid: near-flat and ~6x cleaner "
                    "(mean ~48 gCO2/kWh)"});
  curves_.push_back(IntensityCurve(
      "nordic_hydro",
      {38, 36, 35, 34, 34, 35, 40, 46, 52, 54, 55, 54,
       52, 50, 49, 50, 53, 58, 62, 60, 55, 48, 43, 40}));

  // Each metro preset is paired with the grid its region runs on. The
  // completeness check below makes adding a metro without a pairing a
  // first-use failure instead of a silent flat fallback.
  metro_pairings_ = {{"london_top5", "uk_2018"},
                     {"us_sparse", "us_caiso"},
                     {"fiber_dense", "nordic_hydro"}};
  for (const std::string& metro : MetroRegistry::instance().names()) {
    bool paired = false;
    for (const auto& [name, curve] : metro_pairings_) {
      if (name == metro) {
        paired = contains(curve);
        break;
      }
    }
    if (!paired) {
      throw InvalidArgument(
          "metro preset '" + metro +
          "' has no grid intensity pairing: add it to "
          "IntensityRegistry's metro_pairings_ (src/carbon/)");
    }
  }
}

const IntensityRegistry& IntensityRegistry::instance() {
  static const IntensityRegistry registry;
  return registry;
}

const IntensityCurve* IntensityRegistry::find(const std::string& name) const {
  for (std::size_t i = 0; i < infos_.size(); ++i) {
    if (infos_[i].name == name) return &curves_[i];
  }
  return nullptr;
}

const IntensityCurve& IntensityRegistry::get(const std::string& name) const {
  if (const IntensityCurve* curve = find(name)) return *curve;
  throw InvalidArgument("unknown intensity preset '" + name +
                        "' (valid: " + names_joined() + ")");
}

std::vector<std::string> IntensityRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(infos_.size());
  for (const auto& info : infos_) out.push_back(info.name);
  return out;
}

std::string IntensityRegistry::names_joined(const char* separator) const {
  std::string out;
  for (const auto& info : infos_) {
    if (!out.empty()) out += separator;
    out += info.name;
  }
  return out;
}

const IntensityCurve& IntensityRegistry::default_for_metro(
    const std::string& metro_name) const {
  for (const auto& [metro, curve] : metro_pairings_) {
    if (metro == metro_name) return get(curve);
  }
  throw InvalidArgument("metro '" + metro_name +
                        "' has no grid intensity pairing (paired metros: " +
                        MetroRegistry::instance().names_joined() + ")");
}

}  // namespace cl
