#include "core/carbon_ledger.h"

#include <algorithm>
#include <cstddef>

#include "model/carbon_credit.h"
#include "util/error.h"

namespace cl {

CarbonLedger::CarbonLedger(const SimResult& result, EnergyParams params)
    : params_(std::move(params)) {
  params_.validate();
  // The settled column is already in ascending user order.
  entries_.reserve(result.users.size());
  for (const UserTraffic& traffic : result.users) {
    LedgerEntry entry;
    entry.user = traffic.user;
    entry.downloaded = traffic.downloaded;
    entry.uploaded = traffic.uploaded;
    entry.cct = per_user_cct(traffic.downloaded, traffic.uploaded, params_);
    entries_.push_back(entry);
  }
  // Collapse the hourly grid across ISPs: the intensity weighting only
  // needs "how much moved during hour h" (peer bits == user uploads).
  hourly_flows_.reserve(result.hourly.size());
  for (const auto& row : result.hourly) {
    TrafficBreakdown sum;
    for (const auto& t : row) sum += t;
    hourly_flows_.push_back({sum.total(), sum.peer_total()});
  }
}

std::vector<double> CarbonLedger::cct_values() const {
  std::vector<double> values;
  values.reserve(entries_.size());
  for (const auto& e : entries_) values.push_back(e.cct);
  return values;
}

double CarbonLedger::fraction_carbon_free() const {
  if (entries_.empty()) return 0.0;
  std::size_t positive = 0;
  for (const auto& e : entries_) {
    if (e.cct >= 0) ++positive;
  }
  return static_cast<double>(positive) / static_cast<double>(entries_.size());
}

double CarbonLedger::median_cct() const {
  auto values = cct_values();
  if (values.empty()) return 0.0;
  // quantile_sorted(sorted, 0.5) without the full sort: the order
  // statistic at ⌊(n−1)/2⌋ and, for even n, the smallest value above it
  // are the two sorted neighbours it interpolates, with the same weights.
  const double pos = 0.5 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), mid, values.end());
  if (lo + 1 >= values.size()) return *mid;
  const double frac = pos - static_cast<double>(lo);
  const double next = *std::min_element(mid + 1, values.end());
  return *mid * (1.0 - frac) + next * frac;
}

Energy CarbonLedger::total_credits() const {
  Bits uploaded;
  for (const auto& e : entries_) uploaded += e.uploaded;
  return credit_energy(uploaded, params_);
}

Energy CarbonLedger::total_user_energy() const {
  Bits down, up;
  for (const auto& e : entries_) {
    down += e.downloaded;
    up += e.uploaded;
  }
  return user_energy(down, up, params_);
}

double CarbonLedger::system_cct() const {
  const double credits = total_credits().value();
  const double spent = total_user_energy().value();
  return spent > 0 ? (credits - spent) / spent : 0.0;
}

void CarbonLedger::require_hourly_flows() const {
  if (hourly_flows_.empty()) {
    throw InvalidArgument(
        "intensity-weighted ledger metrics need the hourly grid: run the "
        "simulation with SimConfig::collect_hourly");
  }
}

double CarbonLedger::total_credits_gco2(const IntensityCurve& curve) const {
  require_hourly_flows();
  double grams = 0;
  for (std::size_t h = 0; h < hourly_flows_.size(); ++h) {
    grams += curve.grams(credit_energy(hourly_flows_[h].peer, params_), h);
  }
  return grams;
}

double CarbonLedger::total_user_gco2(const IntensityCurve& curve) const {
  require_hourly_flows();
  double grams = 0;
  for (std::size_t h = 0; h < hourly_flows_.size(); ++h) {
    grams += curve.grams(
        user_energy(hourly_flows_[h].delivered, hourly_flows_[h].peer,
                    params_),
        h);
  }
  return grams;
}

double CarbonLedger::weighted_system_cct(const IntensityCurve& curve) const {
  const double credits = total_credits_gco2(curve);
  const double spent = total_user_gco2(curve);
  return spent > 0 ? (credits - spent) / spent : 0.0;
}

}  // namespace cl
