#include "carbon/schedule.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "topology/metro_registry.h"
#include "util/error.h"

namespace cl {

void ScheduleConfig::validate() const {
  if (!(preload_adoption >= 0 && preload_adoption <= 1)) {
    throw InvalidArgument("ScheduleConfig::preload_adoption must be in [0, 1]");
  }
  if (!(preload_window_hours > 0 && preload_window_hours <= 24)) {
    throw InvalidArgument(
        "ScheduleConfig::preload_window_hours must be in (0, 24]");
  }
  if (!(user_weight >= 0) || !(serving_weight >= 0) ||
      std::abs(user_weight + serving_weight - 1.0) > 1e-9) {
    throw InvalidArgument(
        "ScheduleConfig dual-grid weights must be >= 0 and sum to 1");
  }
  if (!(hop_latency_ms >= 0)) {
    throw InvalidArgument("ScheduleConfig::hop_latency_ms must be >= 0");
  }
  if (!(max_added_latency_ms >= 0)) {
    throw InvalidArgument("ScheduleConfig::max_added_latency_ms must be >= 0");
  }
}

std::size_t RoutingPlan::hours_routed_away() const {
  std::size_t away = 0;
  for (const auto& h : hours) {
    if (h.serving_metro != home_metro) ++away;
  }
  return away;
}

double RoutingPlan::mean_added_latency_ms() const {
  if (hours.empty()) return 0;
  double sum = 0;
  for (const auto& h : hours) sum += h.added_latency_ms;
  return sum / static_cast<double>(hours.size());
}

double RoutingPlan::max_added_latency_ms() const {
  double max = 0;
  for (const auto& h : hours) max = std::max(max, h.added_latency_ms);
  return max;
}

CarbonScheduler::CarbonScheduler(const IntensityCurve& user_curve,
                                 ScheduleConfig config)
    : user_curve_(&user_curve), config_(config) {
  config_.validate();
}

PreloadConfig CarbonScheduler::trough_window() const {
  // Mean intensity of every non-wrapping window [s, s+W), s an integer
  // hour: 24 candidates at most, so brute force is exact and cheap. The
  // window covers hour cell h with weight min(h+1, s+W) − max(h, s).
  const double width = config_.preload_window_hours;
  const int last_start = 24 - static_cast<int>(std::ceil(width));
  int best_start = 0;
  double best_sum = 0;
  for (int start = 0; start <= last_start; ++start) {
    double sum = 0;
    for (int h = start; h < 24 && h < start + width; ++h) {
      const double overlap =
          std::min<double>(h + 1, start + width) - static_cast<double>(h);
      sum += overlap * user_curve_->at_hour(static_cast<std::size_t>(h));
    }
    if (start == 0 || sum < best_sum) {
      best_sum = sum;
      best_start = start;
    }
  }
  PreloadConfig window;
  window.adoption = config_.preload_adoption;
  window.window_start_hour = best_start;
  window.window_end_hour = best_start + width;
  return window;
}

Trace CarbonScheduler::schedule_preload(const Trace& trace,
                                        std::uint64_t seed) const {
  // Flat no-op contract: no signal, no shift — the returned copy carries
  // bit-identical sessions (and the metro stamp) so downstream results
  // match the unscheduled run exactly.
  if (inert()) return trace;
  return apply_preload(trace, trough_window(), seed);
}

RoutingPlan CarbonScheduler::home_plan(std::size_t home,
                                       std::size_t hours) const {
  RoutingPlan plan;
  plan.home_metro = home;
  plan.hours.reserve(hours);
  for (std::size_t h = 0; h < hours; ++h) {
    plan.hours.push_back({home, 0.0, user_curve_->at_hour(h)});
  }
  return plan;
}

RoutingPlan CarbonScheduler::plan_routes(
    const std::vector<const IntensityCurve*>& serving, std::size_t home,
    std::size_t hours) const {
  if (home >= serving.size()) {
    throw InvalidArgument(
        "plan_routes: home metro index is outside the serving-grid list");
  }
  for (const IntensityCurve* curve : serving) {
    if (curve == nullptr) {
      throw InvalidArgument("plan_routes: null serving-grid candidate");
    }
  }
  if (inert()) return home_plan(home, hours);

  RoutingPlan plan;
  plan.home_metro = home;
  plan.hours.reserve(hours);
  for (std::size_t h = 0; h < hours; ++h) {
    RouteChoice best{home, 0.0, serving[home]->at_hour(h)};
    for (std::size_t m = 0; m < serving.size(); ++m) {
      if (m == home) continue;
      const double distance =
          static_cast<double>(m > home ? m - home : home - m);
      const double latency = config_.hop_latency_ms * distance;
      if (latency > config_.max_added_latency_ms) continue;
      const double g = serving[m]->at_hour(h);
      // Strict improvement only: equal-intensity candidates never pull a
      // request off its home metro (and among equally clean remotes the
      // nearest wins) — ties cost latency for nothing.
      if (g < best.serving_intensity ||
          (g == best.serving_intensity && best.serving_metro != home &&
           latency < best.added_latency_ms)) {
        best = {m, latency, g};
      }
    }
    plan.hours.push_back(best);
  }
  return plan;
}

namespace {

TrafficBreakdown sum_row(const std::vector<TrafficBreakdown>& row) {
  TrafficBreakdown sum;
  for (const auto& t : row) sum += t;
  return sum;
}

}  // namespace

double CarbonScheduler::dual_grams(const HourlyTrafficGrid& hourly,
                                   const EnergyAccountant& energy,
                                   const RoutingPlan& plan) const {
  double grams = 0;
  for (std::size_t h = 0; h < hourly.size(); ++h) {
    const double user_g = user_curve_->at_hour(h);
    const double serving_g =
        h < plan.hours.size() ? plan.hours[h].serving_intensity : user_g;
    const Energy spent = energy.hybrid(sum_row(hourly[h])).total();
    grams += dual_intensity(user_g, serving_g) * spent.kwh();
  }
  return grams;
}

ScheduleMode parse_schedule_mode(const std::string& mode) {
  if (mode == "off") return ScheduleMode::kOff;
  if (mode == "preload") return ScheduleMode::kPreload;
  if (mode == "route") return ScheduleMode::kRoute;
  if (mode == "all") return ScheduleMode::kAll;
  throw ParseError("unknown schedule mode '" + mode +
                   "' (off|preload|route|all)");
}

std::size_t metro_registry_index(const std::string& metro_name) {
  const std::vector<std::string> names = MetroRegistry::instance().names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == metro_name) return i;
  }
  throw InvalidArgument("metro '" + metro_name +
                        "' is not a registry preset (valid: " +
                        MetroRegistry::instance().names_joined() + ")");
}

std::vector<const IntensityCurve*> serving_curves(
    const std::string& home_metro, const IntensityCurve& user_curve) {
  const IntensityRegistry& intensity = IntensityRegistry::instance();
  std::vector<const IntensityCurve*> serving;
  for (const std::string& name : MetroRegistry::instance().names()) {
    serving.push_back(name == home_metro ? &user_curve
                                         : &intensity.default_for_metro(name));
  }
  return serving;
}

ScheduleOutcome CarbonScheduler::assess(const HourlyTrafficGrid& unscheduled,
                                        const HourlyTrafficGrid& scheduled,
                                        const EnergyAccountant& energy,
                                        const RoutingPlan& plan) const {
  ScheduleOutcome outcome;
  outcome.model = energy.costs().params().name;
  outcome.unscheduled_g = dual_grams(
      unscheduled, energy, home_plan(plan.home_metro, unscheduled.size()));
  outcome.scheduled_g = dual_grams(scheduled, energy, plan);
  outcome.reduction = outcome.unscheduled_g > 0
                          ? 1.0 - outcome.scheduled_g / outcome.unscheduled_g
                          : 0.0;
  return outcome;
}

}  // namespace cl
