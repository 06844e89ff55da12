// schedule.h — the carbon-aware control loop: from accounting to action.
//
// PR 5's accounting layer answers "how many grams did this run emit";
// this layer *acts* on the same intensity curves, with two levers:
//
//  (a) trough-seeking preload — instead of PreloadConfig's fixed
//      07:00–09:00 commute window, derive the preload window from the
//      grid itself: the contiguous window of the configured width with
//      the lowest mean gCO₂/kWh (the overnight wind lull on uk_2018,
//      the solar trough on us_caiso). The trace transform is the
//      existing apply_preload (ext/preload.h) — only the window moves.
//
//  (b) cross-metro green routing — per hour, choose the metro whose
//      grid can serve the traffic most cleanly, subject to a bounded
//      added-latency constraint per hop (GreenStream's "<30 ms added
//      delay" budget). Pricing uses *dual-grid accounting*: a request
//      crossing metros burns energy on both ends of the wire, so the
//      effective intensity blends the user-side and serving-side curves
//      (footprintshift's DualGridCarbonIntensity):
//
//        I_dual(h) = user_weight · I_user(h) + serving_weight · I_serve(h)
//
// The flat no-op contract (DESIGN.md §11): a flat user curve carries no
// signal — every hour looks identical, so there is no trough to seek and
// no cleaner hour to route into. Under `--intensity flat` the scheduler
// is *inert by construction*: schedule_preload returns the trace
// unchanged and plan_routes stays home every hour, so scheduled results
// are bit-identical to unscheduled ones — the same backward-compatibility
// anchor PR 5 pinned for the accounting layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "carbon/carbon_accountant.h"
#include "carbon/intensity_curve.h"
#include "energy/accounting.h"
#include "ext/preload.h"
#include "trace/session.h"

namespace cl {

/// Tunables of the carbon-aware control loop.
struct ScheduleConfig {
  // --- (a) trough-seeking preload ---
  double preload_adoption = 0.5;      ///< fraction of sessions shifted
  double preload_window_hours = 2.0;  ///< derived window width, (0, 24]

  // --- (b) cross-metro green routing / dual-grid accounting ---
  /// Transmission (user-side) weight of the dual-grid blend. The two
  /// weights must be >= 0 and sum to 1.
  double user_weight = 0.5;
  /// Computation (serving-side) weight of the dual-grid blend.
  double serving_weight = 0.5;
  /// Added one-way latency per hop between adjacent metros (registry
  /// order is the chain: |i - j| hops between metro i and metro j).
  double hop_latency_ms = 25.0;
  /// Latency budget: a candidate serving metro is viable only when its
  /// added latency stays within this bound (GreenStream uses < 30 ms).
  double max_added_latency_ms = 30.0;

  /// Throws cl::InvalidArgument on out-of-range values.
  void validate() const;
};

/// One hour's routing decision.
struct RouteChoice {
  std::size_t serving_metro = 0;  ///< registry index the hour is served from
  double added_latency_ms = 0;    ///< 0 when served from the home metro
  double serving_intensity = 0;   ///< gCO₂/kWh of the serving grid that hour
};

/// Per-hour serving-metro choices for one run.
struct RoutingPlan {
  std::size_t home_metro = 0;      ///< registry index of the user's metro
  std::vector<RouteChoice> hours;  ///< hours[h] = decision for trace hour h

  /// Hours served from a metro other than home.
  [[nodiscard]] std::size_t hours_routed_away() const;
  /// Mean added latency over *all* hours (home hours count as 0 ms) —
  /// the GreenStream-style "average added delay" figure.
  [[nodiscard]] double mean_added_latency_ms() const;
  /// Largest added latency of any hour in the plan.
  [[nodiscard]] double max_added_latency_ms() const;
};

/// Scheduled-vs-unscheduled gCO₂ outcome under one energy model.
struct ScheduleOutcome {
  std::string model;         ///< energy parameter column name
  double unscheduled_g = 0;  ///< dual-grid grams, all-home, unscheduled run
  double scheduled_g = 0;    ///< dual-grid grams, routed plan, scheduled run
  double reduction = 0;      ///< 1 − scheduled_g / unscheduled_g
};

/// The levers of --schedule and the spec's `schedule` key: "preload"
/// shifts sessions into the intensity trough, "route" serves hours from
/// the cleanest viable metro, "all" does both.
enum class ScheduleMode { kOff, kPreload, kRoute, kAll };

[[nodiscard]] inline bool schedule_preloads(ScheduleMode mode) {
  return mode == ScheduleMode::kPreload || mode == ScheduleMode::kAll;
}

[[nodiscard]] inline bool schedule_routes(ScheduleMode mode) {
  return mode == ScheduleMode::kRoute || mode == ScheduleMode::kAll;
}

/// Parses off|preload|route|all; anything else throws cl::ParseError.
[[nodiscard]] ScheduleMode parse_schedule_mode(const std::string& mode);

/// Index of a registered metro preset in registration order — the
/// hop-distance coordinate green routing uses (the registry order is the
/// metro chain). Throws cl::InvalidArgument for a non-preset name.
[[nodiscard]] std::size_t metro_registry_index(const std::string& metro_name);

/// The serving-grid candidates for green routing, index-aligned with the
/// metro registry: each remote metro serves from its region's default
/// grid, while the home slot carries the user-side curve itself (which
/// may be a preset, the metro default, or a measured CSV curve).
[[nodiscard]] std::vector<const IntensityCurve*> serving_curves(
    const std::string& home_metro, const IntensityCurve& user_curve);

/// Turns intensity curves into scheduling decisions. The user-side curve
/// must outlive the scheduler.
class CarbonScheduler {
 public:
  explicit CarbonScheduler(const IntensityCurve& user_curve,
                           ScheduleConfig config = {});

  [[nodiscard]] const ScheduleConfig& config() const { return config_; }
  [[nodiscard]] const IntensityCurve& user_curve() const {
    return *user_curve_;
  }

  /// True when the user curve is flat: no intensity signal, so every
  /// decision method degenerates to the unscheduled identity (the flat
  /// no-op contract, DESIGN.md §11).
  [[nodiscard]] bool inert() const { return user_curve_->is_flat(); }

  /// The cleanest contiguous window of config().preload_window_hours
  /// within the day (integer start hours, no midnight wrap — the window
  /// must satisfy apply_preload's [start, end <= 24] contract), with
  /// adoption filled in from the config. Ties resolve to the earliest
  /// start; a flat curve yields [0, width).
  [[nodiscard]] PreloadConfig trough_window() const;

  /// (a) The trough-seeking preload transform: apply_preload into
  /// trough_window(). Inert (flat) schedulers return the trace unchanged.
  /// Deterministic in `seed`.
  [[nodiscard]] Trace schedule_preload(const Trace& trace,
                                       std::uint64_t seed) const;

  /// The unscheduled baseline plan: every hour served from `home` at the
  /// user curve's intensity.
  [[nodiscard]] RoutingPlan home_plan(std::size_t home,
                                      std::size_t hours) const;

  /// (b) Green routing over the serving-grid candidates. `serving[i]` is
  /// metro i's grid (index-aligned with the metro registry; slot `home`
  /// should carry the user curve) and every pointer must be non-null.
  /// Hour h is served from the *viable* metro (added latency
  /// hop_latency_ms·|i − home| within max_added_latency_ms) with the
  /// strictly lowest intensity; ties keep the home metro. Inert
  /// schedulers return home_plan.
  [[nodiscard]] RoutingPlan plan_routes(
      const std::vector<const IntensityCurve*>& serving, std::size_t home,
      std::size_t hours) const;

  /// The dual-grid blend: user_weight·user_g + serving_weight·serving_g.
  [[nodiscard]] double dual_intensity(double user_g, double serving_g) const {
    return config_.user_weight * user_g + config_.serving_weight * serving_g;
  }

  /// Prices an hourly traffic grid in grams under a routing plan: each
  /// hour's hybrid energy is weighted by the dual-grid intensity of the
  /// hour's serving choice (hours beyond the plan price as home).
  [[nodiscard]] double dual_grams(const HourlyTrafficGrid& hourly,
                                  const EnergyAccountant& energy,
                                  const RoutingPlan& plan) const;

  /// The scheduled-vs-unscheduled comparison under one energy model:
  /// the unscheduled grid priced all-home versus the scheduled grid
  /// priced under `plan`. When both grids and the plan are the
  /// unscheduled identity (the flat contract), the two gram figures are
  /// bit-identical and the reduction is exactly 0.
  [[nodiscard]] ScheduleOutcome assess(const HourlyTrafficGrid& unscheduled,
                                       const HourlyTrafficGrid& scheduled,
                                       const EnergyAccountant& energy,
                                       const RoutingPlan& plan) const;

 private:
  const IntensityCurve* user_curve_;
  ScheduleConfig config_;
};

}  // namespace cl
