// Tests for src/carbon/schedule.h — the carbon-aware control loop: the
// trough-seeking preload window, cross-metro green routing under the
// latency bound, dual-grid accounting, the flat no-op contract (under a
// flat curve every scheduling decision is the unscheduled identity),
// and IntensityCurve::from_csv's measured-curve loader.
#include "carbon/schedule.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "carbon/intensity_curve.h"
#include "sim/hybrid_sim.h"
#include "topology/metro_registry.h"
#include "trace/synthetic.h"
#include "util/error.h"

#include "temp_path.h"

namespace cl {
namespace {

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

Trace small_trace() {
  TraceConfig tc;
  tc.days = 2;
  tc.users = 1200;
  tc.exemplar_views = {8000};
  tc.catalogue_tail = 60;
  tc.tail_views = 4000;
  return TraceGenerator(tc, metro()).generate();
}

IntensityCurve spike_curve(const std::string& name, double base,
                           double value, std::size_t hour) {
  std::array<double, 24> hours{};
  hours.fill(base);
  hours[hour] = value;
  return IntensityCurve(name, hours);
}

// ---- trough-seeking preload ----

TEST(TroughWindow, FindsCleanestHoursOfEachPreset) {
  const IntensityRegistry& registry = IntensityRegistry::instance();
  // uk_2018 bottoms out overnight: [3, 5) is the cleanest 2-hour window.
  const CarbonScheduler uk(registry.get("uk_2018"));
  EXPECT_DOUBLE_EQ(uk.trough_window().window_start_hour, 3.0);
  EXPECT_DOUBLE_EQ(uk.trough_window().window_end_hour, 5.0);
  // us_caiso's solar trough: [11, 13) and [12, 14) tie at 278 g·h; the
  // tie must resolve to the earlier start.
  const CarbonScheduler caiso(registry.get("us_caiso"));
  EXPECT_DOUBLE_EQ(caiso.trough_window().window_start_hour, 11.0);
  EXPECT_DOUBLE_EQ(caiso.trough_window().window_end_hour, 13.0);
}

TEST(TroughWindow, RespectsConfiguredWidthAndAdoption) {
  ScheduleConfig config;
  config.preload_window_hours = 4.0;
  config.preload_adoption = 0.25;
  const CarbonScheduler scheduler(
      IntensityRegistry::instance().get("uk_2018"), config);
  const PreloadConfig window = scheduler.trough_window();
  EXPECT_DOUBLE_EQ(window.window_end_hour - window.window_start_hour, 4.0);
  EXPECT_DOUBLE_EQ(window.adoption, 0.25);
  EXPECT_LE(window.window_end_hour, 24.0);
}

TEST(TroughWindow, SpikeCurveAvoidsTheSpike) {
  // A single dirty hour: the chosen window must not overlap it, and ties
  // among the clean windows resolve to the earliest start (hour 0 when
  // the spike sits late enough).
  // The scheduler keeps a pointer to its curve: the curve must outlive it.
  const IntensityCurve curve = spike_curve("spike", 100.0, 900.0, 12);
  const CarbonScheduler scheduler(curve);
  const PreloadConfig window = scheduler.trough_window();
  EXPECT_DOUBLE_EQ(window.window_start_hour, 0.0);
  EXPECT_DOUBLE_EQ(window.window_end_hour, 2.0);
}

TEST(SchedulePreload, MovesSessionsIntoTheTrough) {
  const Trace trace = small_trace();
  ScheduleConfig config;
  config.preload_adoption = 1.0;
  const CarbonScheduler scheduler(
      IntensityRegistry::instance().get("uk_2018"), config);
  const Trace out = scheduler.schedule_preload(trace, 7);
  ASSERT_EQ(out.size(), trace.size());
  EXPECT_EQ(out.metro_name, trace.metro_name);
  for (const auto& s : out.sessions) {
    const double hour = std::fmod(s.start, 86400.0) / 3600.0;
    EXPECT_GE(hour, 3.0 - 1e-9);
    EXPECT_LT(hour, 5.0 + 1e-9);
  }
}

// ---- the flat no-op contract ----

TEST(FlatContract, SchedulerIsInertUnderFlatCurve) {
  const IntensityCurve& flat =
      IntensityRegistry::instance().get(kFlatIntensityName);
  const CarbonScheduler scheduler(flat);
  EXPECT_TRUE(scheduler.inert());

  // The preload transform is the bit-identical identity.
  const Trace trace = small_trace();
  const Trace out = scheduler.schedule_preload(trace, 3);
  ASSERT_EQ(out.size(), trace.size());
  EXPECT_EQ(out.metro_name, trace.metro_name);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.sessions[i].start, trace.sessions[i].start);
    EXPECT_EQ(out.sessions[i].duration, trace.sessions[i].duration);
  }

  // Routing stays home every hour even when a cleaner neighbour exists.
  const IntensityCurve clean = IntensityCurve::constant("clean", 10.0);
  const RoutingPlan plan = scheduler.plan_routes({&flat, &clean}, 0, 48);
  EXPECT_EQ(plan.hours_routed_away(), 0u);
  EXPECT_DOUBLE_EQ(plan.mean_added_latency_ms(), 0.0);

  // And the assessed reduction is exactly 0 (same grid, same plan).
  const SimResult result =
      HybridSimulator(metro(), SimConfig{}).run(TraceView::from_trace(trace));
  const EnergyAccountant energy{CostFunctions(valancius_params())};
  const ScheduleOutcome outcome =
      scheduler.assess(result.hourly, result.hourly, energy, plan);
  EXPECT_EQ(outcome.scheduled_g, outcome.unscheduled_g);
  EXPECT_EQ(outcome.reduction, 0.0);
}

// ---- green routing ----

TEST(PlanRoutes, PrefersCleanerViableMetroOnly) {
  // Home grid at 300; one-hop neighbour at 100 (viable, cleaner);
  // two-hop candidate at 10 (cleanest, but 50 ms > the 30 ms bound).
  const IntensityCurve home = IntensityCurve::constant("home", 300.0);
  const IntensityCurve near = IntensityCurve::constant("near", 100.0);
  const IntensityCurve far = IntensityCurve::constant("far", 10.0);
  const IntensityCurve user = spike_curve("user", 300.0, 301.0, 0);
  const CarbonScheduler scheduler(user);  // non-flat: routing active
  const RoutingPlan plan =
      scheduler.plan_routes({&home, &near, &far}, 0, 24);
  ASSERT_EQ(plan.hours.size(), 24u);
  for (const auto& h : plan.hours) {
    EXPECT_EQ(h.serving_metro, 1u);
    EXPECT_DOUBLE_EQ(h.added_latency_ms, 25.0);
    EXPECT_DOUBLE_EQ(h.serving_intensity, 100.0);
  }
  EXPECT_EQ(plan.hours_routed_away(), 24u);
  EXPECT_DOUBLE_EQ(plan.max_added_latency_ms(), 25.0);
}

TEST(PlanRoutes, TiesKeepTheHomeMetro) {
  const IntensityCurve same = IntensityCurve::constant("same", 200.0);
  const IntensityCurve user = spike_curve("user", 200.0, 201.0, 0);
  const CarbonScheduler scheduler(user);
  const RoutingPlan plan = scheduler.plan_routes({&same, &same}, 0, 24);
  EXPECT_EQ(plan.hours_routed_away(), 0u);
}

TEST(PlanRoutes, ZeroLatencyBoundDisablesRouting) {
  ScheduleConfig config;
  config.max_added_latency_ms = 0.0;
  const IntensityCurve dirty = IntensityCurve::constant("dirty", 500.0);
  const IntensityCurve clean = IntensityCurve::constant("clean", 10.0);
  const IntensityCurve user = spike_curve("user", 500.0, 501.0, 0);
  const CarbonScheduler scheduler(user, config);
  const RoutingPlan plan = scheduler.plan_routes({&dirty, &clean}, 0, 24);
  EXPECT_EQ(plan.hours_routed_away(), 0u);
}

TEST(PlanRoutes, RejectsBadInputs) {
  const IntensityCurve c = IntensityCurve::constant("c", 100.0);
  const CarbonScheduler scheduler(c);
  EXPECT_THROW((void)scheduler.plan_routes({&c}, 3, 24), InvalidArgument);
  EXPECT_THROW((void)scheduler.plan_routes({&c, nullptr}, 0, 24),
               InvalidArgument);
}

TEST(HomePlan, TracksTheUserCurve) {
  const IntensityCurve& uk = IntensityRegistry::instance().get("uk_2018");
  const CarbonScheduler scheduler(uk);
  const RoutingPlan plan = scheduler.home_plan(2, 30);
  ASSERT_EQ(plan.hours.size(), 30u);
  EXPECT_EQ(plan.home_metro, 2u);
  for (std::size_t h = 0; h < plan.hours.size(); ++h) {
    EXPECT_EQ(plan.hours[h].serving_metro, 2u);
    EXPECT_DOUBLE_EQ(plan.hours[h].serving_intensity, uk.at_hour(h));
    EXPECT_DOUBLE_EQ(plan.hours[h].added_latency_ms, 0.0);
  }
}

// ---- dual-grid accounting ----

TEST(DualGrid, BlendsUserAndServingIntensity) {
  ScheduleConfig config;
  config.user_weight = 0.3;
  config.serving_weight = 0.7;
  const CarbonScheduler scheduler(
      IntensityRegistry::instance().get("uk_2018"), config);
  EXPECT_DOUBLE_EQ(scheduler.dual_intensity(100.0, 300.0),
                   0.3 * 100.0 + 0.7 * 300.0);
}

TEST(DualGrid, GramsMatchHandComputation) {
  const IntensityCurve& uk = IntensityRegistry::instance().get("uk_2018");
  const CarbonScheduler scheduler(uk);
  const EnergyAccountant energy{CostFunctions(valancius_params())};

  TrafficBreakdown t;
  t.server = Bits{4e9};
  t.peer[0] = Bits{1e9};
  HourlyTrafficGrid hourly(2, std::vector<TrafficBreakdown>(1));
  hourly[0][0] = t;
  hourly[1][0] = t;

  RoutingPlan plan;
  plan.home_metro = 0;
  plan.hours.push_back({0, 0.0, uk.at_hour(0)});    // home hour
  plan.hours.push_back({1, 25.0, 50.0});            // routed hour

  const double kwh = energy.hybrid(t).total().kwh();
  const double expected =
      scheduler.dual_intensity(uk.at_hour(0), uk.at_hour(0)) * kwh +
      scheduler.dual_intensity(uk.at_hour(1), 50.0) * kwh;
  EXPECT_DOUBLE_EQ(scheduler.dual_grams(hourly, energy, plan), expected);
}

TEST(DualGrid, HoursBeyondThePlanPriceAsHome) {
  const IntensityCurve& uk = IntensityRegistry::instance().get("uk_2018");
  const CarbonScheduler scheduler(uk);
  const EnergyAccountant energy{CostFunctions(valancius_params())};
  TrafficBreakdown t;
  t.server = Bits{1e9};
  HourlyTrafficGrid hourly(3, std::vector<TrafficBreakdown>(1));
  for (auto& row : hourly) row[0] = t;
  // An empty plan: every hour falls back to the user curve on both ends.
  const RoutingPlan empty_plan;
  double expected = 0;
  for (std::size_t h = 0; h < 3; ++h) {
    expected += uk.at_hour(h) * energy.hybrid(t).total().kwh();
  }
  EXPECT_DOUBLE_EQ(scheduler.dual_grams(hourly, energy, empty_plan),
                   expected);
}

// ---- end-to-end outcomes ----

TEST(Schedule, PositiveReductionUnderEveryNonFlatPreset) {
  const Trace trace = small_trace();
  const SimResult unscheduled =
      HybridSimulator(metro(), SimConfig{}).run(TraceView::from_trace(trace));
  const IntensityRegistry& registry = IntensityRegistry::instance();

  for (const char* name : {"uk_2018", "us_caiso", "nordic_hydro"}) {
    const CarbonScheduler scheduler(registry.get(name));
    ASSERT_FALSE(scheduler.inert()) << name;
    const SimResult scheduled =
        HybridSimulator(metro(), SimConfig{})
            .run(TraceView::from_trace(scheduler.schedule_preload(trace, 9)));
    std::vector<const IntensityCurve*> serving;
    for (const std::string& m : MetroRegistry::instance().names()) {
      serving.push_back(m == kDefaultMetroName
                            ? &registry.get(name)
                            : &registry.default_for_metro(m));
    }
    const RoutingPlan plan =
        scheduler.plan_routes(serving, 0, scheduled.hourly.size());
    EXPECT_LE(plan.max_added_latency_ms(),
              scheduler.config().max_added_latency_ms)
        << name;
    for (const auto& params : standard_params()) {
      const EnergyAccountant energy{CostFunctions(params)};
      const ScheduleOutcome outcome =
          scheduler.assess(unscheduled.hourly, scheduled.hourly, energy, plan);
      EXPECT_GT(outcome.reduction, 0.0) << name << "/" << params.name;
      EXPECT_LT(outcome.scheduled_g, outcome.unscheduled_g)
          << name << "/" << params.name;
    }
  }
}

TEST(Schedule, ScheduledRunsBitIdenticalAcrossThreadCounts) {
  // The scheduled replay inherits the simulator's determinism contract:
  // the preload transform is single-threaded and seed-deterministic, and
  // the re-simulation merges fixed chunks — so every thread count yields
  // bit-identical totals and hourly grids.
  Trace trace = small_trace();
  const CarbonScheduler scheduler(
      IntensityRegistry::instance().get("us_caiso"));
  const Trace shifted = scheduler.schedule_preload(trace, 11);

  SimConfig base;
  base.threads = 1;
  const SimResult reference =
      HybridSimulator(metro(), base).run(TraceView::from_trace(shifted));
  for (unsigned threads : {2u, 7u, 0u}) {
    SimConfig config;
    config.threads = threads;
    const SimResult result =
        HybridSimulator(metro(), config).run(TraceView::from_trace(shifted));
    EXPECT_EQ(result.total.total().value(),
              reference.total.total().value());
    EXPECT_EQ(result.total.peer_total().value(),
              reference.total.peer_total().value());
    ASSERT_EQ(result.hourly.size(), reference.hourly.size());
    for (std::size_t h = 0; h < result.hourly.size(); ++h) {
      ASSERT_EQ(result.hourly[h].size(), reference.hourly[h].size());
      for (std::size_t i = 0; i < result.hourly[h].size(); ++i) {
        EXPECT_EQ(result.hourly[h][i].total().value(),
                  reference.hourly[h][i].total().value());
        EXPECT_EQ(result.hourly[h][i].peer_total().value(),
                  reference.hourly[h][i].peer_total().value());
      }
    }
  }
}

// ---- config validation ----

TEST(ScheduleConfig, RejectsOutOfRangeValues) {
  const IntensityCurve& uk = IntensityRegistry::instance().get("uk_2018");
  {
    ScheduleConfig c;
    c.preload_adoption = 1.5;
    EXPECT_THROW(CarbonScheduler(uk, c), InvalidArgument);
  }
  {
    ScheduleConfig c;
    c.preload_window_hours = 0.0;
    EXPECT_THROW(CarbonScheduler(uk, c), InvalidArgument);
  }
  {
    ScheduleConfig c;
    c.preload_window_hours = 25.0;
    EXPECT_THROW(CarbonScheduler(uk, c), InvalidArgument);
  }
  {
    ScheduleConfig c;
    c.user_weight = 0.6;  // weights no longer sum to 1
    EXPECT_THROW(CarbonScheduler(uk, c), InvalidArgument);
  }
  {
    ScheduleConfig c;
    c.user_weight = -0.5;
    c.serving_weight = 1.5;
    EXPECT_THROW(CarbonScheduler(uk, c), InvalidArgument);
  }
  {
    ScheduleConfig c;
    c.max_added_latency_ms = -1.0;
    EXPECT_THROW(CarbonScheduler(uk, c), InvalidArgument);
  }
}

// ---- from_csv ----

class FromCsvTest : public ::testing::Test {
 protected:
  std::string write_csv(const std::string& name, const std::string& body) {
    const std::string path = test::unique_temp_path(name);
    std::ofstream out(path);
    out << body;
    out.close();
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const auto& p : paths_) std::filesystem::remove(p);
  }

  std::vector<std::string> paths_;
};

TEST_F(FromCsvTest, LoadsTwoColumnFileInAnyHourOrder) {
  std::string body = "hour,gCO2_per_kwh\n";
  // Rows deliberately out of order: hour 23 first, then 0..22.
  body += "23,123\n";
  for (int h = 0; h < 23; ++h) {
    body += std::to_string(h) + "," + std::to_string(100 + h) + "\n";
  }
  const IntensityCurve curve =
      IntensityCurve::from_csv(write_csv("shuffled.csv", body));
  EXPECT_EQ(curve.name(), "shuffled");
  EXPECT_DOUBLE_EQ(curve.at_hour(23), 123.0);
  EXPECT_DOUBLE_EQ(curve.at_hour(0), 100.0);
  EXPECT_DOUBLE_EQ(curve.at_hour(22), 122.0);
}

TEST_F(FromCsvTest, LoadsSingleColumnFileInHourOrder) {
  std::string body = "# nightly export, values only\n";
  for (int h = 0; h < 24; ++h) {
    body += std::to_string(200 + h) + "\n";
  }
  const IntensityCurve curve =
      IntensityCurve::from_csv(write_csv("plain.csv", body));
  EXPECT_DOUBLE_EQ(curve.at_hour(0), 200.0);
  EXPECT_DOUBLE_EQ(curve.at_hour(23), 223.0);
  EXPECT_FALSE(curve.is_flat());
}

TEST_F(FromCsvTest, RejectsWrongRowCounts) {
  std::string short_body;
  for (int h = 0; h < 23; ++h) short_body += "100\n";
  EXPECT_THROW(
      (void)IntensityCurve::from_csv(write_csv("short.csv", short_body)),
      ParseError);
  std::string long_body;
  for (int h = 0; h < 25; ++h) long_body += "100\n";
  EXPECT_THROW(
      (void)IntensityCurve::from_csv(write_csv("long.csv", long_body)),
      ParseError);
}

TEST_F(FromCsvTest, RejectsNonPositiveValues) {
  std::string zero_body;
  for (int h = 0; h < 24; ++h) zero_body += (h == 7 ? "0\n" : "100\n");
  EXPECT_THROW(
      (void)IntensityCurve::from_csv(write_csv("zero.csv", zero_body)),
      ParseError);
  std::string negative_body;
  for (int h = 0; h < 24; ++h) negative_body += (h == 7 ? "-5\n" : "100\n");
  EXPECT_THROW(
      (void)IntensityCurve::from_csv(write_csv("neg.csv", negative_body)),
      ParseError);
  // strtod accepts "inf": an infinite hour must not load as a curve with
  // max() = mean() = inf.
  std::string inf_body;
  for (int h = 0; h < 24; ++h) inf_body += (h == 7 ? "inf\n" : "100\n");
  EXPECT_THROW(
      (void)IntensityCurve::from_csv(write_csv("inf.csv", inf_body)),
      ParseError);
  std::string inf_pairs = "hour,g\n0,inf\n";
  for (int h = 1; h < 24; ++h) inf_pairs += std::to_string(h) + ",100\n";
  EXPECT_THROW(
      (void)IntensityCurve::from_csv(write_csv("inf_pairs.csv", inf_pairs)),
      ParseError);
}

TEST_F(FromCsvTest, RejectsMalformedRows) {
  // Garbage in the middle of the data is a parse error — only the first
  // row may be a header.
  std::string body;
  for (int h = 0; h < 24; ++h) {
    body += (h == 12 ? "twelve\n" : std::to_string(100 + h) + "\n");
  }
  EXPECT_THROW(
      (void)IntensityCurve::from_csv(write_csv("garbage.csv", body)),
      ParseError);

  std::string dup = "hour,g\n";
  for (int h = 0; h < 24; ++h) {
    dup += std::to_string(h == 23 ? 0 : h) + ",100\n";  // hour 0 twice
  }
  EXPECT_THROW((void)IntensityCurve::from_csv(write_csv("dup.csv", dup)),
               ParseError);

  std::string range = "hour,g\n";
  for (int h = 0; h < 24; ++h) {
    range += std::to_string(h == 5 ? 24 : h) + ",100\n";  // hour 24
  }
  EXPECT_THROW(
      (void)IntensityCurve::from_csv(write_csv("range.csv", range)),
      ParseError);
}

TEST_F(FromCsvTest, MissingFileThrowsIoError) {
  EXPECT_THROW((void)IntensityCurve::from_csv(
                   "/nonexistent/intensity_curve_missing.csv"),
               IoError);
}

}  // namespace
}  // namespace cl
