// Tests for src/carbon/ — the grid carbon-intensity subsystem: the
// IntensityCurve presets and registry, the CarbonAccountant's hourly
// gCO₂ weighting, and the backward-compatibility contract that a flat
// curve reproduces the unweighted energy results.
#include "carbon/carbon_accountant.h"
#include "carbon/intensity_curve.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "core/pipeline.h"
#include "sim/hybrid_sim.h"
#include "trace/synthetic.h"
#include "util/error.h"

namespace cl {
namespace {

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

IntensityCurve two_level_curve(double low, double high,
                               std::size_t high_hour) {
  std::array<double, 24> hours{};
  hours.fill(low);
  hours[high_hour] = high;
  return IntensityCurve("two_level", hours);
}

TEST(IntensityCurve, RejectsNonPositiveHours) {
  std::array<double, 24> hours{};
  hours.fill(100.0);
  hours[7] = 0.0;
  EXPECT_THROW(IntensityCurve("bad", hours), InvalidArgument);
  hours[7] = -5.0;
  EXPECT_THROW(IntensityCurve("bad", hours), InvalidArgument);
  hours[7] = HUGE_VAL;
  EXPECT_THROW(IntensityCurve("bad", hours), InvalidArgument);
  hours[7] = NAN;
  EXPECT_THROW(IntensityCurve("bad", hours), InvalidArgument);
}

TEST(IntensityCurve, WrapsHourOfDay) {
  const IntensityCurve curve = two_level_curve(100.0, 400.0, 5);
  EXPECT_DOUBLE_EQ(curve.at_hour(5), 400.0);
  EXPECT_DOUBLE_EQ(curve.at_hour(29), 400.0);    // day 1, hour 5
  EXPECT_DOUBLE_EQ(curve.at_hour(24 * 7 + 5), 400.0);
  EXPECT_DOUBLE_EQ(curve.at_hour(6), 100.0);
}

TEST(IntensityCurve, SummaryStatistics) {
  const IntensityCurve curve = two_level_curve(100.0, 400.0, 0);
  EXPECT_DOUBLE_EQ(curve.min(), 100.0);
  EXPECT_DOUBLE_EQ(curve.max(), 400.0);
  EXPECT_NEAR(curve.mean(), (23 * 100.0 + 400.0) / 24.0, 1e-12);
  EXPECT_FALSE(curve.is_flat());
  const IntensityCurve flat = IntensityCurve::constant("c", 250.0);
  EXPECT_TRUE(flat.is_flat());
  EXPECT_DOUBLE_EQ(flat.mean(), 250.0);
}

TEST(IntensityCurve, GramsWeighEnergyByHour) {
  const IntensityCurve curve = two_level_curve(100.0, 400.0, 3);
  const Energy one_kwh{3.6e15};
  EXPECT_NEAR(curve.grams(one_kwh, 0), 100.0, 1e-9);
  EXPECT_NEAR(curve.grams(one_kwh, 3), 400.0, 1e-9);
  EXPECT_NEAR(curve.grams(one_kwh * 2.0, 27), 800.0, 1e-9);
}

TEST(IntensityRegistry, FlatIsFirstAndAllPresetsResolve) {
  const IntensityRegistry& registry = IntensityRegistry::instance();
  const auto names = registry.names();
  ASSERT_GE(names.size(), 4u);
  EXPECT_EQ(names[0], kFlatIntensityName);
  for (const char* name : {"flat", "uk_2018", "us_caiso", "nordic_hydro"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_EQ(registry.get(name).name(), name);
  }
  EXPECT_TRUE(registry.get(kFlatIntensityName).is_flat());
  EXPECT_FALSE(registry.get("uk_2018").is_flat());
}

TEST(IntensityRegistry, UnknownNameThrowsListingPresets) {
  const IntensityRegistry& registry = IntensityRegistry::instance();
  EXPECT_EQ(registry.find("vacuum"), nullptr);
  try {
    (void)registry.get("vacuum");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("uk_2018"), std::string::npos);
    EXPECT_NE(what.find("flat"), std::string::npos);
  }
}

TEST(IntensityRegistry, MetroPairings) {
  const IntensityRegistry& registry = IntensityRegistry::instance();
  EXPECT_EQ(registry.default_for_metro("london_top5").name(), "uk_2018");
  EXPECT_EQ(registry.default_for_metro("us_sparse").name(), "us_caiso");
  EXPECT_EQ(registry.default_for_metro("fiber_dense").name(),
            "nordic_hydro");
  // Every registered metro must be paired (checked at registry
  // construction); unpaired names fail loudly instead of silently
  // falling back to a flat grid.
  EXPECT_THROW((void)registry.default_for_metro("atlantis"),
               InvalidArgument);
}

TEST(IntensityRegistry, CurveShapesMatchTheirStories) {
  const IntensityRegistry& registry = IntensityRegistry::instance();
  // UK 2018: evening peak, overnight trough.
  const auto& uk = registry.get("uk_2018").hours();
  EXPECT_GT(uk[19], uk[4]);
  // CAISO duck curve: midday solar trough below both the morning and the
  // evening ramp.
  const auto& caiso = registry.get("us_caiso").hours();
  EXPECT_LT(caiso[12], caiso[6]);
  EXPECT_LT(caiso[12], caiso[19]);
  // Hydro grid: an order of magnitude cleaner than the UK mean.
  EXPECT_LT(registry.get("nordic_hydro").mean() * 4,
            registry.get("uk_2018").mean());
}

TEST(CarbonAccountant, WeightsHoursIndependently) {
  // Identical traffic in a cheap hour and an expensive hour: grams follow
  // the curve, the unweighted energy is hour-blind.
  const EnergyAccountant energy{CostFunctions(valancius_params())};
  TrafficBreakdown t;
  t.server = Bits{4e9};
  t.peer[0] = Bits{1e9};
  HourlyTrafficGrid hourly(24, std::vector<TrafficBreakdown>(1));
  hourly[2][0] = t;
  hourly[19][0] = t;

  const IntensityCurve curve = two_level_curve(100.0, 400.0, 19);
  const CarbonAccountant accountant{energy, curve};
  const double expected_hybrid =
      100.0 * energy.hybrid(t).total().kwh() +
      400.0 * energy.hybrid(t).total().kwh();
  const double expected_baseline =
      100.0 * energy.baseline(t.total()).total().kwh() +
      400.0 * energy.baseline(t.total()).total().kwh();
  EXPECT_NEAR(accountant.hybrid_grams(hourly), expected_hybrid, 1e-9);
  EXPECT_NEAR(accountant.baseline_grams(hourly), expected_baseline, 1e-9);
}

TEST(CarbonAccountant, EmptyGridIsZero) {
  const CarbonAccountant accountant{
      EnergyAccountant{CostFunctions(baliga_params())},
      IntensityRegistry::instance().get(kFlatIntensityName)};
  const HourlyTrafficGrid empty;
  EXPECT_DOUBLE_EQ(accountant.hybrid_grams(empty), 0.0);
  EXPECT_DOUBLE_EQ(accountant.baseline_grams(empty), 0.0);
  EXPECT_DOUBLE_EQ(accountant.carbon_savings(empty), 0.0);
  EXPECT_TRUE(accountant.daily_carbon_savings(empty).empty());
}

TEST(CarbonAccountant, DailyBandsGroupTwentyFourHourRows) {
  const EnergyAccountant energy{CostFunctions(valancius_params())};
  TrafficBreakdown t;
  t.server = Bits{1e9};
  HourlyTrafficGrid hourly(30, std::vector<TrafficBreakdown>(1));
  for (auto& row : hourly) row[0] = t;
  const CarbonAccountant accountant{
      energy, IntensityCurve::constant("c", 200.0)};
  const auto daily = accountant.daily_carbon_savings(hourly);
  ASSERT_EQ(daily.size(), 2u);  // 24-hour day + 6-hour partial day
  // All-server traffic: hybrid == baseline, savings 0 both days.
  EXPECT_DOUBLE_EQ(daily[0], 0.0);
  EXPECT_DOUBLE_EQ(daily[1], 0.0);
}

TEST(CarbonAccountant, FlatCurveReproducesEnergySavings) {
  // The core backward-compatibility pin at the library level: under the
  // flat preset, carbon savings equal the unweighted energy savings on
  // the same simulated month (Fig. 4's quantity), and the absolute grams
  // are the kWh totals times the constant.
  TraceConfig tc;
  tc.days = 2;
  tc.users = 1500;
  tc.exemplar_views = {15000};
  tc.catalogue_tail = 80;
  tc.tail_views = 4000;
  const Trace trace = TraceGenerator(tc, metro()).generate();
  const SimResult result =
      HybridSimulator(metro(), SimConfig{}).run(TraceView::from_trace(trace));
  const auto& flat = IntensityRegistry::instance().get(kFlatIntensityName);

  for (const auto& params : standard_params()) {
    const EnergyAccountant energy{CostFunctions(params)};
    const CarbonAccountant accountant{energy, flat};
    const CarbonOutcome outcome = accountant.assess(result.hourly);
    EXPECT_NEAR(outcome.carbon_savings, outcome.energy_savings, 1e-12)
        << params.name;
    EXPECT_NEAR(outcome.carbon_savings, energy.savings(result.total), 1e-9)
        << params.name;
    EXPECT_GT(outcome.saved_g, 0.0);
  }
}

TEST(CarbonAccountant, DiurnalCurveDivergesFromFlatOnDiurnalDemand) {
  // The generator's evening-peaked demand concentrates traffic where
  // uk_2018 / us_caiso are far from their means, so the carbon savings
  // and absolute grams must differ measurably from the flat weighting.
  TraceConfig tc;
  tc.days = 2;
  tc.users = 1500;
  tc.exemplar_views = {15000};
  tc.catalogue_tail = 80;
  tc.tail_views = 4000;
  const Trace trace = TraceGenerator(tc, metro()).generate();
  const SimResult result =
      HybridSimulator(metro(), SimConfig{}).run(TraceView::from_trace(trace));

  const auto& registry = IntensityRegistry::instance();
  const EnergyAccountant energy{CostFunctions(valancius_params())};
  const CarbonAccountant flat{energy, registry.get(kFlatIntensityName)};
  const CarbonAccountant uk{energy, registry.get("uk_2018")};
  const double flat_hybrid = flat.hybrid_grams(result.hourly);
  const double uk_hybrid = uk.hybrid_grams(result.hourly);
  // Evening-peaked demand on an evening-peaked curve: per-kWh carbon
  // above the flat preset's 250 even beyond the uk mean's excess.
  EXPECT_GT(std::abs(uk_hybrid - flat_hybrid) / flat_hybrid, 0.01);
  // And the savings *fraction* shifts too (intensity reweights hours).
  EXPECT_NE(uk.carbon_savings(result.hourly),
            flat.carbon_savings(result.hourly));
}

TEST(CarbonAccountant, ReportOverloadsRejectMissingCollection) {
  // The SimResult overloads must fail loudly, not report zeros, when
  // the required collection toggle was off.
  TraceConfig tc;
  tc.days = 1;
  tc.users = 300;
  tc.exemplar_views = {3000};
  tc.catalogue_tail = 20;
  tc.tail_views = 1000;
  const Trace trace = TraceGenerator(tc, metro()).generate();
  SimConfig lean;
  lean.collect_hourly = false;
  lean.collect_swarms = false;
  const SimResult result =
      HybridSimulator(metro(), lean).run(TraceView::from_trace(trace));
  ASSERT_GT(result.total.total().value(), 0.0);

  const Analyzer analyzer(metro(), lean);
  const auto& flat = IntensityRegistry::instance().get(kFlatIntensityName);
  EXPECT_THROW((void)analyzer.carbon_report(result, flat), InvalidArgument);
  EXPECT_THROW((void)analyzer.aggregate(result), InvalidArgument);
  // A genuinely empty trace is legitimately all-zero, not an error.
  const Trace empty{{}, Seconds{86400.0}, {}, {}};
  const SimResult empty_result =
      HybridSimulator(metro(), SimConfig{}).run(TraceView::from_trace(empty));
  EXPECT_NO_THROW((void)analyzer.aggregate(empty_result));
}

TEST(CarbonAccountant, CarbonReportBitIdenticalAcrossThreadCounts) {
  // The hourly grid inherits the simulator's determinism contract, so
  // every derived gram figure is bit-identical at any --threads value.
  TraceConfig tc;
  tc.days = 2;
  tc.users = 1200;
  tc.exemplar_views = {8000};
  tc.catalogue_tail = 60;
  tc.tail_views = 4000;
  tc.threads = 0;
  const TraceView view =
      TraceView::from_trace(TraceGenerator(tc, metro()).generate());
  const auto& curve = IntensityRegistry::instance().get("uk_2018");

  SimConfig base;
  base.threads = 1;
  const auto reference =
      run_simulate(Analyzer(metro(), base), view, &curve, false).carbon;
  for (unsigned threads : {2u, 7u, 0u}) {
    SimConfig config;
    config.threads = threads;
    const auto report =
        run_simulate(Analyzer(metro(), config), view, &curve, false).carbon;
    ASSERT_EQ(report.size(), reference.size());
    for (std::size_t m = 0; m < report.size(); ++m) {
      EXPECT_EQ(report[m].hybrid_g, reference[m].hybrid_g);
      EXPECT_EQ(report[m].baseline_g, reference[m].baseline_g);
      EXPECT_EQ(report[m].carbon_savings, reference[m].carbon_savings);
      EXPECT_EQ(report[m].energy_savings, reference[m].energy_savings);
    }
  }
}

}  // namespace
}  // namespace cl
