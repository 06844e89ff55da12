// End-to-end integration tests: a scaled London month flows through the
// whole pipeline and must reproduce the *shape* of the paper's findings.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/analyzer.h"
#include "core/carbon_ledger.h"
#include "core/planner.h"
#include "trace/filter.h"
#include "trace/synthetic.h"
#include "trace/trace_io.h"
#include "trace/trace_stats.h"
#include "util/histogram.h"
#include "util/stats.h"

#include <sstream>

namespace cl {
namespace {

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

/// Fig. 3's per-swarm savings samples: each swarm row of a run priced
/// under one energy model.
std::vector<double> per_swarm_savings(const SimResult& result,
                                      const EnergyParams& params) {
  const EnergyAccountant accountant{CostFunctions(params)};
  std::vector<double> savings;
  savings.reserve(result.swarms.size());
  for (const SwarmResult& swarm : result.swarms) {
    savings.push_back(swarm_savings(swarm, accountant));
  }
  return savings;
}

// One scaled month shared by all tests in this file (generation + first
// simulation dominate the cost; do it once).
class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const TraceConfig tc = TraceConfig::london_month_scaled(/*days=*/6);
    generator_ = new TraceGenerator(tc, metro());
    trace_ = new Trace(generator_->generate());
    view_ = new TraceView(TraceView::from_trace(*trace_));
    analyzer_ = new Analyzer(metro(), SimConfig{});
    result_ = new SimResult(
        HybridSimulator(metro(), analyzer_->sim_config()).run(*view_));
  }

  static void TearDownTestSuite() {
    delete result_;
    delete analyzer_;
    delete view_;
    delete trace_;
    delete generator_;
    result_ = nullptr;
    analyzer_ = nullptr;
    view_ = nullptr;
    trace_ = nullptr;
    generator_ = nullptr;
  }

  static TraceGenerator* generator_;
  static Trace* trace_;
  static TraceView* view_;
  static Analyzer* analyzer_;
  static SimResult* result_;  ///< every collect flag on
};

TraceGenerator* IntegrationTest::generator_ = nullptr;
Trace* IntegrationTest::trace_ = nullptr;
TraceView* IntegrationTest::view_ = nullptr;
Analyzer* IntegrationTest::analyzer_ = nullptr;
SimResult* IntegrationTest::result_ = nullptr;

TEST_F(IntegrationTest, SystemSavingsInPaperBand) {
  // Paper headline: 24–48 % system-wide savings for the aggregate
  // workload; our scaled month must land in a compatible band, with
  // Valancius above Baliga.
  const EnergyAccountant valancius{CostFunctions(valancius_params())};
  const EnergyAccountant baliga{CostFunctions(baliga_params())};
  const double s_v = valancius.savings(result_->total);
  const double s_b = baliga.savings(result_->total);
  EXPECT_GT(s_v, 0.20);
  EXPECT_LT(s_v, 0.48);
  EXPECT_GT(s_b, 0.12);
  EXPECT_LT(s_b, 0.30);
  EXPECT_GT(s_v, s_b);
}

TEST_F(IntegrationTest, PopularItemDominatesSavings) {
  // Fig. 2/3: the popular exemplar saves a large multiple of the
  // unpopular one.
  const Analyzer& analyzer = *analyzer_;
  const Trace popular = filter_by_isp(filter_by_content(*trace_, 0), 0);
  const Trace unpopular = filter_by_isp(filter_by_content(*trace_, 2), 0);
  const auto e_pop = analyzer.analyze_swarm(TraceView::from_trace(popular), 0);
  const auto e_unpop =
      analyzer.analyze_swarm(TraceView::from_trace(unpopular), 0);
  EXPECT_GT(e_pop.models[0].sim_savings,
            3.0 * e_unpop.models[0].sim_savings);
  EXPECT_LT(e_unpop.models[0].sim_savings, 0.10);  // paper: < 10 %
}

TEST_F(IntegrationTest, MedianSwarmSavingsTiny) {
  // Fig. 3: median per-item savings ≈ 2 %, top items much larger.
  auto savings = per_swarm_savings(*result_, analyzer_->models()[0]);
  std::sort(savings.begin(), savings.end());
  const double median = quantile_sorted(savings, 0.5);
  EXPECT_LT(median, 0.10);
  EXPECT_GT(savings.back(), 0.20);
}

TEST_F(IntegrationTest, SwarmCapacityDistributionIsHeavyTailed) {
  std::vector<double> capacities;
  for (const SwarmResult& swarm : result_->swarms) {
    capacities.push_back(swarm.capacity);
  }
  const auto ccdf = empirical_ccdf(capacities);
  ASSERT_GT(ccdf.size(), 10u);
  // Most swarms are far below capacity 1; a head reaches past 5.
  std::size_t below_one = 0;
  for (double c : capacities) {
    if (c < 1.0) ++below_one;
  }
  EXPECT_GT(static_cast<double>(below_one) /
                static_cast<double>(capacities.size()),
            0.8);
  EXPECT_GT(*std::max_element(capacities.begin(), capacities.end()), 5.0);
}

TEST_F(IntegrationTest, CarbonLedgerOrderingMatchesFig6) {
  const CarbonLedger baliga(*result_, baliga_params());
  const CarbonLedger valancius(*result_, valancius_params());
  // Fig. 6: substantially more users carbon-free under Baliga than under
  // Valancius, and sharers who upload get CCT > -1.
  EXPECT_GT(baliga.fraction_carbon_free(),
            valancius.fraction_carbon_free() + 0.05);
  EXPECT_GT(baliga.fraction_carbon_free(), 0.3);
}

TEST_F(IntegrationTest, DailySeriesStable) {
  const auto report = analyzer_->daily_report(*view_);
  // Savings of the biggest ISP fluctuate day to day but stay in the band
  // of the paper's Fig. 4 (~0.25–0.35 for Valancius, ~0.14–0.22 Baliga).
  for (std::size_t d = 0; d < report.sim[0].size(); ++d) {
    EXPECT_GT(report.sim[0][d][0], 0.20);
    EXPECT_LT(report.sim[0][d][0], 0.38);
    EXPECT_GT(report.sim[1][d][0], 0.12);
    EXPECT_LT(report.sim[1][d][0], 0.26);
  }
}

TEST_F(IntegrationTest, TheoryUsableForPlanning) {
  // Closed form predicts the aggregate within ~8 points — the property
  // the paper argues makes Eq. 12 usable for planning.
  const auto outcomes = analyzer_->aggregate(*result_);
  for (const auto& o : outcomes) {
    EXPECT_NEAR(o.sim_savings, o.theory_savings, 0.08) << o.model;
  }
}

TEST_F(IntegrationTest, TraceSurvivesIoRoundTripThroughPipeline) {
  // Writing the trace out, reading it back and re-simulating must
  // reproduce identical energy numbers.
  std::ostringstream out;
  write_trace(out, *trace_);
  std::istringstream in(out.str());
  const Trace restored = read_trace(in);
  const auto rerun = HybridSimulator(metro(), analyzer_->sim_config())
                         .run(TraceView::from_trace(restored));
  EXPECT_NEAR(rerun.total.total().value(), result_->total.total().value(),
              result_->total.total().value() * 1e-9);
  EXPECT_NEAR(rerun.total.peer_total().value(),
              result_->total.peer_total().value(),
              result_->total.peer_total().value() * 1e-9);
}

TEST_F(IntegrationTest, TableOneScalesSanely) {
  const TraceStats stats = compute_stats(*trace_);
  EXPECT_GT(stats.distinct_users, 10000u);
  EXPECT_LT(stats.distinct_households, stats.distinct_users);
  EXPECT_GT(stats.sessions, 80000u);
  EXPECT_GT(stats.mean_session_duration.minutes(), 10.0);
  EXPECT_LT(stats.mean_session_duration.minutes(), 45.0);
}

TEST_F(IntegrationTest, UploadBandwidthSweepMatchesFig2Ordering) {
  // Savings increase monotonically with q/β on the popular item.
  const Trace popular = filter_by_isp(filter_by_content(*trace_, 0), 0);
  double prev = -1.0;
  for (double ratio : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    SimConfig config;
    config.q_over_beta = ratio;
    Analyzer analyzer(metro(), config);
    const auto e = analyzer.analyze_swarm(TraceView::from_trace(popular), 0);
    EXPECT_GT(e.models[0].sim_savings, prev);
    prev = e.models[0].sim_savings;
  }
}

TEST_F(IntegrationTest, IspFriendlinessCostsSavings) {
  // The paper treats ISP-friendly swarms as a lower bound: merging swarms
  // across ISPs can only raise the offload fraction.
  SimConfig cross;
  cross.isp_friendly = false;
  const auto merged = HybridSimulator(metro(), cross).run(*view_);
  EXPECT_GE(merged.total.offload_fraction(),
            result_->total.offload_fraction());
}

}  // namespace
}  // namespace cl
