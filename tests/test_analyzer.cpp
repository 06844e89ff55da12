// Tests for core/analyzer.h — the theory+simulation facade.
#include "core/analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/pipeline.h"
#include "trace/filter.h"
#include "trace/synthetic.h"
#include "util/error.h"

namespace cl {
namespace {

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

Trace month_trace() {
  TraceConfig tc;
  tc.days = 5;
  tc.users = 4000;
  tc.exemplar_views = {40000, 4000};
  tc.catalogue_tail = 300;
  tc.tail_views = 20000;
  return TraceGenerator(tc, metro()).generate();
}

TEST(Analyzer, DefaultsToBothPaperModels) {
  const Analyzer analyzer(metro(), SimConfig{});
  ASSERT_EQ(analyzer.models().size(), 2u);
  EXPECT_EQ(analyzer.models()[0].name, "Valancius");
  EXPECT_EQ(analyzer.models()[1].name, "Baliga");
}

TEST(Analyzer, RejectsEmptyModelList) {
  EXPECT_THROW(Analyzer(metro(), SimConfig{}, {}), InvalidArgument);
}

TEST(Analyzer, SwarmExperimentSimTracksTheory) {
  const Trace trace = month_trace();
  const Analyzer analyzer(metro(), SimConfig{});
  const Trace popular = filter_by_isp(filter_by_content(trace, 0), 0);
  const auto e = analyzer.analyze_swarm(TraceView::from_trace(popular), 0);
  EXPECT_GT(e.capacity, 0.5);
  ASSERT_EQ(e.models.size(), 2u);
  for (const auto& m : e.models) {
    EXPECT_GT(m.sim_savings, 0.0);
    // Theory at the *whole-content* capacity overshoots the bitrate-split
    // simulation; they must still be in the same ballpark.
    EXPECT_NEAR(m.sim_savings, m.theory_savings, 0.5 * m.theory_savings + 0.02);
    EXPECT_GT(m.theory_offload, m.sim_offload - 0.05);
  }
}

TEST(Analyzer, SwarmExperimentPerBitrateAgreesTightly) {
  const Trace trace = month_trace();
  const Analyzer analyzer(metro(), SimConfig{});
  const Trace swarm = filter_by_bitrate(
      filter_by_isp(filter_by_content(trace, 0), 0), BitrateClass::kSd);
  const auto e = analyzer.analyze_swarm(TraceView::from_trace(swarm), 0);
  for (const auto& m : e.models) {
    // Per-(content, ISP, bitrate) swarms are the theory's exact object;
    // diurnal rate variation keeps residual gaps of a few points.
    EXPECT_NEAR(m.sim_savings, m.theory_savings, 0.06) << m.model;
    EXPECT_NEAR(m.sim_offload, m.theory_offload, 0.08) << m.model;
  }
}

TEST(Analyzer, DailyReportShapes) {
  const Trace trace = month_trace();
  const Analyzer analyzer(metro(), SimConfig{});
  const auto report = analyzer.daily_report(TraceView::from_trace(trace));
  ASSERT_EQ(report.models.size(), 2u);
  ASSERT_EQ(report.sim.size(), 2u);
  ASSERT_EQ(report.theory.size(), 2u);
  ASSERT_EQ(report.sim[0].size(), 5u);     // days
  ASSERT_EQ(report.sim[0][0].size(), 5u);  // isps
  ASSERT_EQ(report.theory[0].size(), 5u);
}

TEST(Analyzer, DailyReportSimTracksTheoryForBigIsp) {
  const Trace trace = month_trace();
  const Analyzer analyzer(metro(), SimConfig{});
  const auto report = analyzer.daily_report(TraceView::from_trace(trace));
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t d = 0; d < report.sim[m].size(); ++d) {
      const double sim = report.sim[m][d][0];
      const double theory = report.theory[m][d][0];
      EXPECT_GT(sim, 0.0);
      EXPECT_NEAR(sim, theory, 0.12) << "model " << m << " day " << d;
    }
  }
}

TEST(Analyzer, SwarmDistributionsCoverCatalogue) {
  // Fig. 3's samples: one capacity per swarm row of the run, and each
  // row priced under every energy model.
  const Trace trace = month_trace();
  const Analyzer analyzer(metro(), SimConfig{});
  const SimResult result = HybridSimulator(metro(), analyzer.sim_config())
                               .run(TraceView::from_trace(trace));
  std::vector<double> capacities;
  for (const SwarmResult& swarm : result.swarms) {
    capacities.push_back(swarm.capacity);
  }
  std::vector<std::vector<double>> savings;
  for (const EnergyParams& params : analyzer.models()) {
    const EnergyAccountant accountant{CostFunctions(params)};
    savings.emplace_back();
    for (const SwarmResult& swarm : result.swarms) {
      savings.back().push_back(swarm_savings(swarm, accountant));
    }
  }
  EXPECT_GT(capacities.size(), 100u);
  ASSERT_EQ(savings.size(), 2u);
  EXPECT_EQ(savings[0].size(), capacities.size());
  // Popular swarms exist alongside a long tail of tiny ones.
  const auto [min_it, max_it] =
      std::minmax_element(capacities.begin(), capacities.end());
  EXPECT_LT(*min_it, 0.05);
  EXPECT_GT(*max_it, 0.5);
}

TEST(Analyzer, AggregateHeadlineNumbers) {
  const Trace trace = month_trace();
  const Analyzer analyzer(metro(), SimConfig{});
  const auto outcomes =
      run_simulate(analyzer, TraceView::from_trace(trace), nullptr, false)
          .aggregate;
  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& o : outcomes) {
    EXPECT_GT(o.sim_savings, 0.0);
    EXPECT_LT(o.sim_savings, 0.6);
    EXPECT_GT(o.offload, 0.0);
    EXPECT_LT(o.hybrid_energy.value(), o.baseline_energy.value());
    // Savings identity: S = 1 − hybrid/baseline.
    EXPECT_NEAR(o.sim_savings,
                1.0 - o.hybrid_energy.value() / o.baseline_energy.value(),
                1e-9);
    EXPECT_NEAR(o.sim_savings, o.theory_savings, 0.10);
  }
  // Valancius reports larger relative savings than Baliga (paper Fig. 4).
  EXPECT_GT(outcomes[0].sim_savings, outcomes[1].sim_savings);
}

TEST(Analyzer, SavingsModelAccessor) {
  const Analyzer analyzer(metro(), SimConfig{});
  const auto model = analyzer.savings_model(0, 0);
  EXPECT_EQ(model.params().name, "Valancius");
  EXPECT_THROW(analyzer.savings_model(5, 0), InvalidArgument);
}

}  // namespace
}  // namespace cl
