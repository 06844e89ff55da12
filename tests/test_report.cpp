// Tests for core/report.h — the shared report renderers.
#include "core/report.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/carbon_ledger.h"
#include "core/pipeline.h"
#include "trace/synthetic.h"

namespace cl {
namespace {

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

Trace tiny_trace() {
  TraceConfig config;
  config.days = 1;
  config.users = 500;
  config.exemplar_views = {30000};
  config.catalogue_tail = 20;
  config.tail_views = 2000;
  return TraceGenerator(config, metro()).generate();
}

TEST(Report, TraceStatsContainsAllRows) {
  const Trace trace = tiny_trace();
  std::ostringstream out;
  print_trace_stats(std::cout ? out : out, compute_stats(trace), trace.span);
  const std::string text = out.str();
  for (const char* needle :
       {"sessions", "distinct users", "distinct IP addresses",
        "total volume (GB)", "mean concurrency"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(Report, SwarmExperimentShowsBothModels) {
  const Trace trace = tiny_trace();
  const Analyzer analyzer(metro(), SimConfig{});
  std::ostringstream out;
  print_swarm_experiment(
      std::cout ? out : out,
      analyzer.analyze_swarm(TraceView::from_trace(trace), 0));
  const std::string text = out.str();
  EXPECT_NE(text.find("Valancius"), std::string::npos);
  EXPECT_NE(text.find("Baliga"), std::string::npos);
  EXPECT_NE(text.find("S (theory)"), std::string::npos);
}

TEST(Report, AggregateShowsEnergyColumns) {
  const Trace trace = tiny_trace();
  const Analyzer analyzer(metro(), SimConfig{});
  const SimulateRun run =
      run_simulate(analyzer, TraceView::from_trace(trace), nullptr, false);
  std::ostringstream out;
  print_aggregate(out, run.aggregate);
  const std::string text = out.str();
  EXPECT_NE(text.find("baseline (kWh)"), std::string::npos);
  EXPECT_NE(text.find("hybrid (kWh)"), std::string::npos);
  EXPECT_NE(text.find("%"), std::string::npos);
}

TEST(Report, LedgerSummaryShowsHeadline) {
  const Trace trace = tiny_trace();
  const Analyzer analyzer(metro(), SimConfig{});
  const SimResult result = HybridSimulator(metro(), analyzer.sim_config())
                               .run(TraceView::from_trace(trace));
  const CarbonLedger ledger(result, baliga_params());
  std::ostringstream out;
  print_ledger_summary(out, ledger);
  const std::string text = out.str();
  EXPECT_NE(text.find("carbon-free users"), std::string::npos);
  EXPECT_NE(text.find("Baliga"), std::string::npos);
  EXPECT_NE(text.find("system CCT"), std::string::npos);
}

}  // namespace
}  // namespace cl
