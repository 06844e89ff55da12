// test_perfbench.cpp — the benchmark's own test: every workload at a
// tiny scale, traced and untraced, and the output check rejecting a
// one-ulp lane change, a wrong `.cltrace` hash and a thrown exception.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

RunConfig tiny_config(const std::string& workload, bool trace) {
  RunConfig config;
  config.workload = workload;
  config.params.seed = 7;
  config.params.scale = Scale::tiny();
  config.params.work_dir = PERFBENCH_WORK;
  config.params.spec_path = PERFBENCH_SPEC;
  config.seconds = 0.01;
  config.trace = trace;
  config.threads = 2;
  config.setups = 1;
  std::filesystem::create_directories(config.params.work_dir);
  return config;
}

double metric(const RunReport& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "missing metric " << name;
  return 0;
}

/// A set-up workload plus its 1-thread reference.
struct Ready {
  std::unique_ptr<Workload> workload;
  Output reference;
};

Ready ready(const std::string& name) {
  const RunConfig config = tiny_config(name, false);
  Ready r{make_workload(name, config.params), {}};
  Context ctx;
  ctx.threads = 2;
  r.workload->prepare(ctx);
  Context one;
  r.reference = r.workload->iterate(one);
  if (!r.reference.file.empty()) {
    r.reference.file_hash = hash_file(r.reference.file);
  }
  return r;
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryWorkload, UntracedRunPassesItsCheck) {
  const RunReport report = run_benchmark(tiny_config(GetParam(), false));
  EXPECT_TRUE(report.correct);
  EXPECT_EQ(report.failed, 0);
  EXPECT_GE(report.attempted, 3);
  ASSERT_EQ(report.metrics.size(), 4u);
  EXPECT_GT(metric(report, "pipeline_s"), 0);
  EXPECT_GE(metric(report, "pipeline_tail_s"), metric(report, "pipeline_s"));
  EXPECT_GT(metric(report, "setup_s"), 0);
  EXPECT_GT(metric(report, "peak_rss_mb"), 0);
}

TEST_P(EveryWorkload, TracedRunReportsEveryLayerMetric) {
  const RunReport report = run_benchmark(tiny_config(GetParam(), true));
  EXPECT_TRUE(report.correct);
  ASSERT_EQ(report.metrics.size(), per_layer_metrics().size());
  // spec_matrix simulates inside run_cell, so its sim time is cell time.
  EXPECT_GT(metric(report, "sim.run_s") + metric(report, "experiment.cell_max_s"),
            0);
  EXPECT_GT(metric(report, "trace.sessions"), 0);
  EXPECT_GT(metric(report, "bench.layer_share"), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Tiny, EveryWorkload,
                         ::testing::ValuesIn(workload_names()));

TEST(SpecMatrix, TimesCellsAndProbesTheCallsInsideRunCell) {
  const RunReport report = run_benchmark(tiny_config("spec_matrix", true));
  EXPECT_GT(metric(report, "experiment.cell_p50_s"), 0);
  EXPECT_GE(metric(report, "experiment.cell_max_s"),
            metric(report, "experiment.cell_p50_s"));
  EXPECT_GT(metric(report, "experiment.scaling"), 0);
  EXPECT_GT(metric(report, "ext.edge_cache_s"), 0);
  EXPECT_GT(metric(report, "carbon.preload_s"), 0);
  EXPECT_GT(metric(report, "carbon.route_s"), 0);
  // Generation and simulation run inside run_cell: their time is cell time.
  EXPECT_EQ(metric(report, "trace.generate_s"), 0);
  EXPECT_EQ(metric(report, "sim.run_s"), 0);
}

TEST(Check, IterationMatchingTheReferencePasses) {
  Ready r = ready("paper_replay");
  Output again = r.workload->iterate(Context{2, {}, nullptr});
  EXPECT_TRUE(check_output(again, r.reference, r.workload->bands()).empty());
}

TEST(Check, RejectsOneUlpOnATotalLane) {
  Ready r = ready("flash_ledger");
  Output got = r.reference;
  cl::Bits& lane = got.sims[0].second.total.peer[1];
  lane = cl::Bits{std::nextafter(lane.value(), 1e300)};
  EXPECT_FALSE(check_output(got, r.reference, {}).empty());
}

TEST(Check, RejectsOneUlpOnAnHourlyLane) {
  Ready r = ready("paper_replay");
  Output got = r.reference;
  auto& hourly = got.sims[0].second.hourly;
  ASSERT_FALSE(hourly.empty());
  cl::Bits& lane = hourly[0][0].server;
  lane = cl::Bits{std::nextafter(lane.value(), 1e300)};
  EXPECT_FALSE(check_output(got, r.reference, {}).empty());
}

TEST(Check, RejectsOneUlpOnAnAggregateSaving) {
  Ready r = ready("paper_replay");
  Output got = r.reference;
  got.values[0].second = std::nextafter(got.values[0].second, 1.0);
  EXPECT_FALSE(check_output(got, r.reference, {}).empty());
}

TEST(Check, RejectsSavingsOutsideTheBand) {
  Ready r = ready("paper_replay");
  Output got = r.reference;
  EXPECT_FALSE(
      check_output(got, r.reference, {{"savings.Valancius", 0.5, 0.6}})
          .empty());
}

TEST(Check, RejectsAWrongCltraceHash) {
  Ready r = ready("paper_generate");
  ASSERT_FALSE(r.reference.file.empty());
  Output got = r.reference;
  EXPECT_TRUE(check_output(got, r.reference, {}).empty());
  Output wrong_reference = r.reference;
  wrong_reference.file_hash ^= 1;
  EXPECT_FALSE(check_output(got, wrong_reference, {}).empty());
}

class Throws final : public Workload {
 public:
  void prepare(const Context&) override {}
  Output iterate(const Context&) override {
    throw std::runtime_error("boom");
  }
};

TEST(Check, AThrownExceptionFailsTheIteration) {
  Throws workload;
  const IterationResult result = run_iteration(workload, Context{}, Output{});
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_NE(result.failures[0].find("boom"), std::string::npos);
}

TEST(Stats, TailHasTenSamplesBeyondIt) {
  std::vector<double> samples;
  for (int i = 1; i <= 40; ++i) samples.push_back(i);
  const Tail t = tail(samples);
  EXPECT_EQ(t.value, 30);  // 31..40 lie beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 75);
  EXPECT_EQ(tail({3, 1, 2}).value, 3);  // too few: the maximum
  samples.resize(20);
  EXPECT_EQ(tail(samples).value, 20);  // 10 beyond would be under the median
  samples.push_back(21);
  EXPECT_EQ(tail(samples).value, 11);  // 12..21 lie beyond it
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(PeakMemory, ResetForgetsAnEarlierPeak) {
  {
    std::vector<char> big(256u << 20, 1);
    ASSERT_EQ(big[12345], 1);
  }
  const double before = peak_rss_mb();
  ASSERT_GT(before, 200);
  if (!reset_peak_rss()) GTEST_SKIP() << "kernel refuses clear_refs";
  EXPECT_LT(peak_rss_mb(), before - 200);
}

TEST(Tracer, SelfTimeSubtractsChildrenOnce) {
  EXPECT_DOUBLE_EQ(covered_seconds({{0, 2}, {1, 3}, {5, 6}}), 4);
  EXPECT_DOUBLE_EQ(covered_seconds({{0, 1}, {0.25, 0.5}}), 1);
}

}  // namespace
}  // namespace perfbench
