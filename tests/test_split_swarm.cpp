// Tests for model/split_swarm.h — the partitioned-swarm closed form.
#include "model/split_swarm.h"

#include <gtest/gtest.h>

#include "sim/hybrid_sim.h"
#include "trace/synthetic.h"
#include "util/error.h"

namespace cl {
namespace {

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

TEST(SplitSwarm, SingleSliceEqualsPlainModel) {
  const SplitSwarmModel split(valancius_params(), metro(), {{1.0, 0}});
  const SavingsModel plain(valancius_params(), metro().isp(0));
  for (double c : {0.5, 5.0, 50.0}) {
    EXPECT_NEAR(split.savings(c, 1.0), plain.savings(c, 1.0), 1e-12);
    EXPECT_NEAR(split.offload(c, 1.0), plain.offload(c, 1.0), 1e-12);
  }
}

TEST(SplitSwarm, WeightsNormalised) {
  // Weights 2:2 behave as 0.5:0.5.
  const SplitSwarmModel a(baliga_params(), metro(), {{2.0, 0}, {2.0, 0}});
  const SplitSwarmModel b(baliga_params(), metro(), {{0.5, 0}, {0.5, 0}});
  EXPECT_NEAR(a.savings(10.0, 1.0), b.savings(10.0, 1.0), 1e-12);
}

TEST(SplitSwarm, PartitioningNeverHelps) {
  // S(c) is concave increasing: splitting a swarm can only lose savings.
  const auto split = SplitSwarmModel::isp_bitrate_partition(
      valancius_params(), metro(), {0.08, 0.72, 0.15, 0.05});
  for (double c : {0.1, 1.0, 10.0, 100.0, 1000.0}) {
    EXPECT_LE(split.savings(c, 1.0), split.unsplit_savings(c, 1.0) + 1e-12)
        << "c=" << c;
  }
}

TEST(SplitSwarm, PenaltyVanishesAtLargeCapacity) {
  // Every slice saturates: the split system approaches the same ceiling.
  const auto split = SplitSwarmModel::isp_bitrate_partition(
      baliga_params(), metro(), {0.08, 0.72, 0.15, 0.05});
  EXPECT_GT(split.partition_penalty(1.0, 1.0), 0.2);
  EXPECT_LT(split.partition_penalty(1e6, 1.0), 0.05);
}

TEST(SplitSwarm, PenaltyGrowsWithFragmentation) {
  // An even 4-way bitrate split fragments more than a concentrated one.
  const auto concentrated = SplitSwarmModel::isp_bitrate_partition(
      valancius_params(), metro(), {0.02, 0.94, 0.02, 0.02});
  const auto even = SplitSwarmModel::isp_bitrate_partition(
      valancius_params(), metro(), {0.25, 0.25, 0.25, 0.25});
  EXPECT_GT(even.partition_penalty(10.0, 1.0),
            concentrated.partition_penalty(10.0, 1.0));
}

TEST(SplitSwarm, SliceCountMatchesNonZeroMix) {
  const auto split = SplitSwarmModel::isp_bitrate_partition(
      valancius_params(), metro(), {0.5, 0.5, 0.0, 0.0});
  EXPECT_EQ(split.slices().size(), metro().isp_count() * 2);
}

TEST(SplitSwarm, RejectsBadSlices) {
  EXPECT_THROW(SplitSwarmModel(valancius_params(), metro(), {}),
               InvalidArgument);
  EXPECT_THROW(SplitSwarmModel(valancius_params(), metro(), {{0.0, 0}}),
               InvalidArgument);
  EXPECT_THROW(SplitSwarmModel(valancius_params(), metro(), {{1.0, 99}}),
               InvalidArgument);
}

TEST(SplitSwarm, MatchesSimulatorOnPartitionedPoissonSwarm) {
  // The split closed form is the right theory for the bitrate-split,
  // ISP-friendly simulator: generate one content with the preset mix and
  // compare at the whole-item capacity.
  TraceConfig config;
  config.days = 10;
  config.users = 20000;
  config.exemplar_views = {60000};
  config.catalogue_tail = 1;
  config.tail_views = 1;
  config.bitrate_mix = {0.08, 0.72, 0.15, 0.05};
  for (auto& d : config.diurnal) d = 1.0;  // constant rate: model setting
  TraceGenerator gen(config, metro());
  const Trace trace = gen.generate_content(0);
  double watch = 0;
  for (const auto& s : trace.sessions) watch += s.duration;
  const double capacity = watch / trace.span.value();

  SimConfig sim_config;
  sim_config.collect_hourly = false;
  sim_config.collect_per_user = false;
  sim_config.collect_swarms = false;
  const auto result =
      HybridSimulator(metro(), sim_config).run(TraceView::from_trace(trace));
  for (const auto& params : standard_params()) {
    const auto split = SplitSwarmModel::isp_bitrate_partition(
        params, metro(), config.bitrate_mix);
    const EnergyAccountant accountant{CostFunctions(params)};
    EXPECT_NEAR(accountant.savings(result.total),
                split.savings(capacity, 1.0), 0.02)
        << params.name;
    EXPECT_NEAR(result.total.offload_fraction(), split.offload(capacity, 1.0),
                0.02);
  }
}

}  // namespace
}  // namespace cl
