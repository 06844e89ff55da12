// Tests for sim/queue_sim.h — the M/M/∞ / M/G/∞ queue substrate that
// validates the analytical model's core stochastic assumption.
#include "sim/queue_sim.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "fnv1a.h"
#include "model/swarm_model.h"
#include "util/error.h"

namespace cl {
namespace {

TEST(QueueSim, TimeAverageOccupancyIsLittlesLaw) {
  // c = r·u = 0.01 * 400 = 4.
  const auto sim = QueueSimulator::mm_infinity(0.01, Seconds{400});
  const auto result = sim.run(Seconds{2e6}, 42);
  EXPECT_NEAR(result.time_average_occupancy, 4.0, 0.15);
}

TEST(QueueSim, BusyProbabilityMatchesModel) {
  const double c = 1.5;
  const auto sim = QueueSimulator::mm_infinity(c / 300.0, Seconds{300});
  const auto result = sim.run(Seconds{2e6}, 7);
  EXPECT_NEAR(result.p_busy, SwarmModel(c).p_online(), 0.02);
  EXPECT_NEAR(result.p_empty + result.p_busy, 1.0, 1e-12);
}

TEST(QueueSim, OccupancyIsPoisson) {
  const double c = 3.0;
  const auto sim = QueueSimulator::mm_infinity(c / 100.0, Seconds{100});
  const auto result = sim.run(Seconds{3e6}, 11);
  const SwarmModel model(c);
  for (unsigned l = 0; l < 8; ++l) {
    ASSERT_LT(l, result.occupancy_pmf.size());
    EXPECT_NEAR(result.occupancy_pmf[l], model.occupancy_pmf(l), 0.015)
        << "l=" << l;
  }
}

TEST(QueueSim, ExpectedExcessMatchesClosedForm) {
  for (double c : {0.5, 2.0, 8.0}) {
    const auto sim = QueueSimulator::mm_infinity(c / 200.0, Seconds{200});
    const auto result = sim.run(Seconds{2e6}, 13);
    EXPECT_NEAR(result.expected_excess, expected_excess(c),
                0.05 * (expected_excess(c) + 0.1))
        << "c=" << c;
  }
}

TEST(QueueSim, InsensitivityToServiceDistribution) {
  // M/D/∞ has the same Poisson occupancy as M/M/∞ (the property that lets
  // the paper use Little's law on non-exponential watch times).
  const double c = 2.5;
  const auto md = QueueSimulator::md_infinity(c / 150.0, Seconds{150});
  const auto result = md.run(Seconds{2e6}, 17);
  EXPECT_NEAR(result.time_average_occupancy, c, 0.1);
  const SwarmModel model(c);
  EXPECT_NEAR(result.p_empty, model.occupancy_pmf(0), 0.01);
  EXPECT_NEAR(result.expected_excess, expected_excess(c), 0.08);
}

TEST(QueueSim, PmfSumsToOne) {
  const auto sim = QueueSimulator::mm_infinity(0.02, Seconds{100});
  const auto result = sim.run(Seconds{1e6}, 19);
  double sum = 0;
  for (double p : result.occupancy_pmf) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(QueueSim, ArrivalCountMatchesRate) {
  const auto sim = QueueSimulator::mm_infinity(0.05, Seconds{10});
  const auto result = sim.run(Seconds{1e6}, 23);
  EXPECT_NEAR(static_cast<double>(result.arrivals), 0.05 * 1e6,
              3.0 * std::sqrt(0.05 * 1e6));
}

TEST(QueueSim, DeterministicInSeed) {
  const auto sim = QueueSimulator::mm_infinity(0.01, Seconds{100});
  const auto a = sim.run(Seconds{1e5}, 99);
  const auto b = sim.run(Seconds{1e5}, 99);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_DOUBLE_EQ(a.time_average_occupancy, b.time_average_occupancy);
}

std::uint64_t result_digest(const QueueSimResult& result) {
  std::string bytes;
  const auto append = [&bytes](auto value) {
    char raw[sizeof(value)];
    std::memcpy(raw, &value, sizeof(value));
    bytes.append(raw, sizeof(value));
  };
  append(result.arrivals);
  append(result.time_average_occupancy);
  for (const double p : result.occupancy_pmf) append(p);
  return test::fnv1a(bytes);
}

TEST(QueueSim, ConstantRateResultsPinned) {
  // Every bit of the constant-rate runs: the arrival stream is one
  // exponential gap per arrival, so a change to how the constant-rate
  // path draws its arrivals moves these digests.
  const auto mm = QueueSimulator::mm_infinity(0.01, Seconds{400});
  const auto mm_result = mm.run(Seconds{2e5}, 42);
  EXPECT_EQ(mm_result.arrivals, 1996u);
  EXPECT_EQ(result_digest(mm_result), 0xbb5ca66850341367ULL)
      << std::hex << result_digest(mm_result);
  const auto md = QueueSimulator::md_infinity(2.5 / 150.0, Seconds{150});
  const auto md_result = md.run(Seconds{2e5}, 17);
  EXPECT_EQ(md_result.arrivals, 3353u);
  EXPECT_EQ(result_digest(md_result), 0x89631734bec40f38ULL)
      << std::hex << result_digest(md_result);
}

TEST(QueueSim, RejectsInvalidConfig) {
  EXPECT_THROW(QueueSimulator::mm_infinity(0.0, Seconds{100}),
               InvalidArgument);
  EXPECT_THROW(QueueSimulator::mm_infinity(1.0, Seconds{0}), InvalidArgument);
  const auto sim = QueueSimulator::mm_infinity(1.0, Seconds{1});
  EXPECT_THROW(sim.run(Seconds{0}, 1), InvalidArgument);
}

}  // namespace
}  // namespace cl
