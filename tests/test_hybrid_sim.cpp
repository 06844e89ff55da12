// Tests for sim/hybrid_sim.h — the discrete time-step simulator.
#include "sim/hybrid_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "model/savings.h"
#include "util/error.h"
#include "trace/synthetic.h"
#include "util/rng.h"

namespace cl {
namespace {

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

SessionRecord session(std::uint32_t user, std::uint32_t content, double start,
                      double duration, std::uint32_t isp = 0,
                      std::uint32_t exp = 0,
                      BitrateClass bitrate = BitrateClass::kSd) {
  SessionRecord s;
  s.user = user;
  s.household = user;
  s.content = content;
  s.isp = isp;
  s.exp = exp;
  s.bitrate = bitrate;
  s.start = start;
  s.duration = duration;
  return s;
}

Trace make_trace(std::vector<SessionRecord> sessions, double span_s) {
  std::sort(sessions.begin(), sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.start < b.start;
            });
  return Trace{std::move(sessions), Seconds{span_s}, {}, {}};
}

/// Poisson single-swarm trace with constant arrival rate (no diurnal
/// pattern) — the exact setting of the analytical model.
Trace poisson_swarm(double capacity, double mean_duration_s, double span_s,
                    std::uint64_t seed, std::uint32_t isp = 0) {
  Rng rng(seed);
  std::vector<SessionRecord> sessions;
  const double rate = capacity / mean_duration_s;  // arrivals per second
  double t = rng.exponential(rate);
  std::uint32_t user = 0;
  while (t < span_s) {
    const double d =
        std::min(rng.exponential(1.0 / mean_duration_s), span_s - t);
    auto s = session(user++, /*content=*/0, t, d, isp,
                     static_cast<std::uint32_t>(rng.uniform_index(
                         metro().isp(isp).exchange_points())));
    sessions.push_back(s);
    t += rng.exponential(rate);
  }
  return make_trace(std::move(sessions), span_s);
}

TEST(HybridSim, SingleSessionAllFromServer) {
  HybridSimulator sim(metro(), SimConfig{});
  const auto result =
      sim.run(make_trace({session(0, 0, 0.0, 600.0)}, 86400.0));
  const double expected = 1.5e6 * 600.0;
  EXPECT_NEAR(result.total.server.value(), expected, 1e-3);
  EXPECT_DOUBLE_EQ(result.total.peer_total().value(), 0.0);
}

TEST(HybridSim, EmptyTrace) {
  HybridSimulator sim(metro(), SimConfig{});
  const auto result = sim.run(make_trace({}, 86400.0));
  EXPECT_DOUBLE_EQ(result.total.total().value(), 0.0);
  EXPECT_TRUE(result.swarms.empty());
  EXPECT_TRUE(result.users.empty());
}

TEST(HybridSim, SubWindowSessionSkipped) {
  HybridSimulator sim(metro(), SimConfig{});
  const auto result = sim.run(make_trace({session(0, 0, 2.0, 5.0)}, 86400.0));
  EXPECT_DOUBLE_EQ(result.total.total().value(), 0.0);
}

TEST(HybridSim, TwoOverlappingSameExpShare) {
  HybridSimulator sim(metro(), SimConfig{});
  const auto result = sim.run(make_trace(
      {session(0, 0, 0.0, 600.0, 0, 7), session(1, 0, 0.0, 600.0, 0, 7)},
      86400.0));
  // One seed streams from the server, the other entirely from its
  // ExP-mate: 50 % offload, all of it ExP-local.
  EXPECT_NEAR(result.total.offload_fraction(), 0.5, 1e-9);
  EXPECT_NEAR(result.total.peer[index(LocalityLevel::kExchangePoint)].value(),
              1.5e6 * 600.0, 1e-3);
}

TEST(HybridSim, PartialOverlapSharesOnlyOverlap) {
  HybridSimulator sim(metro(), SimConfig{});
  // 600 s sessions overlapping for 300 s.
  const auto result = sim.run(make_trace(
      {session(0, 0, 0.0, 600.0, 0, 7), session(1, 0, 300.0, 600.0, 0, 7)},
      86400.0));
  // Total 1200 s of streaming; only the late session's 300 s of overlap is
  // peer-fed: G = 300/1200.
  EXPECT_NEAR(result.total.offload_fraction(), 0.25, 1e-9);
}

TEST(HybridSim, DifferentContentNeverShare) {
  HybridSimulator sim(metro(), SimConfig{});
  const auto result = sim.run(make_trace(
      {session(0, 0, 0.0, 600.0, 0, 7), session(1, 1, 0.0, 600.0, 0, 7)},
      86400.0));
  EXPECT_DOUBLE_EQ(result.total.peer_total().value(), 0.0);
}

TEST(HybridSim, DifferentBitrateSplitsSwarm) {
  HybridSimulator sim(metro(), SimConfig{});
  const auto result = sim.run(make_trace(
      {session(0, 0, 0.0, 600.0, 0, 7, BitrateClass::kSd),
       session(1, 0, 0.0, 600.0, 0, 7, BitrateClass::kHd)},
      86400.0));
  EXPECT_DOUBLE_EQ(result.total.peer_total().value(), 0.0);
  EXPECT_EQ(result.swarms.size(), 2u);
}

TEST(HybridSim, MixedBitrateSwarmWhenSplitDisabled) {
  SimConfig config;
  config.split_by_bitrate = false;
  HybridSimulator sim(metro(), config);
  const auto result = sim.run(make_trace(
      {session(0, 0, 0.0, 600.0, 0, 7, BitrateClass::kSd),
       session(1, 0, 0.0, 600.0, 0, 7, BitrateClass::kHd)},
      86400.0));
  EXPECT_GT(result.total.peer_total().value(), 0.0);
  EXPECT_EQ(result.swarms.size(), 1u);
}

TEST(HybridSim, IspFriendlySeparatesIsps) {
  HybridSimulator sim(metro(), SimConfig{});
  const auto result = sim.run(make_trace(
      {session(0, 0, 0.0, 600.0, 0, 7), session(1, 0, 0.0, 600.0, 1, 7)},
      86400.0));
  EXPECT_DOUBLE_EQ(result.total.peer_total().value(), 0.0);
}

TEST(HybridSim, CrossIspSharingWhenAllowed) {
  SimConfig config;
  config.isp_friendly = false;
  HybridSimulator sim(metro(), config);
  const auto result = sim.run(make_trace(
      {session(0, 0, 0.0, 600.0, 0, 7), session(1, 0, 0.0, 600.0, 1, 7)},
      86400.0));
  EXPECT_NEAR(result.total.cross_isp.value(), 1.5e6 * 600.0, 1e-3);
}

TEST(HybridSim, ConservationOnRealisticTrace) {
  TraceConfig tc;
  tc.days = 3;
  tc.users = 3000;
  tc.exemplar_views = {15000};
  tc.catalogue_tail = 200;
  tc.tail_views = 10000;
  const Trace trace = TraceGenerator(tc, metro()).generate();
  HybridSimulator sim(metro(), SimConfig{});
  const auto result = sim.run(trace);

  // (1) Simulated volume must track the trace's useful volume (windowing
  // loses partial windows, < 2 %).
  EXPECT_NEAR(result.total.total().value() / trace.total_volume().value(),
              1.0, 0.02);

  // (2) Swarm traffic must add up to the grand total.
  TrafficBreakdown swarm_sum;
  for (const auto& s : result.swarms) swarm_sum += s.traffic;
  EXPECT_NEAR(swarm_sum.total().value(), result.total.total().value(), 1.0);

  // (3) Hourly totals must add up to the grand total (and the derived
  // daily view must agree with them).
  TrafficBreakdown hourly_sum;
  for (const auto& hour : result.hourly) {
    for (const auto& t : hour) hourly_sum += t;
  }
  EXPECT_NEAR(hourly_sum.total().value(), result.total.total().value(), 1.0);
  TrafficBreakdown daily_sum;
  for (const auto& day : result.daily_grid()) {
    for (const auto& t : day) daily_sum += t;
  }
  EXPECT_NEAR(daily_sum.total().value(), result.total.total().value(), 1.0);

  // (4) Per-user downloads must add up to the grand total; per-user
  // uploads must equal peer-delivered bits.
  double down = 0, up = 0;
  for (const auto& [user, traffic] : result.users) {
    down += traffic.downloaded.value();
    up += traffic.uploaded.value();
  }
  EXPECT_NEAR(down, result.total.total().value(), 1.0);
  EXPECT_NEAR(up, result.total.peer_total().value(), 1.0);
}

TEST(HybridSim, CollectTogglesOnlyDropMetrics) {
  TraceConfig tc;
  tc.days = 2;
  tc.users = 1000;
  tc.exemplar_views = {5000};
  tc.catalogue_tail = 50;
  tc.tail_views = 3000;
  const Trace trace = TraceGenerator(tc, metro()).generate();
  SimConfig lean;
  lean.collect_hourly = false;
  lean.collect_per_user = false;
  lean.collect_swarms = false;
  const auto full = HybridSimulator(metro(), SimConfig{}).run(trace);
  const auto slim = HybridSimulator(metro(), lean).run(trace);
  // Totals must not depend on which metrics are collected: every lane
  // is bit-identical, including between two runs that differ only in the
  // per-user split (hourly rows on in both).
  SimConfig no_users;
  no_users.collect_per_user = false;
  const auto hourly_only = HybridSimulator(metro(), no_users).run(trace);
  for (const SimResult* other : {&slim, &hourly_only}) {
    EXPECT_EQ(other->total.server, full.total.server);
    EXPECT_EQ(other->total.cross_isp, full.total.cross_isp);
    for (std::size_t l = 0; l < kLocalityLevels; ++l) {
      EXPECT_EQ(other->total.peer[l], full.total.peer[l]);
    }
  }
  ASSERT_EQ(hourly_only.hourly.size(), full.hourly.size());
  for (std::size_t h = 0; h < full.hourly.size(); ++h) {
    ASSERT_EQ(hourly_only.hourly[h].size(), full.hourly[h].size());
    for (std::size_t isp = 0; isp < full.hourly[h].size(); ++isp) {
      EXPECT_EQ(hourly_only.hourly[h][isp].server, full.hourly[h][isp].server);
      for (std::size_t l = 0; l < kLocalityLevels; ++l) {
        EXPECT_EQ(hourly_only.hourly[h][isp].peer[l],
                  full.hourly[h][isp].peer[l]);
      }
    }
  }
  EXPECT_FALSE(hourly_only.hourly.empty());
  EXPECT_TRUE(hourly_only.users.empty());
  EXPECT_TRUE(slim.swarms.empty());
  EXPECT_TRUE(slim.users.empty());
  EXPECT_TRUE(slim.hourly.empty());
  EXPECT_TRUE(slim.daily_grid().empty());
}

TEST(HybridSim, MeasuredCapacityMatchesLittlesLaw) {
  const Trace trace = poisson_swarm(4.0, 1800.0, 10 * 86400.0, 77);
  SimConfig config;
  HybridSimulator sim(metro(), config);
  const auto result = sim.run(trace);
  double capacity = 0;
  for (const auto& s : result.swarms) capacity += s.capacity;
  EXPECT_NEAR(capacity, 4.0, 0.4);
}

TEST(HybridSim, OffloadMatchesTheoryOnPoissonSwarm) {
  // The core validation of Fig. 2: a constant-rate Poisson swarm's
  // simulated offload must match Eq. 3 at the measured capacity.
  SimConfig config;
  config.split_by_bitrate = true;
  for (double capacity : {0.5, 2.0, 8.0}) {
    // Single bitrate class so the swarm is not subdivided.
    Rng rng(1234);
    std::vector<SessionRecord> sessions;
    const double span_s = 20 * 86400.0;
    const double mean_d = 1800.0;
    const double rate = capacity / mean_d;
    double t = rng.exponential(rate);
    std::uint32_t user = 0;
    while (t < span_s) {
      sessions.push_back(session(
          user++, 0, t, std::min(rng.exponential(1.0 / mean_d), span_s - t),
          0,
          static_cast<std::uint32_t>(rng.uniform_index(345))));
      t += rng.exponential(rate);
    }
    const Trace trace = make_trace(std::move(sessions), span_s);
    const auto result = HybridSimulator(metro(), config).run(trace);
    double measured_capacity = 0;
    for (const auto& s : result.swarms) measured_capacity += s.capacity;
    const SavingsModel model(valancius_params(), metro().isp(0));
    const double g_theory = model.offload(measured_capacity, 1.0);
    EXPECT_NEAR(result.total.offload_fraction(), g_theory, 0.03)
        << "capacity " << capacity;
  }
}

TEST(HybridSim, SavingsMatchTheoryOnPoissonSwarm) {
  const Trace trace = poisson_swarm(5.0, 1800.0, 20 * 86400.0, 4242);
  SimConfig config;
  const auto result = HybridSimulator(metro(), config).run(trace);
  double measured_capacity = 0;
  for (const auto& s : result.swarms) measured_capacity += s.capacity;
  for (const auto& params : standard_params()) {
    const EnergyAccountant accountant{CostFunctions(params)};
    const SavingsModel model(params, metro().isp(0));
    const double sim_savings = accountant.savings(result.total);
    const double theory = model.savings(measured_capacity, 1.0);
    EXPECT_NEAR(sim_savings, theory, 0.02) << params.name;
  }
}

TEST(HybridSim, MatchersAgreeAtFullUploadRatio) {
  // At q/β = 1 both matchers deliver (L−1)·β·Δτ per window: the existence
  // matcher by construction, the capacity matcher because aggregate budget
  // L·β covers the (L−1)·β demand.
  const Trace trace = poisson_swarm(3.0, 1800.0, 5 * 86400.0, 99);
  SimConfig existence;
  SimConfig capacity;
  capacity.matcher = MatcherKind::kCapacity;
  const auto r_exist = HybridSimulator(metro(), existence).run(trace);
  const auto r_cap = HybridSimulator(metro(), capacity).run(trace);
  EXPECT_NEAR(r_cap.total.offload_fraction(),
              r_exist.total.offload_fraction(), 1e-9);
}

TEST(HybridSim, CapacityMatcherPoolsUploadersBelowFullRatio) {
  // At q/β < 1 the capacity matcher lets several uploaders collaborate to
  // feed one downloader (the paper notes SD streams "can be sustained if
  // two or more peers collaborate"), beating the per-pair-limited
  // existence model.
  const Trace trace = poisson_swarm(3.0, 1800.0, 5 * 86400.0, 99);
  SimConfig existence;
  SimConfig capacity;
  capacity.matcher = MatcherKind::kCapacity;
  existence.q_over_beta = capacity.q_over_beta = 0.5;
  const auto r_exist = HybridSimulator(metro(), existence).run(trace);
  const auto r_cap = HybridSimulator(metro(), capacity).run(trace);
  EXPECT_GE(r_cap.total.offload_fraction(),
            r_exist.total.offload_fraction());
}

TEST(HybridSim, HourlyTrafficLandsOnCorrectHours) {
  HybridSimulator sim(metro(), SimConfig{});
  // One session in hour 0 of day 0, one in hour 0 of day 2.
  const auto result = sim.run(make_trace(
      {session(0, 0, 1000.0, 600.0, 2, 7),
       session(1, 0, 2 * 86400.0 + 1000.0, 600.0, 2, 7)},
      3 * 86400.0));
  ASSERT_EQ(result.hourly.size(), 72u);
  EXPECT_GT(result.hourly[0][2].total().value(), 0.0);
  EXPECT_DOUBLE_EQ(result.hourly[1][2].total().value(), 0.0);
  EXPECT_GT(result.hourly[48][2].total().value(), 0.0);
  EXPECT_DOUBLE_EQ(result.hourly[0][0].total().value(), 0.0);
  // The derived daily view groups 24 hour rows per day.
  const auto daily = result.daily_grid();
  ASSERT_EQ(daily.size(), 3u);
  EXPECT_GT(daily[0][2].total().value(), 0.0);
  EXPECT_DOUBLE_EQ(daily[1][2].total().value(), 0.0);
  EXPECT_GT(daily[2][2].total().value(), 0.0);
  EXPECT_DOUBLE_EQ(daily[0][0].total().value(), 0.0);
}

TEST(HybridSim, SessionSpanningHourBoundarySplitsAcrossHours) {
  HybridSimulator sim(metro(), SimConfig{});
  // 600 s session centred on the first hour boundary.
  const auto result = sim.run(
      make_trace({session(0, 0, 3600.0 - 300.0, 600.0, 0, 7)}, 86400.0));
  ASSERT_EQ(result.hourly.size(), 24u);
  const double h0 = result.hourly[0][0].total().value();
  const double h1 = result.hourly[1][0].total().value();
  EXPECT_NEAR(h0, h1, 1e-3);
  EXPECT_NEAR(h0 + h1, 1.5e6 * 600.0, 1e-3);
  for (std::size_t h = 2; h < result.hourly.size(); ++h) {
    EXPECT_DOUBLE_EQ(result.hourly[h][0].total().value(), 0.0);
  }
}

TEST(HybridSim, SessionSpanningMidnightSplitsAcrossDays) {
  HybridSimulator sim(metro(), SimConfig{});
  const auto result = sim.run(make_trace(
      {session(0, 0, 86400.0 - 300.0, 600.0, 0, 7)}, 2 * 86400.0));
  ASSERT_EQ(result.hourly.size(), 48u);
  const auto daily = result.daily_grid();
  ASSERT_EQ(daily.size(), 2u);
  const double d0 = daily[0][0].total().value();
  const double d1 = daily[1][0].total().value();
  EXPECT_NEAR(d0, d1, 1e-3);
  EXPECT_NEAR(d0 + d1, 1.5e6 * 600.0, 1e-3);
  // The split lands in the last hour of day 0 and the first of day 1.
  EXPECT_NEAR(result.hourly[23][0].total().value(), d0, 1e-9);
  EXPECT_NEAR(result.hourly[24][0].total().value(), d1, 1e-9);
}

TEST(HybridSim, DeterministicAcrossRuns) {
  const Trace trace = poisson_swarm(2.0, 1200.0, 3 * 86400.0, 7);
  const auto a = HybridSimulator(metro(), SimConfig{}).run(trace);
  const auto b = HybridSimulator(metro(), SimConfig{}).run(trace);
  EXPECT_DOUBLE_EQ(a.total.server.value(), b.total.server.value());
  EXPECT_DOUBLE_EQ(a.total.peer_total().value(),
                   b.total.peer_total().value());
}

TEST(HybridSim, RejectsInvalidConfig) {
  SimConfig config;
  config.window = Seconds{0.0};
  EXPECT_THROW(HybridSimulator(metro(), config), InvalidArgument);
  config = SimConfig{};
  config.q_over_beta = -1.0;
  EXPECT_THROW(HybridSimulator(metro(), config), InvalidArgument);
}

TEST(HybridSim, WindowSizeInsensitivity) {
  // Δτ = 10 s vs Δτ = 30 s must agree closely on long sessions.
  const Trace trace = poisson_swarm(3.0, 1800.0, 5 * 86400.0, 13);
  SimConfig w10, w30;
  w30.window = Seconds{30.0};
  const auto r10 = HybridSimulator(metro(), w10).run(trace);
  const auto r30 = HybridSimulator(metro(), w30).run(trace);
  EXPECT_NEAR(r30.total.offload_fraction(), r10.total.offload_fraction(),
              0.01);
}

}  // namespace
}  // namespace cl
