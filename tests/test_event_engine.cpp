// Tests for sim/event_engine.h (RateProfile, EventQueue), the Mt/G/∞
// queue mode, the flash-crowd scenario generator (ext/live.h) and the
// simulator's overload (CDN-spill) model.
#include "sim/event_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ext/live.h"
#include "sim/hybrid_sim.h"
#include "sim/queue_sim.h"
#include "trace/trace_binary.h"
#include "trace/trace_format.h"
#include "trace/trace_io.h"
#include "util/error.h"
#include "util/rng.h"

#include "temp_path.h"

namespace cl {
namespace {

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

// ---- RateProfile ----

TEST(RateProfile, ConstantIsFlat) {
  const RateProfile p = RateProfile::constant(2.5);
  EXPECT_DOUBLE_EQ(p.rate_at(0), 2.5);
  EXPECT_DOUBLE_EQ(p.rate_at(1e6), 2.5);
  EXPECT_DOUBLE_EQ(p.max_rate(), 2.5);
  EXPECT_DOUBLE_EQ(p.expected_arrivals(100), 250.0);
}

TEST(RateProfile, PiecewiseStepsAndZeroBeforeFirstPhase) {
  const RateProfile p({{10, 0.0}, {100, 5.0}, {200, 1.0}});
  EXPECT_DOUBLE_EQ(p.rate_at(5), 0.0);   // before the first phase
  EXPECT_DOUBLE_EQ(p.rate_at(50), 0.0);
  EXPECT_DOUBLE_EQ(p.rate_at(100), 5.0);
  EXPECT_DOUBLE_EQ(p.rate_at(150), 5.0);
  EXPECT_DOUBLE_EQ(p.rate_at(1e9), 1.0);
  EXPECT_DOUBLE_EQ(p.max_rate(), 5.0);
  // 0·90 + 5·100 + 1·50 over [0, 250).
  EXPECT_DOUBLE_EQ(p.expected_arrivals(250), 550.0);
}

TEST(RateProfile, RejectsBadPhaseLists) {
  EXPECT_THROW(RateProfile({}), InvalidArgument);
  EXPECT_THROW(RateProfile({{0, 1.0}, {0, 2.0}}), InvalidArgument);   // ties
  EXPECT_THROW(RateProfile({{10, 1.0}, {5, 2.0}}), InvalidArgument);  // order
  EXPECT_THROW(RateProfile({{0, -1.0}}), InvalidArgument);
  EXPECT_THROW(RateProfile({{0, 0.0}, {10, 0.0}}), InvalidArgument);  // all 0
  EXPECT_THROW(RateProfile({{-1, 1.0}}), InvalidArgument);
}

TEST(RateProfile, NextArrivalIsMonotoneAndRespectsLimit) {
  // A trailing zero-rate phase: without the limit the thinning loop
  // would never accept another candidate past t = 100.
  const RateProfile p({{0, 4.0}, {100, 0.0}});
  Rng rng(7);
  double t = 0;
  std::size_t accepted = 0;
  while (true) {
    const double next = p.next_arrival(t, 500.0, rng);
    if (!std::isfinite(next)) break;
    EXPECT_GT(next, t);
    EXPECT_LT(next, 500.0);
    EXPECT_LT(next, 100.0);  // the zero phase admits nothing
    t = next;
    ++accepted;
  }
  // ~400 expected arrivals in [0, 100).
  EXPECT_GT(accepted, 300u);
  EXPECT_LT(accepted, 500u);
}

// ---- EventQueue ----

TEST(EventQueue, PopsInTimeOrderWithFifoTieBreak) {
  EventQueue<char> q;
  q.push(5.0, 'a');
  q.push(3.0, 'b');
  q.push(5.0, 'c');
  q.push(4.0, 'd');
  ASSERT_EQ(q.size(), 4u);
  EXPECT_DOUBLE_EQ(q.next_time(), 3.0);
  EXPECT_EQ(q.pop().payload, 'b');
  EXPECT_EQ(q.pop().payload, 'd');
  // Equal times pop in insertion order — the determinism contract.
  EXPECT_EQ(q.pop().payload, 'a');
  EXPECT_EQ(q.pop().payload, 'c');
  EXPECT_TRUE(q.empty());
}

// ---- Mt/G/∞ queue mode ----

TEST(QueueSimBurst, OccupancyPmfSumsToOneUnderBurstRates) {
  // A spike profile: quiet, a 20x burst, quiet again (satellite: the
  // time-weighted occupancy pmf must stay a distribution under bursts).
  const RateProfile burst({{0, 0.05}, {1000, 1.0}, {1500, 0.05}});
  const auto sim = QueueSimulator::mm_infinity(burst, Seconds{100});
  const auto result = sim.run(Seconds{50000}, 42);
  double pmf_sum = 0;
  for (const double p : result.occupancy_pmf) pmf_sum += p;
  EXPECT_NEAR(pmf_sum, 1.0, 1e-9);
  EXPECT_GT(result.arrivals, 1000u);
  EXPECT_GT(result.time_average_occupancy, 0.0);
}

TEST(QueueSimBurst, ConstantProfileMatchesConstantRateStatistics) {
  // Mt/G/∞ with a flat profile is an M/M/∞ in disguise: same occupancy.
  const double c = 3.0;
  const auto flat =
      QueueSimulator::mm_infinity(RateProfile::constant(c / 100.0),
                                  Seconds{100});
  const auto result = flat.run(Seconds{2e6}, 11);
  EXPECT_NEAR(result.time_average_occupancy, c, 0.15);
}

// ---- flash-crowd generator ----

TEST(FlashCrowd, PresetNamesAreValidAndUnknownThrows) {
  for (const auto& name : flash_crowd_preset_names()) {
    const FlashCrowdConfig config = flash_crowd_preset(name, 100, 7200, 1);
    EXPECT_GT(config.arrivals.expected_arrivals(86400.0), 50.0) << name;
  }
  EXPECT_THROW(flash_crowd_preset("bogus", 100, 7200, 1), InvalidArgument);
  EXPECT_THROW(flash_crowd_preset("spike", 0, 7200, 1), InvalidArgument);
  EXPECT_THROW(flash_crowd_preset("spike", 100, 100, 1), InvalidArgument);
}

TEST(FlashCrowd, DeterministicInSeed) {
  const FlashCrowdConfig config = flash_crowd_preset("spike", 500, 7200, 1);
  const Trace a = generate_flash_crowd(metro(), config, 9);
  const Trace b = generate_flash_crowd(metro(), config, 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.sessions[i].user, b.sessions[i].user);
    EXPECT_EQ(a.sessions[i].isp, b.sessions[i].isp);
    EXPECT_EQ(a.sessions[i].bitrate, b.sessions[i].bitrate);
    EXPECT_DOUBLE_EQ(a.sessions[i].start, b.sessions[i].start);
    EXPECT_DOUBLE_EQ(a.sessions[i].duration, b.sessions[i].duration);
  }
}

TEST(FlashCrowd, SpikeConcentratesArrivalsAroundEventStart) {
  const FlashCrowdConfig config = flash_crowd_preset("spike", 2000, 7200, 1);
  const Trace trace = generate_flash_crowd(metro(), config, 5);
  EXPECT_GT(trace.size(), 1000u);
  std::size_t first_segments = 0;
  std::size_t in_burst = 0;
  std::vector<bool> seen(1u << 20);
  for (const auto& s : trace.sessions) {
    if (seen[s.user]) continue;  // churn resumes are not arrivals
    seen[s.user] = true;
    ++first_segments;
    if (s.start >= 7200.0 - 600.0 && s.start < 7200.0 + 780.0) ++in_burst;
  }
  EXPECT_GT(static_cast<double>(in_burst) / first_segments, 0.95);
}

TEST(FlashCrowd, ChurnEmitsNonOverlappingResumeSegments) {
  const FlashCrowdConfig config = flash_crowd_preset("spike", 2000, 7200, 1);
  const Trace trace = generate_flash_crowd(metro(), config, 5);
  // Per-user segment lists: churn rejoin or the bitrate shift must give
  // some viewers several segments, never overlapping in time.
  std::map<std::uint32_t, std::vector<const SessionRecord*>> by_user;
  for (const auto& s : trace.sessions) by_user[s.user].push_back(&s);
  std::size_t multi = 0;
  for (auto& [user, segments] : by_user) {
    if (segments.size() > 1) ++multi;
    std::sort(segments.begin(), segments.end(),
              [](const SessionRecord* a, const SessionRecord* b) {
                return a->start < b->start;
              });
    for (std::size_t i = 1; i < segments.size(); ++i) {
      EXPECT_GE(segments[i]->start, segments[i - 1]->end() - 1e-9)
          << "user " << user;
    }
  }
  EXPECT_GT(multi, 0u);
}

TEST(FlashCrowd, ShiftDowngradesActiveViewers) {
  const FlashCrowdConfig config = flash_crowd_preset("spike", 2000, 7200, 1);
  ASSERT_GT(config.shift_time_s, 0);
  const Trace trace = generate_flash_crowd(metro(), config, 5);
  // Some viewer must close a segment exactly at the shift and reopen one
  // at the next-lower bitrate class.
  std::size_t downgraded = 0;
  std::map<std::uint32_t, std::vector<const SessionRecord*>> by_user;
  for (const auto& s : trace.sessions) by_user[s.user].push_back(&s);
  for (auto& [user, segments] : by_user) {
    for (const SessionRecord* s : segments) {
      if (s->start == config.shift_time_s) {
        for (const SessionRecord* prev : segments) {
          if (prev->end() == config.shift_time_s &&
              index(prev->bitrate) == index(s->bitrate) + 1) {
            ++downgraded;
          }
        }
      }
    }
  }
  EXPECT_GT(downgraded, 0u);
}

TEST(FlashCrowd, SegmentsStayInsideSpanAndStampMetro) {
  FlashCrowdConfig config = flash_crowd_preset("ramp", 800, 80000, 1);
  const Trace trace = generate_flash_crowd(metro(), config, 3);
  EXPECT_EQ(trace.metro_name, metro().name());
  const double span = trace.span.value();
  for (const auto& s : trace.sessions) {
    EXPECT_LT(s.start, span);
    EXPECT_LE(s.end(), span + 1e-9);
  }
}

// ---- round trips (satellite: both formats, metro stamped) ----

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(FlashCrowd, CsvRoundTripIsByteExact) {
  const FlashCrowdConfig config = flash_crowd_preset("spike", 300, 7200, 1);
  const Trace trace = generate_flash_crowd(metro(), config, 21);
  const std::string a = test::unique_temp_path("cl_fc_a.csv");
  const std::string b = test::unique_temp_path("cl_fc_b.csv");
  write_trace_file(a, trace);
  const Trace back = read_trace_file(a);
  EXPECT_EQ(back.metro_name, metro().name());
  write_trace_file(b, back);
  EXPECT_EQ(slurp(a), slurp(b));
  std::filesystem::remove(a);
  std::filesystem::remove(b);
}

TEST(FlashCrowd, BinaryRoundTripIsByteExact) {
  const FlashCrowdConfig config = flash_crowd_preset("ramp", 300, 7200, 1);
  const Trace trace = generate_flash_crowd(metro(), config, 21);
  const std::string serialized = serialize_trace_binary(trace);
  const std::string path = test::unique_temp_path("cl_fc.cltrace");
  write_trace_binary_file(path, trace);
  const Trace back = read_trace_any(path, TraceFormat::kBinary, 1);
  EXPECT_EQ(back.metro_name, metro().name());
  EXPECT_EQ(serialize_trace_binary(back), serialized);
  std::filesystem::remove(path);
}

// ---- overload model ----

Trace tiny_swarm(std::vector<double> starts, std::vector<double> durations) {
  Trace trace;
  trace.span = Seconds{3600};
  trace.metro_name = metro().name();
  for (std::size_t i = 0; i < starts.size(); ++i) {
    SessionRecord s;
    s.user = static_cast<std::uint32_t>(i);
    s.household = s.user;
    s.content = 0;
    s.isp = 0;
    s.exp = 0;
    s.bitrate = BitrateClass::kSd;
    s.start = starts[i];
    s.duration = durations[i];
    trace.sessions.push_back(s);
  }
  trace.validate();
  return trace;
}

SimConfig overload_config(bool on) {
  SimConfig config;
  config.overload = on;
  config.collect_hourly = true;
  return config;
}

TEST(Overload, SynchronizedJoinSpillsTheWholeFirstWindow) {
  // Three same-window joiners: nobody is warm in the stretch's first
  // window, so the whole peer demand 2·β·Δτ bounces to the CDN.
  const Trace trace = tiny_swarm({0, 0, 0}, {100, 100, 100});
  const SimResult on =
      HybridSimulator(metro(), overload_config(true)).run(trace);
  const SimResult off =
      HybridSimulator(metro(), overload_config(false)).run(trace);
  const double beta_dt = 1.5e6 * 10.0;  // SD bitrate × Δτ
  EXPECT_DOUBLE_EQ(on.overload_spill.value(), 2 * beta_dt);
  EXPECT_DOUBLE_EQ(on.total.server.value(),
                   off.total.server.value() + 2 * beta_dt);
  EXPECT_DOUBLE_EQ(on.total.peer_total().value(),
                   off.total.peer_total().value() - 2 * beta_dt);
  ASSERT_FALSE(on.hourly_spill.empty());
  EXPECT_DOUBLE_EQ(on.hourly_spill[0].value(), 2 * beta_dt);
}

TEST(Overload, StaggeredJoinsHaveWarmCapacityAndNoSpill) {
  // Each later joiner meets at least one full-window member: capacity
  // q·Σ_warm β·Δτ covers the demand, so overload changes nothing — the
  // flag-on run is bit-identical to the flag-off run.
  const Trace trace = tiny_swarm({0, 20, 40}, {100, 80, 60});
  const SimResult on =
      HybridSimulator(metro(), overload_config(true)).run(trace);
  const SimResult off =
      HybridSimulator(metro(), overload_config(false)).run(trace);
  EXPECT_EQ(on.overload_spill.value(), 0.0);
  EXPECT_EQ(on.total.server, off.total.server);
  EXPECT_EQ(on.total.cross_isp, off.total.cross_isp);
  for (std::size_t l = 0; l < kLocalityLevels; ++l) {
    EXPECT_EQ(on.total.peer[l], off.total.peer[l]);
  }
}

TEST(Overload, OffByDefaultAndZeroSpillWhenOff) {
  EXPECT_FALSE(SimConfig{}.overload);
  const Trace trace = tiny_swarm({0, 0}, {50, 50});
  const SimResult off = HybridSimulator(metro(), SimConfig{}).run(trace);
  EXPECT_EQ(off.overload_spill.value(), 0.0);
  EXPECT_TRUE(off.hourly_spill.empty());
}

TEST(Overload, FlashCrowdSpillsAndConservesTotalVolume) {
  const FlashCrowdConfig config = flash_crowd_preset("spike", 1500, 7200, 1);
  const Trace trace = generate_flash_crowd(metro(), config, 3);
  const SimResult on =
      HybridSimulator(metro(), overload_config(true)).run(trace);
  const SimResult off =
      HybridSimulator(metro(), overload_config(false)).run(trace);
  // The spike has a real overload phase...
  EXPECT_GT(on.overload_spill.value(), 0.0);
  EXPECT_LT(on.offload(), off.offload());
  // ...but spill only moves bits between lanes (FP-rounding tolerance:
  // the per-peer lane redistribution rounds).
  EXPECT_NEAR(on.total.total().value() / off.total.total().value(), 1.0,
              1e-12);
  // The per-hour spill grid decomposes the total.
  double hourly_sum = 0;
  for (const Bits spill : on.hourly_spill) hourly_sum += spill.value();
  EXPECT_NEAR(hourly_sum / on.overload_spill.value(), 1.0, 1e-12);
}

TEST(Overload, BitIdenticalAcrossThreadCountsAndDataPaths) {
  const FlashCrowdConfig config = flash_crowd_preset("spike", 1200, 7200, 1);
  const Trace trace = generate_flash_crowd(metro(), config, 13);
  SimConfig sim_config = overload_config(true);
  sim_config.threads = 1;
  const HybridSimulator reference_sim(metro(), sim_config);
  const SimResult reference = reference_sim.run(trace);
  // The row-structured reference path (virtual Matcher dispatch, no SIMD
  // gathers) must agree bitwise, spill accounting included.
  const SimResult rows = reference_sim.run_rows(trace);
  for (unsigned threads : {2u, 7u, 0u}) {
    sim_config.threads = threads;
    const SimResult result = HybridSimulator(metro(), sim_config).run(trace);
    EXPECT_EQ(result.total.server, reference.total.server) << threads;
    EXPECT_EQ(result.total.cross_isp, reference.total.cross_isp) << threads;
    for (std::size_t l = 0; l < kLocalityLevels; ++l) {
      EXPECT_EQ(result.total.peer[l], reference.total.peer[l]) << threads;
    }
    EXPECT_EQ(result.overload_spill, reference.overload_spill) << threads;
    ASSERT_EQ(result.hourly_spill.size(), reference.hourly_spill.size());
    for (std::size_t h = 0; h < result.hourly_spill.size(); ++h) {
      EXPECT_EQ(result.hourly_spill[h], reference.hourly_spill[h]) << threads;
    }
  }
  EXPECT_EQ(rows.total.server, reference.total.server);
  EXPECT_EQ(rows.overload_spill, reference.overload_spill);
  ASSERT_EQ(rows.hourly_spill.size(), reference.hourly_spill.size());
  for (std::size_t h = 0; h < rows.hourly_spill.size(); ++h) {
    EXPECT_EQ(rows.hourly_spill[h], reference.hourly_spill[h]);
  }
}

}  // namespace
}  // namespace cl
