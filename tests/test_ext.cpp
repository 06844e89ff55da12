// Tests for the extension modules: predictive preloading, live events and
// exchange-point edge caching.
#include "ext/edge_cache.h"
#include "ext/live.h"
#include "ext/preload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>

#include "energy/accounting.h"
#include "sim/hybrid_sim.h"
#include "trace/synthetic.h"
#include "trace/trace_io.h"
#include "trace/trace_stats.h"
#include "util/error.h"

#include "temp_path.h"

namespace cl {
namespace {

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

Trace base_trace() {
  TraceConfig tc;
  tc.days = 3;
  tc.users = 3000;
  tc.exemplar_views = {20000};
  tc.catalogue_tail = 150;
  tc.tail_views = 10000;
  return TraceGenerator(tc, metro()).generate();
}

// ---- preload ----

TEST(Preload, ZeroAdoptionIsIdentity) {
  const Trace trace = base_trace();
  const Trace out = apply_preload(trace, {.adoption = 0.0}, 1);
  ASSERT_EQ(out.size(), trace.size());
  for (std::size_t i = 0; i < out.size(); i += 101) {
    EXPECT_DOUBLE_EQ(out.sessions[i].start, trace.sessions[i].start);
  }
}

TEST(Preload, FullAdoptionMovesEverythingIntoWindow) {
  const Trace trace = base_trace();
  const PreloadConfig config{.adoption = 1.0,
                             .window_start_hour = 7.0,
                             .window_end_hour = 9.0};
  const Trace out = apply_preload(trace, config, 1);
  for (const auto& s : out.sessions) {
    const double hour = std::fmod(s.start, 86400.0) / 3600.0;
    EXPECT_GE(hour, 7.0 - 1e-9);
    EXPECT_LT(hour, 9.0 + 1e-9);
  }
}

TEST(Preload, KeepsDayAndDuration) {
  const Trace trace = base_trace();
  const Trace out = apply_preload(trace, {.adoption = 1.0}, 1);
  ASSERT_EQ(out.size(), trace.size());
  double watch_in = 0, watch_out = 0;
  for (const auto& s : trace.sessions) watch_in += s.duration;
  for (const auto& s : out.sessions) watch_out += s.duration;
  EXPECT_NEAR(watch_out, watch_in, watch_in * 0.001);
}

TEST(Preload, DeterministicInSeed) {
  const Trace trace = base_trace();
  const Trace a = apply_preload(trace, {.adoption = 0.5}, 7);
  const Trace b = apply_preload(trace, {.adoption = 0.5}, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 53) {
    EXPECT_DOUBLE_EQ(a.sessions[i].start, b.sessions[i].start);
  }
}

TEST(Preload, ConcentrationRaisesOffload) {
  // Synchronising demand into a 2-hour window increases instantaneous
  // swarm sizes, hence the offloadable share.
  const Trace trace = base_trace();
  const Trace preloaded = apply_preload(trace, {.adoption = 1.0}, 3);
  HybridSimulator sim(metro(), SimConfig{});
  const double g_base =
      sim.run(TraceView::from_trace(trace)).total.offload_fraction();
  const double g_pre =
      sim.run(TraceView::from_trace(preloaded)).total.offload_fraction();
  EXPECT_GT(g_pre, g_base + 0.02);
}

TEST(Preload, KeepsMetroName) {
  // Regression: apply_preload used to rebuild the Trace copying only the
  // span, silently dropping the metro stamp (so resolve_metro fell back
  // to defaults downstream).
  Trace trace = base_trace();
  ASSERT_FALSE(trace.metro_name.empty());
  const Trace out = apply_preload(trace, {.adoption = 0.5}, 1);
  EXPECT_EQ(out.metro_name, trace.metro_name);
}

TEST(Preload, PartialFinalDayLeavesOverflowUnmoved) {
  // Regression: on a trace whose last day is partial, sessions whose
  // window target falls past the span used to be clamped onto the single
  // timestamp span−1, piling up an artificial swarm spike there. They
  // must stay at their original start instead.
  const double span_s = 1.2 * 86400.0;  // final day covers only ~4.8 h
  Trace trace;
  trace.span = Seconds{span_s};
  trace.metro_name = "london_top5";
  for (std::uint32_t u = 0; u < 40; ++u) {
    SessionRecord s;
    s.user = u;
    s.household = u;
    s.content = 1;
    // Half the sessions on day 0 (movable), half on the partial final
    // day after its 07:00–09:00 window would end past the span.
    s.start = (u % 2 == 0) ? 40000.0 + u : 86400.0 + 8000.0 + u;
    s.duration = 600.0;
    trace.sessions.push_back(s);
  }
  const PreloadConfig config{.adoption = 1.0,
                             .window_start_hour = 7.0,
                             .window_end_hour = 9.0};
  const Trace out = apply_preload(trace, config, 5);
  ASSERT_EQ(out.size(), trace.size());

  std::size_t day0_moved = 0, day1_unmoved = 0, piled_at_end = 0;
  for (const auto& s : out.sessions) {
    if (s.start >= span_s - 1.5) ++piled_at_end;
    if (s.start < 86400.0) {
      // Day-0 sessions all land inside the window.
      const double hour = s.start / 3600.0;
      EXPECT_GE(hour, 7.0 - 1e-9);
      EXPECT_LT(hour, 9.0 + 1e-9);
      ++day0_moved;
    } else {
      // Day-1 targets (86400 + 7·3600 = 111600 s) overflow the 103680 s
      // span, so these sessions keep their original starts.
      EXPECT_GE(s.start, 86400.0 + 8000.0);
      EXPECT_LT(s.start, 86400.0 + 8000.0 + 40.0);
      ++day1_unmoved;
    }
  }
  EXPECT_EQ(day0_moved, 20u);
  EXPECT_EQ(day1_unmoved, 20u);
  EXPECT_EQ(piled_at_end, 0u);
}

TEST(Preload, RejectsBadConfig) {
  const Trace trace = base_trace();
  EXPECT_THROW(apply_preload(trace, {.adoption = 1.5}, 1), InvalidArgument);
  EXPECT_THROW(apply_preload(
                   trace, {.window_start_hour = 9.0, .window_end_hour = 7.0},
                   1),
               InvalidArgument);
}

// ---- live events ----

TEST(Live, GeneratesConfiguredAudience) {
  LiveEventConfig config;
  config.viewers = 2000;
  const Trace trace = generate_live_event(metro(), config, 5);
  EXPECT_EQ(trace.size(), 2000u);
  trace.validate();
}

TEST(Live, ViewersClusterAroundEventStart) {
  LiveEventConfig config;
  config.viewers = 3000;
  config.event_start_s = 7200;
  config.join_jitter_s = 60;
  const Trace trace = generate_live_event(metro(), config, 5);
  std::size_t within_5min = 0;
  for (const auto& s : trace.sessions) {
    EXPECT_GE(s.start, 7200.0);
    if (s.start < 7200.0 + 300.0) ++within_5min;
  }
  EXPECT_GT(static_cast<double>(within_5min) / 3000.0, 0.95);
}

TEST(Live, HugeSwarmsYieldNearCeilingOffload) {
  LiveEventConfig config;
  config.viewers = 4000;
  const Trace trace = generate_live_event(metro(), config, 5);
  const auto result =
      HybridSimulator(metro(), SimConfig{}).run(TraceView::from_trace(trace));
  // Thousands of concurrent viewers: G approaches its ceiling of ~1 even
  // after ISP × bitrate splitting.
  EXPECT_GT(result.total.offload_fraction(), 0.9);
}

TEST(Live, DeterministicInSeed) {
  LiveEventConfig config;
  config.viewers = 100;
  const Trace a = generate_live_event(metro(), config, 11);
  const Trace b = generate_live_event(metro(), config, 11);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.sessions[i].start, b.sessions[i].start);
    EXPECT_EQ(a.sessions[i].isp, b.sessions[i].isp);
  }
}

TEST(Live, RejectsBadConfig) {
  LiveEventConfig config;
  config.viewers = 0;
  EXPECT_THROW(generate_live_event(metro(), config, 1), InvalidArgument);
}

TEST(Live, StampsMetroName) {
  // Regression: generate_live_event sampled ISPs/ExPs from a named Metro
  // but left the trace's metro_name empty.
  LiveEventConfig config;
  config.viewers = 50;
  const Trace trace = generate_live_event(metro(), config, 5);
  EXPECT_EQ(trace.metro_name, metro().name());
}

TEST(Live, LateJoinersAreDroppedNotClampedToSpanEnd) {
  // Regression: joiners whose exponential jitter landed past the span
  // used to be clamped to span−1, piling an artificial burst of
  // zero-length sessions onto the trace's final second. They are dropped
  // now — with their rng draws still consumed, so the surviving viewers'
  // placements are unchanged.
  LiveEventConfig config;
  config.viewers = 2000;
  config.span_days = 1;
  config.event_start_s = 86400.0 - 600.0;  // jitter tail crosses the span
  config.join_jitter_s = 600.0;
  const Trace trace = generate_live_event(metro(), config, 5);
  EXPECT_LT(trace.size(), 2000u);  // some joiners landed past the span
  EXPECT_GT(trace.size(), 0u);
  for (const auto& s : trace.sessions) {
    EXPECT_LT(s.start, 86400.0);
    EXPECT_LE(s.end(), 86400.0);
  }
  // No pile-up at the final second.
  std::size_t last_second = 0;
  for (const auto& s : trace.sessions) {
    if (s.start >= 86400.0 - 1.0) ++last_second;
  }
  EXPECT_LT(last_second, 25u);

  // Same seed, wider span: every session kept by the 1-day run matches
  // its 2-day counterpart field-for-field (the drop consumed the same
  // draws), and the extra sessions are exactly the late joiners.
  LiveEventConfig wide = config;
  wide.span_days = 2;
  const Trace full = generate_live_event(metro(), wide, 5);
  EXPECT_GT(full.size(), trace.size());
  std::map<std::uint32_t, const SessionRecord*> by_user;
  for (const auto& s : full.sessions) by_user[s.user] = &s;
  for (const auto& s : trace.sessions) {
    ASSERT_TRUE(by_user.count(s.user));
    const SessionRecord& f = *by_user[s.user];
    EXPECT_EQ(s.isp, f.isp);
    EXPECT_EQ(s.bitrate, f.bitrate);
    EXPECT_DOUBLE_EQ(s.start, f.start);
    // Durations may differ only by the 1-day span clamp.
    EXPECT_LE(s.duration, f.duration + 1e-9);
  }
}

TEST(Live, MetroSurvivesCsvRoundTrip) {
  LiveEventConfig config;
  config.viewers = 50;
  const Trace trace = generate_live_event(metro(), config, 5);
  const std::string path = test::unique_temp_path("cl_live_metro.csv");
  write_trace_file(path, trace);
  const Trace back = read_trace_file(path);
  std::filesystem::remove(path);
  EXPECT_EQ(back.metro_name, metro().name());
  ASSERT_EQ(back.size(), trace.size());
}

// ---- edge cache ----

TEST(LruSet, HitsAndEvictions) {
  LruSet lru(2);
  EXPECT_FALSE(lru.touch(1));
  EXPECT_FALSE(lru.touch(2));
  EXPECT_TRUE(lru.touch(1));   // refreshes 1; order now [1, 2]
  EXPECT_FALSE(lru.touch(3));  // evicts 2
  EXPECT_TRUE(lru.touch(1));
  EXPECT_FALSE(lru.touch(2));  // 2 was evicted
  EXPECT_EQ(lru.size(), 2u);
}

TEST(LruSet, CapacityOneThrashes) {
  LruSet lru(1);
  EXPECT_FALSE(lru.touch(1));
  EXPECT_TRUE(lru.touch(1));
  EXPECT_FALSE(lru.touch(2));
  EXPECT_FALSE(lru.touch(1));
}

TEST(LruSet, RejectsZeroCapacity) {
  EXPECT_THROW(LruSet(0), InvalidArgument);
}

TEST(EdgeCache, HitRatePositiveOnSkewedCatalogue) {
  const Trace trace = base_trace();
  EdgeCacheSimulator sim(metro(), SimConfig{}, EdgeCacheConfig{});
  const auto outcome = sim.run(trace);
  EXPECT_GT(outcome.hit_rate(), 0.0);
  EXPECT_LT(outcome.hit_rate(), 1.0);
  EXPECT_EQ(outcome.hits + outcome.misses, trace.size());
}

TEST(EdgeCache, BiggerCacheNeverHurtsHitRate) {
  const Trace trace = base_trace();
  EdgeCacheSimulator small(metro(), SimConfig{},
                           EdgeCacheConfig{.capacity_per_exp = 2});
  EdgeCacheSimulator large(metro(), SimConfig{},
                           EdgeCacheConfig{.capacity_per_exp = 100});
  EXPECT_GE(large.run(trace).hit_rate(), small.run(trace).hit_rate());
}

TEST(EdgeCache, CachePsiCheaperThanServer) {
  for (const auto& p : standard_params()) {
    const CostFunctions costs(p);
    EXPECT_LT(EdgeCacheSimulator::cache_psi(p).value(),
              costs.psi_server().value());
  }
}

TEST(EdgeCache, SavingsBeatPureCdn) {
  const Trace trace = base_trace();
  EdgeCacheSimulator sim(metro(), SimConfig{}, EdgeCacheConfig{});
  const auto outcome = sim.run(trace);
  for (const auto& p : standard_params()) {
    EXPECT_GT(EdgeCacheSimulator::savings(outcome, p), 0.0) << p.name;
  }
}

TEST(EdgeCache, CachePlusP2pBeatsCacheAlone) {
  const Trace trace = base_trace();
  EdgeCacheSimulator with_p2p(metro(), SimConfig{},
                              EdgeCacheConfig{.misses_use_p2p = true});
  EdgeCacheSimulator without_p2p(metro(), SimConfig{},
                                 EdgeCacheConfig{.misses_use_p2p = false});
  const auto a = with_p2p.run(trace);
  const auto b = without_p2p.run(trace);
  const auto p = valancius_params();
  EXPECT_GT(EdgeCacheSimulator::savings(a, p),
            EdgeCacheSimulator::savings(b, p));
}

TEST(EdgeCache, VolumeConserved) {
  const Trace trace = base_trace();
  EdgeCacheSimulator sim(metro(), SimConfig{}, EdgeCacheConfig{});
  const auto outcome = sim.run(trace);
  // Cache bits + miss-sim bits ≈ full useful volume (windowing loses a
  // little of the miss traffic only).
  const double recovered = outcome.cache_bits.value() +
                           outcome.miss_sim.total.total().value();
  EXPECT_NEAR(recovered / trace.total_volume().value(), 1.0, 0.02);
}

}  // namespace
}  // namespace cl
