// Tests for util/parallel.h and the sharded generation/analysis paths.
//
// The project's parallelism contract is *bit-identical results for every
// thread count* — these tests pin that contract with exact (==) floating
// point comparisons, not tolerances.
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "sim/swarm_sweep.h"
#include "trace/swarm_index.h"
#include "trace/synthetic.h"
#include "trace/trace_stats.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cl {
namespace {

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

TraceConfig small_config(unsigned threads) {
  TraceConfig config;
  config.days = 3;
  config.users = 2000;
  config.exemplar_views = {10000, 1000};
  config.catalogue_tail = 200;
  config.tail_views = 15000;
  config.threads = threads;
  return config;
}

TEST(ResolveThreads, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
  // Clamped to the amount of available work.
  EXPECT_EQ(resolve_threads(8, 2), 2u);
  EXPECT_EQ(resolve_threads(8, 0), 8u);
}

TEST(ParallelShards, CoversRangeExactlyOnce) {
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    std::vector<std::atomic<int>> hits(101);
    parallel_shards(hits.size(), threads,
                    [&](unsigned, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        hits[i].fetch_add(1);
                      }
                    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelShards, ShardRangesAscendWithShardIndex) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges(4);
  parallel_shards(10, 4, [&](unsigned shard, std::size_t b, std::size_t e) {
    ranges[shard] = {b, e};
  });
  std::size_t expect_begin = 0;
  for (const auto& [b, e] : ranges) {
    EXPECT_EQ(b, expect_begin);
    EXPECT_LE(b, e);
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, 10u);
}

TEST(ParallelShards, PropagatesWorkerExceptions) {
  EXPECT_THROW(
      parallel_shards(100, 4,
                      [](unsigned, std::size_t begin, std::size_t) {
                        if (begin > 0) throw std::runtime_error("boom");
                      }),
      std::runtime_error);
}

TEST(ParallelForDynamic, CallsEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    std::vector<std::atomic<int>> hits(101);
    parallel_for_dynamic(hits.size(), threads,
                         [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  parallel_for_dynamic(0, 4, [](std::size_t) { FAIL() << "n = 0 ran"; });
}

TEST(ParallelForDynamic, PropagatesWorkerExceptions) {
  EXPECT_THROW(parallel_for_dynamic(100, 4,
                                    [](std::size_t i) {
                                      if (i == 57) {
                                        throw std::runtime_error("boom");
                                      }
                                    }),
               std::runtime_error);
}

TEST(ParallelChunkedReduce, SumBitIdenticalAcrossThreadCounts) {
  // Values with spread magnitudes so FP addition order matters.
  std::vector<double> xs(10000);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = (i % 7 == 0 ? 1e12 : 1e-3) / static_cast<double>(i + 1);
  }
  const auto reduce = [&](unsigned threads) {
    return parallel_chunked_reduce(
        xs.size(), threads, [] { return 0.0; },
        [&](double& acc, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) acc += xs[i];
        },
        [](double& total, const double& chunk) { total += chunk; },
        /*chunk_len=*/256);
  };
  const double reference = reduce(1);
  for (unsigned threads : {2u, 3u, 8u}) {
    EXPECT_EQ(reduce(threads), reference);
  }
}

TEST(ParallelChunkedReduce, RunningStatsMergeBitIdentical) {
  std::vector<double> xs(5000);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = std::sin(static_cast<double>(i)) * 1e6;
  }
  const auto reduce = [&](unsigned threads) {
    return parallel_chunked_reduce(
        xs.size(), threads, [] { return RunningStats{}; },
        [&](RunningStats& acc, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) acc.add(xs[i]);
        },
        [](RunningStats& total, const RunningStats& chunk) {
          total.merge(chunk);
        },
        /*chunk_len=*/512);
  };
  const RunningStats reference = reduce(1);
  for (unsigned threads : {2u, 4u, 8u}) {
    const RunningStats stats = reduce(threads);
    EXPECT_EQ(stats.count(), reference.count());
    EXPECT_EQ(stats.mean(), reference.mean());
    EXPECT_EQ(stats.variance(), reference.variance());
    EXPECT_EQ(stats.min(), reference.min());
    EXPECT_EQ(stats.max(), reference.max());
  }
}

TEST(ShardedGeneration, TraceBitIdenticalAcrossThreadCounts) {
  const Trace reference =
      TraceGenerator(small_config(1), metro()).generate();
  for (unsigned threads : {2u, 4u, 8u}) {
    const Trace trace =
        TraceGenerator(small_config(threads), metro()).generate();
    ASSERT_EQ(trace.size(), reference.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto& a = trace.sessions[i];
      const auto& b = reference.sessions[i];
      ASSERT_EQ(a.user, b.user) << "i=" << i;
      ASSERT_EQ(a.household, b.household);
      ASSERT_EQ(a.content, b.content);
      ASSERT_EQ(a.isp, b.isp);
      ASSERT_EQ(a.exp, b.exp);
      ASSERT_EQ(a.bitrate, b.bitrate);
      // Exact equality on purpose: the sharding contract is bit-identity.
      ASSERT_EQ(a.start, b.start);
      ASSERT_EQ(a.duration, b.duration);
    }
  }
}

TEST(ShardedGeneration, AggregateStatsBitIdentical) {
  const TraceStats reference =
      compute_stats(TraceGenerator(small_config(1), metro()).generate());
  const TraceStats sharded =
      compute_stats(TraceGenerator(small_config(8), metro()).generate());
  EXPECT_EQ(sharded.sessions, reference.sessions);
  EXPECT_EQ(sharded.distinct_users, reference.distinct_users);
  EXPECT_EQ(sharded.distinct_households, reference.distinct_households);
  EXPECT_EQ(sharded.distinct_contents, reference.distinct_contents);
  EXPECT_EQ(sharded.total_watch_time.value(),
            reference.total_watch_time.value());
  EXPECT_EQ(sharded.total_volume.value(), reference.total_volume.value());
  EXPECT_EQ(sharded.mean_concurrency, reference.mean_concurrency);
}

TEST(ParallelChunkedReduce, StatefulVariantReusesWorkerState) {
  // Each worker's scratch is constructed once and reused across chunks;
  // the reduction result must not depend on the state or thread count.
  for (unsigned threads : {1u, 2u, 8u}) {
    std::atomic<int> states_built{0};
    const auto sum = parallel_chunked_reduce_stateful(
        1000, threads,
        [&] {
          states_built.fetch_add(1);
          return std::vector<int>{};  // scratch buffer
        },
        [] { return std::int64_t{0}; },
        [](std::vector<int>& scratch, std::int64_t& acc, std::size_t begin,
           std::size_t end) {
          scratch.clear();
          for (std::size_t i = begin; i < end; ++i) {
            scratch.push_back(static_cast<int>(i));
          }
          for (int v : scratch) acc += v;
        },
        [](std::int64_t& total, const std::int64_t& chunk) { total += chunk; },
        /*chunk_len=*/64);
    EXPECT_EQ(sum, 1000u * 999u / 2);
    EXPECT_LE(states_built.load(), static_cast<int>(resolve_threads(threads)));
    EXPECT_GE(states_built.load(), 1);
  }
}

/// Exact-equality comparison of two full SimResults (total, hourly grids,
/// per-user map, per-swarm entries) — the simulator's bit-identity
/// contract across thread counts.
void expect_sim_result_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.span.value(), b.span.value());
  EXPECT_EQ(a.total.server.value(), b.total.server.value());
  EXPECT_EQ(a.total.cross_isp.value(), b.total.cross_isp.value());
  for (std::size_t l = 0; l < kLocalityLevels; ++l) {
    EXPECT_EQ(a.total.peer[l].value(), b.total.peer[l].value());
  }

  ASSERT_EQ(a.hourly.size(), b.hourly.size());
  for (std::size_t h = 0; h < a.hourly.size(); ++h) {
    ASSERT_EQ(a.hourly[h].size(), b.hourly[h].size());
    for (std::size_t i = 0; i < a.hourly[h].size(); ++i) {
      EXPECT_EQ(a.hourly[h][i].server.value(), b.hourly[h][i].server.value());
      EXPECT_EQ(a.hourly[h][i].cross_isp.value(),
                b.hourly[h][i].cross_isp.value());
      for (std::size_t l = 0; l < kLocalityLevels; ++l) {
        EXPECT_EQ(a.hourly[h][i].peer[l].value(),
                  b.hourly[h][i].peer[l].value());
      }
    }
  }

  ASSERT_EQ(a.users.size(), b.users.size());
  for (const auto& [user, traffic] : a.users) {
    const auto it = b.users.find(user);
    ASSERT_NE(it, b.users.end()) << "user " << user;
    EXPECT_EQ(traffic.downloaded.value(), it->second.downloaded.value());
    EXPECT_EQ(traffic.uploaded.value(), it->second.uploaded.value());
  }

  ASSERT_EQ(a.swarms.size(), b.swarms.size());
  for (std::size_t s = 0; s < a.swarms.size(); ++s) {
    EXPECT_EQ(a.swarms[s].key.packed(), b.swarms[s].key.packed());
    EXPECT_EQ(a.swarms[s].sessions, b.swarms[s].sessions);
    EXPECT_EQ(a.swarms[s].capacity, b.swarms[s].capacity);
    EXPECT_EQ(a.swarms[s].traffic.server.value(),
              b.swarms[s].traffic.server.value());
    EXPECT_EQ(a.swarms[s].traffic.cross_isp.value(),
              b.swarms[s].traffic.cross_isp.value());
    for (std::size_t l = 0; l < kLocalityLevels; ++l) {
      EXPECT_EQ(a.swarms[s].traffic.peer[l].value(),
                b.swarms[s].traffic.peer[l].value());
    }
  }
}

SimResult run_sim(const Trace& trace, unsigned threads) {
  SimConfig config;  // all collection toggles on
  config.threads = threads;
  static const Metro& m = metro();
  return HybridSimulator(m, config).run(trace);
}

TEST(ShardedSimulator, SimResultBitIdenticalAcrossThreadCounts) {
  // Multi-swarm trace: several contents × ISPs × bitrates.
  const Trace trace = TraceGenerator(small_config(0), metro()).generate();
  const SimResult reference = run_sim(trace, 1);
  ASSERT_GT(reference.swarms.size(), 8u);  // genuinely multi-swarm
  // 0 = all hardware threads.
  for (unsigned threads : {2u, 7u, 0u}) {
    const SimResult result = run_sim(trace, threads);
    expect_sim_result_identical(result, reference);
  }
}

TEST(ShardedSimulator, SwarmsStayKeySortedAtEveryThreadCount) {
  const Trace trace = TraceGenerator(small_config(0), metro()).generate();
  for (unsigned threads : {1u, 4u}) {
    const SimResult result = run_sim(trace, threads);
    for (std::size_t s = 1; s < result.swarms.size(); ++s) {
      EXPECT_LT(result.swarms[s - 1].key.packed(),
                result.swarms[s].key.packed());
    }
  }
}

TEST(ShardedSimulator, EmptyTraceIdenticalAcrossThreadCounts) {
  const Trace empty{{}, Seconds{86400.0}, {}, {}};
  const SimResult reference = run_sim(empty, 1);
  EXPECT_EQ(reference.total.total().value(), 0.0);
  EXPECT_TRUE(reference.swarms.empty());
  EXPECT_TRUE(reference.users.empty());
  expect_sim_result_identical(run_sim(empty, 4), reference);
}

TEST(ShardedSimulator, SingleSwarmIdenticalAcrossThreadCounts) {
  // One content, one ISP, one bitrate: exactly one swarm — the sharded
  // path degenerates to a single chunk but must still match.
  std::vector<SessionRecord> sessions;
  for (std::uint32_t u = 0; u < 40; ++u) {
    SessionRecord s;
    s.user = u;
    s.household = u;
    s.content = 0;
    s.isp = 0;
    s.exp = u % 5;
    s.bitrate = BitrateClass::kSd;
    s.start = 100.0 * u;
    s.duration = 900.0;
    sessions.push_back(s);
  }
  const Trace trace{std::move(sessions), Seconds{86400.0}, {}, {}};
  const SimResult reference = run_sim(trace, 1);
  ASSERT_EQ(reference.swarms.size(), 1u);
  expect_sim_result_identical(run_sim(trace, 4), reference);
}

TEST(ShardedSimulator, AllSubWindowSessionsIdenticalAcrossThreadCounts) {
  // Every session is shorter than one Δτ window: no traffic moves, but
  // swarm entries (sessions, capacity) are still collected and must be
  // identical at every thread count.
  std::vector<SessionRecord> sessions;
  for (std::uint32_t u = 0; u < 30; ++u) {
    SessionRecord s;
    s.user = u;
    s.household = u;
    s.content = u % 6;
    s.isp = u % 3;
    s.exp = 0;
    s.bitrate = BitrateClass::kSd;
    s.start = 50.0 * u + 2.0;
    s.duration = 4.0;  // < the 10 s default window
    sessions.push_back(s);
  }
  const Trace trace{std::move(sessions), Seconds{86400.0}, {}, {}};
  const SimResult reference = run_sim(trace, 1);
  EXPECT_EQ(reference.total.total().value(), 0.0);
  EXPECT_FALSE(reference.swarms.empty());
  for (const auto& swarm : reference.swarms) {
    EXPECT_GT(swarm.capacity, 0.0);
  }
  expect_sim_result_identical(run_sim(trace, 7), reference);
}

TEST(SimResultMerge, SumsConcatenatesAndFolds) {
  SimResult a, b;
  a.span = Seconds{86400.0};
  b.span = Seconds{2 * 86400.0};
  a.total.server = Bits{100.0};
  b.total.server = Bits{23.0};
  a.total.peer[0] = Bits{7.0};
  b.total.peer[0] = Bits{5.0};
  b.total.cross_isp = Bits{3.0};

  // Differently sized hourly grids: merge grows to the larger shape.
  a.hourly.assign(1, std::vector<TrafficBreakdown>(2));
  a.hourly[0][1].server = Bits{11.0};
  b.hourly.assign(2, std::vector<TrafficBreakdown>(2));
  b.hourly[0][1].server = Bits{2.0};
  b.hourly[1][0].server = Bits{9.0};

  a.users[7] = {Bits{10.0}, Bits{1.0}};
  b.users[7] = {Bits{20.0}, Bits{2.0}};
  b.users[9] = {Bits{5.0}, Bits{0.0}};

  SwarmResult s1, s2;
  s1.key = SwarmKey{.content = 1, .isp = 0, .bitrate = 1};
  s2.key = SwarmKey{.content = 2, .isp = 0, .bitrate = 1};
  a.swarms = {s1};
  b.swarms = {s2};

  a.merge(b);
  EXPECT_EQ(a.span.value(), 2 * 86400.0);
  EXPECT_EQ(a.total.server.value(), 123.0);
  EXPECT_EQ(a.total.peer[0].value(), 12.0);
  EXPECT_EQ(a.total.cross_isp.value(), 3.0);
  ASSERT_EQ(a.hourly.size(), 2u);
  EXPECT_EQ(a.hourly[0][1].server.value(), 13.0);
  EXPECT_EQ(a.hourly[1][0].server.value(), 9.0);
  ASSERT_EQ(a.users.size(), 2u);
  EXPECT_EQ(a.users[7].downloaded.value(), 30.0);
  EXPECT_EQ(a.users[7].uploaded.value(), 3.0);
  EXPECT_EQ(a.users[9].downloaded.value(), 5.0);
  ASSERT_EQ(a.swarms.size(), 2u);
  EXPECT_EQ(a.swarms[0].key.packed(), s1.key.packed());
  EXPECT_EQ(a.swarms[1].key.packed(), s2.key.packed());
}

TEST(SimResultMerge, MergingEmptyPartialIsIdentity) {
  SimResult a;
  a.total.server = Bits{42.0};
  a.hourly.assign(1, std::vector<TrafficBreakdown>(1));
  a.hourly[0][0].server = Bits{42.0};
  a.users[1] = {Bits{42.0}, Bits{0.0}};
  const SimResult empty;
  a.merge(empty);
  EXPECT_EQ(a.total.server.value(), 42.0);
  ASSERT_EQ(a.hourly.size(), 1u);
  EXPECT_EQ(a.hourly[0][0].server.value(), 42.0);
  EXPECT_EQ(a.users.size(), 1u);
  EXPECT_TRUE(a.swarms.empty());
}

TEST(ShardedSimulator, OversizedSwarmGuardIsInPlace) {
  // The sweep refuses swarms whose session count would not fit the
  // int32_t `pos` bookkeeping. Building a >2B-session trace is not
  // feasible in a test, so pin the guard at the unit level: SwarmSweep
  // itself must throw on an index span larger than INT32_MAX. The span
  // lies about its extent (the guard fires before any element access);
  // its data pointer must still be non-null to satisfy the span
  // valid-range precondition under hardened standard libraries.
  SwarmSweep sweep(metro(), SimConfig{});
  const Trace trace{{}, Seconds{86400.0}, {}, {}};
  const TraceView view = TraceView::from_trace(trace);
  SimResult out;
  static const std::uint32_t dummy = 0;
  const std::span<const std::uint32_t> oversized{
      &dummy,
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()) + 1};
  EXPECT_THROW(sweep.sweep(SwarmKey{}, oversized, view, out),
               InvalidArgument);
  EXPECT_THROW(sweep.sweep_rows(SwarmKey{}, oversized, trace, out),
               InvalidArgument);
}

TEST(ShardedAnalysis, AnalyzerOutputsBitIdenticalAcrossThreadCounts) {
  const Trace trace = TraceGenerator(small_config(0), metro()).generate();

  SimConfig base;
  base.threads = 1;
  const Analyzer reference(metro(), base);
  const auto ref_dist = reference.swarm_distributions(trace);
  const auto ref_agg = reference.aggregate(trace);
  const auto ref_daily = reference.daily_report(trace);

  for (unsigned threads : {2u, 4u, 8u}) {
    SimConfig config;
    config.threads = threads;
    const Analyzer analyzer(metro(), config);

    const auto dist = analyzer.swarm_distributions(trace);
    ASSERT_EQ(dist.capacities.size(), ref_dist.capacities.size());
    EXPECT_EQ(dist.capacities, ref_dist.capacities);
    ASSERT_EQ(dist.savings.size(), ref_dist.savings.size());
    for (std::size_t m = 0; m < dist.savings.size(); ++m) {
      EXPECT_EQ(dist.savings[m], ref_dist.savings[m]);
    }
    EXPECT_EQ(dist.capacity_stats.mean(), ref_dist.capacity_stats.mean());
    EXPECT_EQ(dist.capacity_stats.variance(),
              ref_dist.capacity_stats.variance());
    ASSERT_EQ(dist.savings_stats.size(), ref_dist.savings_stats.size());
    for (std::size_t m = 0; m < dist.savings_stats.size(); ++m) {
      EXPECT_EQ(dist.savings_stats[m].mean(),
                ref_dist.savings_stats[m].mean());
    }

    const auto agg = analyzer.aggregate(trace);
    ASSERT_EQ(agg.size(), ref_agg.size());
    for (std::size_t m = 0; m < agg.size(); ++m) {
      EXPECT_EQ(agg[m].sim_savings, ref_agg[m].sim_savings);
      EXPECT_EQ(agg[m].theory_savings, ref_agg[m].theory_savings);
      EXPECT_EQ(agg[m].offload, ref_agg[m].offload);
    }

    const auto daily = analyzer.daily_report(trace);
    ASSERT_EQ(daily.theory.size(), ref_daily.theory.size());
    EXPECT_EQ(daily.theory, ref_daily.theory);
    EXPECT_EQ(daily.sim, ref_daily.sim);
  }
}

TEST(ParallelChunkedReduce, FoldMatchesSequentialChunkFold) {
  // The fold shape is pinned against an independent reference: sum each
  // fixed-length chunk left to right, then fold the chunk sums left to
  // right. The values mix magnitudes so that any other association (a
  // per-worker or per-node pre-fold, a plain element-wise sum) changes
  // the bits.
  constexpr std::size_t kChunk = 128;
  std::vector<double> xs(20000);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = (i % 5 == 0 ? 1e13 : 1e-4) / static_cast<double>(i + 1);
  }
  double reference = 0.0;
  for (std::size_t begin = 0; begin < xs.size(); begin += kChunk) {
    double chunk = 0.0;
    for (std::size_t i = begin; i < std::min(xs.size(), begin + kChunk); ++i) {
      chunk += xs[i];
    }
    reference += chunk;
  }
  double element_wise = 0.0;
  for (const double x : xs) element_wise += x;
  ASSERT_NE(reference, element_wise) << "inputs do not expose association";

  for (unsigned threads : {1u, 2u, 7u, 0u}) {
    const double sum = parallel_chunked_reduce_stateful(
        xs.size(), threads, [] { return 0; }, [] { return 0.0; },
        [&](int&, double& acc, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) acc += xs[i];
        },
        [](double& total, const double& chunk) { total += chunk; }, kChunk);
    EXPECT_EQ(sum, reference) << "threads=" << threads;
  }
}

TEST(ParallelChunkedReduce, ReduceTimingIsPopulated) {
  ReduceTiming timing;
  const double sum = parallel_chunked_reduce_stateful(
      5000, 2, [] { return 0; }, [] { return 0.0; },
      [](int&, double& acc, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          acc += static_cast<double>(i);
        }
      },
      [](double& total, const double& chunk) { total += chunk; },
      /*chunk_len=*/64, &timing);
  EXPECT_EQ(sum, 5000.0 * 4999.0 / 2.0);
  EXPECT_GE(timing.work_seconds, 0.0);
  EXPECT_GE(timing.merge_seconds, 0.0);
}

TEST(ShardedSimulator, SimPhaseTimingIsPopulated) {
  const Trace trace = TraceGenerator(small_config(0), metro()).generate();
  const TraceView view = TraceView::from_trace(trace, 2);
  SimConfig config;
  config.threads = 2;
  SimPhaseTiming timing;
  const SimResult timed = HybridSimulator(metro(), config).run(view, &timing);
  EXPECT_GE(timing.group_seconds, 0.0);
  EXPECT_GE(timing.sweep_seconds, 0.0);
  EXPECT_GE(timing.merge_seconds, 0.0);
  // Asking for timing must not perturb the simulation itself.
  const SimResult untimed = HybridSimulator(metro(), config).run(view);
  EXPECT_EQ(timed.total.server.value(), untimed.total.server.value());
  EXPECT_EQ(timed.total.peer_total().value(),
            untimed.total.peer_total().value());
}

TEST(ShardedSimulator, StretchCountsNameTheRouteAndIgnoreThreads) {
  // Three contents × two bitrates, each swarm holding peers of both ISPs
  // 0 and 1, so under isp_friendly = false every swarm spans ISPs.
  Rng rng(5);
  std::vector<SessionRecord> sessions;
  for (std::uint32_t u = 0; u < 600; ++u) {
    SessionRecord s;
    s.user = u;
    s.household = u;
    s.content = (u / 4) % 3;
    s.isp = u % 2;
    s.bitrate = (u / 2) % 2 == 0 ? BitrateClass::kSd : BitrateClass::kHd;
    s.exp = static_cast<std::uint32_t>(rng.uniform_index(5));
    s.start = rng.uniform(0.0, 6 * 3600.0);
    s.duration = rng.exponential(1.0 / 1200.0);
    sessions.push_back(s);
  }
  std::sort(sessions.begin(), sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.start < b.start;
            });
  Trace trace{std::move(sessions), Seconds{86400.0}, {}, {}};
  trace.swarm_index = build_swarm_index(trace);
  const TraceView view = TraceView::from_trace(trace);

  const auto counts = [&](SimConfig config, unsigned threads) {
    config.threads = threads;
    SimPhaseTiming timing;
    (void)HybridSimulator(metro(), config).run(view, &timing);
    return std::array<std::uint64_t, 3>{timing.count_stretches,
                                        timing.per_peer_stretches,
                                        timing.overload_split_stretches};
  };
  SimConfig overload;
  overload.overload = true;
  SimConfig cross_isp;
  cross_isp.isp_friendly = false;
  SimConfig capacity;
  capacity.matcher = MatcherKind::kCapacity;
  for (const SimConfig& config :
       {SimConfig{}, overload, cross_isp, capacity}) {
    EXPECT_EQ(counts(config, 1), counts(config, 4));
  }
  // The default config sweeps every stretch on the count route...
  const auto plain = counts(SimConfig{}, 1);
  EXPECT_GT(plain[0], 0u);
  EXPECT_EQ(plain[1], 0u);
  EXPECT_EQ(plain[2], 0u);
  // ...and so does the overload model, splitting some stretches.
  const auto capped = counts(overload, 1);
  EXPECT_EQ(capped[0], plain[0]);
  EXPECT_EQ(capped[1], 0u);
  EXPECT_GT(capped[2], 0u);
  // ISP-spanning swarms and the capacity matcher go per-peer.
  const auto spanning = counts(cross_isp, 1);
  EXPECT_EQ(spanning[0], 0u);
  EXPECT_GT(spanning[1], 0u);
  const auto greedy = counts(capacity, 1);
  EXPECT_EQ(greedy[0], 0u);
  EXPECT_EQ(greedy[1], plain[0]);
}

}  // namespace
}  // namespace cl
