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
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "ext/live.h"
#include "sim/swarm_sweep.h"
#include "trace/swarm_index.h"
#include "trace/synthetic.h"
#include "trace/trace_stats.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

#include "sim_equal.h"

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

SimResult run_sim(const Trace& trace, unsigned threads) {
  SimConfig config;  // all collection toggles on
  config.threads = threads;
  static const Metro& m = metro();
  return HybridSimulator(m, config).run(TraceView::from_trace(trace));
}

TEST(ShardedSimulator, SimResultBitIdenticalAcrossThreadCounts) {
  // Multi-swarm trace: several contents × ISPs × bitrates.
  const Trace trace = TraceGenerator(small_config(0), metro()).generate();
  const SimResult reference = run_sim(trace, 1);
  ASSERT_GT(reference.swarms.size(), 8u);  // genuinely multi-swarm
  // 0 = all hardware threads.
  for (unsigned threads : {2u, 7u, 0u}) {
    const SimResult result = run_sim(trace, threads);
    test::expect_sim_identical(result, reference);
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
  test::expect_sim_identical(run_sim(empty, 4), reference);
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
  test::expect_sim_identical(run_sim(trace, 4), reference);
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
  test::expect_sim_identical(run_sim(trace, 7), reference);
}

/// One swarm of nine viewers of `content` in ISP 0 from `first_start`
/// on, joining three to a window so the overload cap spills. Users are
/// numbered per content, except that user 42 watches every swarm.
/// The simulator's columns for one day of `sessions`.
TraceView day_view(std::vector<SessionRecord> sessions) {
  return TraceView::from_trace(
      Trace{std::move(sessions), Seconds{86400.0}, {}, {}});
}

std::vector<SessionRecord> fold_swarm(std::uint32_t content,
                                      double first_start) {
  std::vector<SessionRecord> sessions;
  for (std::uint32_t u = 0; u < 9; ++u) {
    SessionRecord s;
    s.user = u == 4 ? 42 : 1000 * (content + 1) + u;
    s.household = s.user;
    s.content = content;
    s.exp = (u * 7 + content) % 9;
    s.bitrate = BitrateClass::kSd;
    s.start = first_start + 10.0 * (u / 3);
    s.duration = 600.0 + 97.0 * u;
    sessions.push_back(s);
  }
  return sessions;
}

TEST(SimResultMerge, SumsConcatenatesAndFolds) {
  // The simulator folds its chunk partials in ascending swarm-key order:
  // `total` and the overload spill are ((0 + c₀) + c₁) + … over the
  // chunks, the swarm rows concatenate in key order, and the per-user
  // lists concatenate and settle into one column. Each of the four swarms
  // reaches the chunk target on its own (sweep_chunk_bounds), so each is
  // a chunk, and each chunk's cᵢ is what a run of that swarm alone
  // reports.
  for (const MatcherKind matcher :
       {MatcherKind::kExistence, MatcherKind::kCapacity}) {
    SCOPED_TRACE(matcher == MatcherKind::kExistence ? "count route"
                                                    : "per-peer route");
    SimConfig config;
    config.matcher = matcher;
    config.overload = true;
    std::vector<SessionRecord> all;
    SimResult want;
    for (std::uint32_t content = 0; content < 4; ++content) {
      const auto part = fold_swarm(content, 97.0 * content);
      all.insert(all.end(), part.begin(), part.end());
      const SimResult alone = HybridSimulator(metro(), config)
                                  .run(day_view(part));
      ASSERT_EQ(alone.swarms.size(), 1u);
      want.total += alone.total;
      want.overload_spill += alone.overload_spill;
      want.swarms.push_back(alone.swarms[0]);
      want.users.insert(want.users.end(), alone.users.begin(),
                        alone.users.end());
    }
    want.settle_users();
    EXPECT_GT(want.overload_spill.value(), 0.0);
    for (const unsigned threads : {1u, 3u}) {
      SCOPED_TRACE(threads);
      config.threads = threads;
      const SimResult full = HybridSimulator(metro(), config)
                                 .run(day_view(all));
      EXPECT_EQ(full.config.threads, threads);
      EXPECT_TRUE(full.config.overload);
      ASSERT_EQ(full.hourly.size(), 24u);
      want.span = full.span;
      want.hourly = full.hourly;
      want.hourly_spill = full.hourly_spill;
      EXPECT_EQ(full.span.value(), 86400.0);
      test::expect_sim_identical(full, want);
    }
  }
}

TEST(SimResultMerge, MergingEmptyPartialIsIdentity) {
  // A chunk that moves no traffic — a swarm whose sessions all end inside
  // their first window — folds as the identity: its swarm row is the only
  // change to the run's result, in the middle of the fold as at its end.
  SimConfig config;
  config.overload = true;
  const auto run =
      [&](std::initializer_list<std::vector<SessionRecord>> parts) {
        std::vector<SessionRecord> sessions;
        for (const auto& part : parts) {
          sessions.insert(sessions.end(), part.begin(), part.end());
        }
        return HybridSimulator(metro(), config).run(day_view(sessions));
      };
  const auto a = fold_swarm(0, 0.0);
  const auto c = fold_swarm(2, 113.0);
  const SimResult without = run({a, c});
  for (const std::uint32_t content : {1u, 3u}) {
    SCOPED_TRACE(content);
    auto idle = fold_swarm(content, 50.0);
    for (SessionRecord& s : idle) s.duration = 4.0;  // < the 10 s window
    SimResult with = run({a, idle, c});
    ASSERT_EQ(with.swarms.size(), 3u);
    const std::size_t row = content == 1 ? 1 : 2;
    EXPECT_EQ(with.swarms[row].key.content, content);
    EXPECT_EQ(with.swarms[row].traffic.total().value(), 0.0);
    with.swarms.erase(with.swarms.begin() + static_cast<std::ptrdiff_t>(row));
    test::expect_sim_identical(with, without);
  }
}

TEST(SimResultMerge, SettleFoldsEachUserFromZeroInListOrder) {
  // Concatenated chunk lists with repeated users, small and large, with
  // user ids up to 2^32 − 1 (three radix passes). Every
  // settled total must be the left fold ((0 + c0) + c1) + … over that
  // user's entries in list order — values of very different magnitude
  // make any other order round differently.
  Rng rng(23);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{256}, std::size_t{20000}}) {
    SimResult r;
    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0; i < 64; ++i) {
      ids.push_back(static_cast<std::uint32_t>(rng()));
    }
    ids.push_back(0);
    ids.push_back(std::numeric_limits<std::uint32_t>::max());
    std::map<std::uint32_t, std::pair<Bits, Bits>> want;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t user = ids[rng.uniform_index(ids.size())];
      const double scale = rng.bernoulli(0.1) ? 1e16 : 1.0;
      UserTraffic entry;
      entry.user = user;
      entry.downloaded = Bits{scale * rng.uniform(0.5, 1.5)};
      entry.uploaded = Bits{rng.uniform(0.0, 3.0) / scale};
      r.users.push_back(entry);
      auto& [down, up] = want[user];
      down += entry.downloaded;
      up += entry.uploaded;
    }
    r.settle_users();
    test::expect_users_settled(r);
    ASSERT_EQ(r.users.size(), want.size()) << n;
    auto it = want.begin();
    for (const UserTraffic& got : r.users) {
      ASSERT_EQ(got.user, it->first);
      EXPECT_EQ(got.downloaded.value(), it->second.first.value()) << n;
      EXPECT_EQ(got.uploaded.value(), it->second.second.value()) << n;
      ++it;
    }
  }
}

TEST(ShardedSimulator, UserAcrossChunksSettlesAsChunkThenFold) {
  // User 42 watches swarm A twice and swarms B and C once each. Each
  // swarm reaches the chunk target on its own (sweep_chunk_bounds), so
  // each is a chunk: A's chunk sums the user's two sessions in its
  // scratch and the settle folds the three chunk sums. Each chunk sum is
  // what a run of that swarm alone reports.
  const auto swarm_sessions = [](std::uint32_t content, double first_start) {
    std::vector<SessionRecord> sessions;
    for (std::uint32_t u = 0; u < 12; ++u) {
      SessionRecord s;
      s.user = 100 * (content + 1) + u;
      s.household = s.user;
      s.content = content;
      s.exp = (u * 7 + content) % 9;
      s.bitrate = BitrateClass::kSd;
      s.start = first_start + 37.0 * u;
      s.duration = 300.0 + 53.0 * u;
      sessions.push_back(s);
    }
    sessions[3].user = 42;
    if (content == 0) sessions[9].user = 42;
    return sessions;
  };
  std::vector<std::vector<SessionRecord>> swarms = {
      swarm_sessions(0, 0.0), swarm_sessions(1, 113.0),
      swarm_sessions(2, 257.0)};
  std::vector<SessionRecord> all;
  for (const auto& s : swarms) all.insert(all.end(), s.begin(), s.end());
  const auto user_42 = [](const SimResult& r) {
    test::expect_users_settled(r);
    const auto it = std::find_if(
        r.users.begin(), r.users.end(),
        [](const UserTraffic& t) { return t.user == 42; });
    EXPECT_NE(it, r.users.end());
    return it == r.users.end() ? UserTraffic{} : *it;
  };
  for (const MatcherKind matcher :
       {MatcherKind::kExistence, MatcherKind::kCapacity}) {
    SimConfig config;
    config.matcher = matcher;
    Bits down;
    Bits up;
    for (const auto& s : swarms) {
      const SimResult alone = HybridSimulator(metro(), config).run(day_view(s));
      ASSERT_EQ(alone.swarms.size(), 1u);
      const UserTraffic chunk = user_42(alone);
      down += chunk.downloaded;
      up += chunk.uploaded;
    }
    for (const unsigned threads : {1u, 3u}) {
      config.threads = threads;
      const SimResult full =
          HybridSimulator(metro(), config).run(day_view(all));
      ASSERT_EQ(full.swarms.size(), 3u);
      const UserTraffic settled = user_42(full);
      EXPECT_EQ(settled.downloaded.value(), down.value());
      EXPECT_EQ(settled.uploaded.value(), up.value());
      EXPECT_GT(settled.uploaded.value(), 0.0);
    }
  }
}

TEST(ShardedSimulator, HourlyBlocksStayBitIdenticalAndApart) {
  // Each worker folds its chunk's hourly traffic into one flat
  // [hour × ISP] grid and hands the touched hours over as one block when
  // the chunk ends. Swarm A (ISP 0) plays only in the first of 48 hours,
  // swarm B (ISP 1) only in the last, swarm C (ISP 1) in both, so C's
  // block spans every hour, traffic-free ones included. Each swarm
  // reaches the chunk target on its own (sweep_chunk_bounds), so the
  // three are three chunks, which one worker sweeps back to back at
  // threads 1: a chunk that inherited the previous one's cells would
  // count them twice. Viewers join three to a window, so the overload
  // cap spills in both hours.
  constexpr double kSpan = 2 * 86400.0;
  constexpr double kLastHour = kSpan - 3600.0;
  const auto sessions_at = [](std::uint32_t content, std::uint32_t isp,
                              double hour_start) {
    std::vector<SessionRecord> sessions;
    for (std::uint32_t u = 0; u < 9; ++u) {
      SessionRecord s;
      s.user = 1000 * (content + 1) + u + (hour_start > 0 ? 100 : 0);
      s.household = s.user;
      s.content = content;
      s.isp = isp;
      s.exp = (u * 7 + content) % 9;
      s.bitrate = BitrateClass::kSd;
      s.start = hour_start + 10.0 * (u / 3);
      s.duration = 600.0 + 97.0 * u;
      sessions.push_back(s);
    }
    return sessions;
  };
  const auto trace_of =
      [&](std::initializer_list<std::vector<SessionRecord>> parts) {
        std::vector<SessionRecord> sessions;
        for (const auto& part : parts) {
          sessions.insert(sessions.end(), part.begin(), part.end());
        }
        std::stable_sort(sessions.begin(), sessions.end(),
                         [](const SessionRecord& x, const SessionRecord& y) {
                           return x.start < y.start;
                         });
        return Trace{sessions, Seconds{kSpan}, {}, {}};
      };
  const auto a = sessions_at(0, 0, 0.0);
  const auto b = sessions_at(1, 1, kLastHour);
  const auto c0 = sessions_at(2, 1, 0.0);
  const auto c1 = sessions_at(2, 1, kLastHour);
  const Trace full = trace_of({a, b, c0, c1});
  const TraceView view = TraceView::from_trace(full);

  const auto expect_cell = [](const TrafficBreakdown& x,
                              const TrafficBreakdown& y) {
    EXPECT_EQ(x.server.value(), y.server.value());
    EXPECT_EQ(x.cross_isp.value(), y.cross_isp.value());
    for (std::size_t l = 0; l < kLocalityLevels; ++l) {
      EXPECT_EQ(x.peer[l].value(), y.peer[l].value());
    }
  };
  for (const MatcherKind matcher :
       {MatcherKind::kExistence, MatcherKind::kCapacity}) {
    SCOPED_TRACE(matcher == MatcherKind::kExistence ? "count route"
                                                    : "per-peer route");
    SimConfig config;
    config.matcher = matcher;
    config.overload = true;
    SimPhaseTiming timing;
    const SimResult ref = HybridSimulator(metro(), config).run(view, &timing);
    ASSERT_EQ(ref.swarms.size(), 3u);
    ASSERT_EQ(ref.hourly.size(), 48u);
    ASSERT_EQ(ref.hourly_spill.size(), 48u);
    EXPECT_GT(ref.hourly_spill[0].value(), 0.0);
    EXPECT_GT(ref.hourly_spill[47].value(), 0.0);
    if (matcher == MatcherKind::kExistence) {
      EXPECT_GT(timing.count_stretches, 0u);
      EXPECT_EQ(timing.per_peer_stretches, 0u);
    } else {
      EXPECT_EQ(timing.count_stretches, 0u);
      EXPECT_GT(timing.per_peer_stretches, 0u);
      // Both per-peer: the row path must match bit for bit.
      test::expect_sim_identical(
          HybridSimulator(metro(), config).run_rows(full), ref);
    }
    for (const unsigned threads : {2u, 3u, 7u}) {
      SCOPED_TRACE(threads);
      config.threads = threads;
      test::expect_sim_identical(HybridSimulator(metro(), config).run(view),
                                 ref);
    }

    // Each cell is ((0 + c₀) + c₁) + … over the chunks touching it, and
    // a single-swarm run reports each chunk's cᵢ.
    config.threads = 1;
    const auto alone = [&](const Trace& trace) {
      return HybridSimulator(metro(), config).run(TraceView::from_trace(trace));
    };
    const SimResult ra = alone(trace_of({a}));
    const SimResult rb = alone(trace_of({b}));
    const SimResult rc = alone(trace_of({c0, c1}));
    for (std::size_t h = 0; h < 48; ++h) {
      SCOPED_TRACE(h);
      TrafficBreakdown isp0;
      TrafficBreakdown isp1;
      Bits spill;
      if (h == 0) {
        isp0 = ra.hourly[0][0];
        isp1 = rc.hourly[0][1];
        spill = ra.hourly_spill[0] + rc.hourly_spill[0];
      } else if (h == 47) {
        isp1 = rb.hourly[47][1] + rc.hourly[47][1];
        spill = rb.hourly_spill[47] + rc.hourly_spill[47];
      }
      ASSERT_EQ(ref.hourly[h].size(), metro().isp_count());
      expect_cell(ref.hourly[h][0], isp0);
      expect_cell(ref.hourly[h][1], isp1);
      for (std::size_t i = 2; i < metro().isp_count(); ++i) {
        expect_cell(ref.hourly[h][i], TrafficBreakdown{});
      }
      EXPECT_EQ(ref.hourly_spill[h].value(), spill.value());
    }
  }
}

// --- The sweep's chunk rule (sim/hybrid_sim.h sweep_chunk_bounds) ---

std::size_t swarm_weight(std::size_t sessions) {
  return sessions + kSweepSwarmWeight;
}

std::size_t chunk_target(std::span<const std::size_t> sessions) {
  std::size_t total = 0;
  for (const std::size_t n : sessions) total += swarm_weight(n);
  return (total + kSweepChunkCount - 1) / kSweepChunkCount;
}

/// The chunk of `bounds` that holds swarm i.
std::size_t chunk_of(const std::vector<std::size_t>& bounds, std::size_t i) {
  return static_cast<std::size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), i) - bounds.begin() -
      1);
}

TEST(SweepChunks, HeavySwarmSweepsAlone) {
  // 2,000 light swarms and one far heavier than the target, first, in
  // the middle of a chunk's worth of light ones, and last: the chunk
  // before it closes early and the heavy swarm is a chunk of its own.
  for (const std::size_t at : {std::size_t{0}, std::size_t{1},
                               std::size_t{1001}, std::size_t{1999}}) {
    SCOPED_TRACE(at);
    std::vector<std::size_t> sessions(2000, 3);
    sessions[at] = 50000;
    ASSERT_GT(swarm_weight(sessions[at]), chunk_target(sessions));
    const std::vector<std::size_t> bounds = sweep_chunk_bounds(sessions);
    const std::size_t c = chunk_of(bounds, at);
    EXPECT_EQ(bounds[c], at);
    EXPECT_EQ(bounds[c + 1], at + 1);
  }
  // Alone, a swarm is one chunk; no swarms, no chunk.
  EXPECT_EQ(sweep_chunk_bounds(std::vector<std::size_t>{7}),
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(sweep_chunk_bounds({}), (std::vector<std::size_t>{0}));
}

TEST(SweepChunks, ChunkWeightsLieBetweenTargetAndTargetPlusLargest) {
  // Zipf-skewed session counts in key order (not popularity order), from
  // a handful of swarms to more swarms than the rule has chunks. Every
  // chunk weighs at least the target and less than the target plus the
  // largest swarm, except the last, which may weigh less, and one closed
  // early because the swarm after it reaches the target alone.
  Rng rng(41);
  for (const std::size_t n : {std::size_t{1}, std::size_t{9},
                              std::size_t{300}, std::size_t{4000},
                              std::size_t{40000}}) {
    SCOPED_TRACE(n);
    std::vector<std::size_t> sessions(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double rank = static_cast<double>(rng.uniform_index(n) + 1);
      sessions[i] = static_cast<std::size_t>(200000.0 / rank);
    }
    const std::size_t target = chunk_target(sessions);
    std::size_t largest = 0;
    for (const std::size_t s : sessions) {
      largest = std::max(largest, swarm_weight(s));
    }
    const std::vector<std::size_t> bounds = sweep_chunk_bounds(sessions);
    ASSERT_GE(bounds.size(), 2u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), n);
    for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
      ASSERT_LT(bounds[c], bounds[c + 1]);
      std::size_t weight = 0;
      for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
        weight += swarm_weight(sessions[i]);
      }
      EXPECT_LT(weight, target + largest) << c;
      const bool last = c + 2 == bounds.size();
      const bool before_heavy =
          !last && swarm_weight(sessions[bounds[c + 1]]) >= target;
      if (!last && !before_heavy) {
        EXPECT_GE(weight, target) << c;
      }
    }
  }
}

TEST(SweepChunks, FlashCrowdKeepsSingleSwarmChunks) {
  // A synchronized spike's ≈ 20 swarms each outweigh the target, so each
  // sweeps alone, as perfbench flash_ledger and the FlashSpike pins need.
  // The chunk count is the same at every thread count.
  for (const std::uint64_t seed : {1u, 5u, 9u}) {
    for (const double viewers : {2000.0, 40000.0}) {
      SCOPED_TRACE(viewers);
      const Trace trace = generate_flash_crowd(
          metro(), flash_crowd_preset("spike", viewers, 7200.0, 1.0), seed);
      const TraceView view = TraceView::from_trace(trace);
      SimConfig config;
      config.overload = true;
      for (const unsigned threads : {1u, 4u}) {
        config.threads = threads;
        SimPhaseTiming timing;
        const SimResult result =
            HybridSimulator(metro(), config).run(view, &timing);
        EXPECT_EQ(result.swarms.size(), 20u) << seed;
        EXPECT_EQ(timing.chunks, result.swarms.size()) << seed;
        EXPECT_GE(timing.peak_backlog, 1u);
      }
    }
  }
}

TEST(SweepChunks, ChunkCountPinnedAtEveryThreadCount) {
  // A scaled London day: thousands of swarms, cut into about
  // kSweepChunkCount chunks. The count is fixed by the swarm list; the
  // backlog is not pinned, as it depends on the schedule.
  static const Trace trace =
      TraceGenerator(TraceConfig::london_month_scaled(1), metro()).generate();
  const TraceView view = TraceView::from_trace(trace);
  for (const unsigned threads : {1u, 4u}) {
    SimConfig config;
    config.threads = threads;
    SimPhaseTiming timing;
    const SimResult result =
        HybridSimulator(metro(), config).run(view, &timing);
    EXPECT_GT(result.swarms.size(), 4 * timing.chunks);
    EXPECT_EQ(timing.chunks, 451u) << threads;
    EXPECT_GE(timing.peak_backlog, 1u);
    EXPECT_LE(timing.peak_backlog, timing.chunks);
  }
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
  ChunkPartial out;
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
  const TraceView view = TraceView::from_trace(
      TraceGenerator(small_config(0), metro()).generate());

  SimConfig base;
  base.threads = 1;
  const Analyzer reference(metro(), base);
  const SimulateRun ref = run_simulate(reference, view, nullptr, false);
  const auto ref_daily = reference.daily_report(view);

  for (unsigned threads : {2u, 4u, 8u}) {
    SimConfig config;
    config.threads = threads;
    const Analyzer analyzer(metro(), config);

    // The swarm rows (Fig. 3's capacities and per-swarm savings) and
    // every other lane of the run.
    const SimulateRun run = run_simulate(analyzer, view, nullptr, false);
    ASSERT_EQ(run.result.swarms.size(), ref.result.swarms.size());
    test::expect_sim_identical(run.result, ref.result);

    const auto& agg = run.aggregate;
    const auto& ref_agg = ref.aggregate;
    ASSERT_EQ(agg.size(), ref_agg.size());
    for (std::size_t m = 0; m < agg.size(); ++m) {
      EXPECT_EQ(agg[m].sim_savings, ref_agg[m].sim_savings);
      EXPECT_EQ(agg[m].theory_savings, ref_agg[m].theory_savings);
      EXPECT_EQ(agg[m].offload, ref_agg[m].offload);
    }

    const auto daily = analyzer.daily_report(view);
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

TEST(ParallelChunkedReduce, StreamingFoldIsInOrderOnTheCallingThread) {
  // A non-commutative merge (append the chunk's id) records the fold
  // order, and each merge records its thread: the fold must walk the
  // chunks in ascending order on the calling thread alone, whichever
  // worker finished which chunk first. Every 13th chunk is slow, so later
  // chunks finish before earlier ones.
  constexpr std::size_t kChunk = 10;
  constexpr std::size_t kChunks = 97;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> ascending(kChunks);
  for (std::size_t c = 0; c < kChunks; ++c) ascending[c] = c;
  for (unsigned threads : {1u, 2u, 7u, 0u}) {
    SCOPED_TRACE(threads);
    std::mutex mutex;
    std::vector<std::thread::id> merged_on;
    const std::vector<std::size_t> order = parallel_chunked_reduce_stateful(
        kChunks * kChunk - 3, threads, [] { return 0; },
        [] { return std::vector<std::size_t>{}; },
        [](int&, std::vector<std::size_t>& acc, std::size_t begin,
           std::size_t) {
          if ((begin / kChunk) % 13 == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          acc.push_back(begin / kChunk);
        },
        [&](std::vector<std::size_t>& total,
            const std::vector<std::size_t>& chunk) {
          {
            const std::lock_guard lock(mutex);
            merged_on.push_back(std::this_thread::get_id());
          }
          total.insert(total.end(), chunk.begin(), chunk.end());
        },
        kChunk);
    EXPECT_EQ(order, ascending);
    ASSERT_EQ(merged_on.size(), kChunks);
    for (const std::thread::id id : merged_on) EXPECT_EQ(id, caller);
  }
}

TEST(ParallelChunkedReduce, ThrowingChunkRethrowsOnTheCaller) {
  // A chunk that throws never becomes ready: the fold must stop there
  // instead of waiting for it, and the exception must reach the caller.
  // The first, a middle and the last chunk are tried; a worker whose
  // scratch cannot be built fails the same way.
  const auto reduce = [](unsigned threads, std::size_t bad_chunk,
                         bool bad_state) {
    return parallel_chunked_reduce_stateful(
        1000, threads,
        [bad_state] {
          if (bad_state) throw std::runtime_error("state");
          return 0;
        },
        [] { return 0.0; },
        [bad_chunk](int&, double& acc, std::size_t begin, std::size_t end) {
          if (begin / 10 == bad_chunk) throw std::runtime_error("chunk");
          acc += static_cast<double>(end - begin);
        },
        [](double& total, const double& chunk) { total += chunk; },
        /*chunk_len=*/10);
  };
  for (unsigned threads : {1u, 2u, 7u, 0u}) {
    SCOPED_TRACE(threads);
    for (const std::size_t bad : {0u, 57u, 99u}) {
      EXPECT_THROW((void)reduce(threads, bad, false), std::runtime_error);
    }
    EXPECT_THROW((void)reduce(threads, 1000, true), std::runtime_error);
    EXPECT_EQ(reduce(threads, 1000, false), 1000.0);
  }
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
