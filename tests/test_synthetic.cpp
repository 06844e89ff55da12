// Tests for trace/synthetic.h — the calibrated synthetic workload.
#include "trace/synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "trace/trace_stats.h"
#include "util/error.h"

namespace cl {
namespace {

TraceConfig small_config() {
  TraceConfig config;
  config.days = 7;
  config.users = 5000;
  config.exemplar_views = {20000, 2000};
  config.catalogue_tail = 500;
  config.tail_views = 30000;
  return config;
}

TEST(TraceGenerator, DeterministicForSameSeed) {
  const auto metro = Metro::london_top5();
  TraceGenerator a(small_config(), metro);
  TraceGenerator b(small_config(), metro);
  const Trace ta = a.generate();
  const Trace tb = b.generate();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); i += 97) {
    EXPECT_EQ(ta.sessions[i].user, tb.sessions[i].user);
    EXPECT_DOUBLE_EQ(ta.sessions[i].start, tb.sessions[i].start);
    EXPECT_DOUBLE_EQ(ta.sessions[i].duration, tb.sessions[i].duration);
  }
}

TEST(TraceGenerator, DifferentSeedsDiffer) {
  const auto metro = Metro::london_top5();
  auto config = small_config();
  TraceGenerator a(config, metro);
  config.seed = 999;
  TraceGenerator b(config, metro);
  EXPECT_NE(a.generate().size(), b.generate().size());
}

TEST(TraceGenerator, SessionCountTracksExpectedViews) {
  const auto metro = Metro::london_top5();
  TraceGenerator gen(small_config(), metro);
  const Trace trace = gen.generate();
  // Expected sessions = (20000 + 2000 + 30000) * 7/30.
  const double expected = 52000.0 * 7.0 / 30.0;
  EXPECT_NEAR(static_cast<double>(trace.size()), expected, expected * 0.05);
}

TEST(TraceGenerator, ValidatesAndHasConfiguredSpan) {
  const auto metro = Metro::london_top5();
  TraceGenerator gen(small_config(), metro);
  const Trace trace = gen.generate();
  trace.validate();  // throws on violation
  EXPECT_DOUBLE_EQ(trace.span.value(), 7.0 * 86400.0);
}

TEST(TraceGenerator, GenerateContentMatchesFullTrace) {
  // Per-content generation must reproduce exactly the sessions the full
  // trace contains for that content (same per-content RNG stream).
  const auto metro = Metro::london_top5();
  TraceGenerator gen(small_config(), metro);
  const Trace full = gen.generate();
  const Trace solo = gen.generate_content(0);
  std::size_t in_full = 0;
  double full_watch = 0, solo_watch = 0;
  for (const auto& s : full.sessions) {
    if (s.content == 0) {
      ++in_full;
      full_watch += s.duration;
    }
  }
  for (const auto& s : solo.sessions) solo_watch += s.duration;
  EXPECT_EQ(solo.size(), in_full);
  EXPECT_NEAR(solo_watch, full_watch, 1e-6);
}

TEST(TraceGenerator, ExemplarViewsScaleWithDays) {
  const auto metro = Metro::london_top5();
  auto config = small_config();
  config.days = 30;
  TraceGenerator gen(config, metro);
  const Trace solo = gen.generate_content(0);
  EXPECT_NEAR(static_cast<double>(solo.size()), 20000.0, 20000.0 * 0.05);
}

TEST(TraceGenerator, IspSharesRespected) {
  const auto metro = Metro::london_top5();
  TraceGenerator gen(small_config(), metro);
  const TraceStats stats = compute_stats(gen.generate());
  ASSERT_EQ(stats.sessions_per_isp.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    const double fraction = static_cast<double>(stats.sessions_per_isp[i]) /
                            static_cast<double>(stats.sessions);
    // Session shares track user shares loosely (heavy users add variance).
    EXPECT_NEAR(fraction, metro.share(i), 0.08) << "isp " << i;
  }
}

TEST(TraceGenerator, BitrateMixRespected) {
  const auto metro = Metro::london_top5();
  const auto config = small_config();
  TraceGenerator gen(config, metro);
  const TraceStats stats = compute_stats(gen.generate());
  for (std::size_t b = 0; b < kBitrateClasses; ++b) {
    const double fraction =
        static_cast<double>(stats.sessions_per_bitrate[b]) /
        static_cast<double>(stats.sessions);
    EXPECT_NEAR(fraction, config.bitrate_mix[b], 0.02);
  }
}

TEST(TraceGenerator, HouseholdsCompressUsers) {
  const auto metro = Metro::london_top5();
  TraceGenerator gen(small_config(), metro);
  const TraceStats stats = compute_stats(gen.generate());
  EXPECT_LT(stats.distinct_households, stats.distinct_users);
  EXPECT_GT(stats.distinct_households, stats.distinct_users / 4);
}

TEST(TraceGenerator, DurationsBoundedByProgrammeLength) {
  const auto metro = Metro::london_top5();
  TraceGenerator gen(small_config(), metro);
  const Trace trace = gen.generate();
  for (const auto& s : trace.sessions) {
    const auto& info = gen.catalogue().item(s.content);
    EXPECT_LE(s.duration, info.nominal_length.value() + 1e-9);
    EXPECT_GT(s.duration, 0.0);
  }
}

TEST(TraceGenerator, DiurnalPeakVisible) {
  const auto metro = Metro::london_top5();
  TraceGenerator gen(small_config(), metro);
  const Trace trace = gen.generate();
  std::array<int, 24> per_hour{};
  for (const auto& s : trace.sessions) {
    const int hour = static_cast<int>(s.start / 3600.0) % 24;
    ++per_hour[hour];
  }
  // Evening peak (20:00) must dominate the overnight trough (03:00).
  EXPECT_GT(per_hour[20], 5 * per_hour[3]);
}

TEST(TraceGenerator, UserProfilesConsistentWithSessions) {
  const auto metro = Metro::london_top5();
  TraceGenerator gen(small_config(), metro);
  const Trace trace = gen.generate();
  const auto& users = gen.users();
  for (const auto& s : trace.sessions) {
    ASSERT_LT(s.user, users.size());
    EXPECT_EQ(s.isp, users[s.user].isp);
    EXPECT_EQ(s.exp, users[s.user].exp);
    EXPECT_EQ(s.household, users[s.user].household);
  }
}

TEST(TraceGenerator, UserTableIdenticalAtEveryThreadCount) {
  // 458753 = 7·2¹⁶ + 1 users split into 2, 3, 4 or 7 uneven chunks; the
  // smaller tables fill as one chunk, some with more threads than users.
  // The sessions' users cover the head/tail sampling weights, which
  // users() omits.
  const auto metro = Metro::london_top5();
  const auto fields = [](const std::vector<UserProfile>& users) {
    std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> out;
    for (const UserProfile& u : users) {
      out.emplace_back(u.household, u.isp, u.exp);
    }
    return out;
  };
  const auto session_users = [](const Trace& trace) {
    std::vector<std::uint32_t> out;
    for (const SessionRecord& s : trace.sessions) out.push_back(s.user);
    return out;
  };
  for (const std::uint32_t users : {1u, 2u, 5u, 800u, 100003u, 458753u}) {
    TraceConfig config;
    config.days = 1;
    config.users = users;
    config.exemplar_views = {3000};
    config.catalogue_tail = 20;
    config.tail_views = 3000;
    config.threads = 1;
    TraceGenerator serial(config, metro);
    const auto reference = fields(serial.users());
    const auto reference_sessions = session_users(serial.generate());
    for (const unsigned threads : {2u, 3u, 7u, 0u}) {
      config.threads = threads;
      TraceGenerator chunked(config, metro);
      EXPECT_EQ(fields(chunked.users()), reference)
          << "users=" << users << " threads=" << threads;
      EXPECT_EQ(session_users(chunked.generate()), reference_sessions)
          << "users=" << users << " threads=" << threads;
    }
  }
}

TEST(TraceGenerator, ActivitySkewProducesHeavyUsers) {
  const auto metro = Metro::london_top5();
  TraceGenerator gen(small_config(), metro);
  const Trace trace = gen.generate();
  std::unordered_map<std::uint32_t, int> per_user;
  for (const auto& s : trace.sessions) ++per_user[s.user];
  int max_sessions = 0;
  for (const auto& [u, n] : per_user) {
    max_sessions = std::max(max_sessions, n);
  }
  const double mean = static_cast<double>(trace.size()) /
                      static_cast<double>(per_user.size());
  EXPECT_GT(max_sessions, 5.0 * mean);  // heavy tail exists
}

TEST(TraceGenerator, RejectsInvalidConfig) {
  const auto metro = Metro::london_top5();
  auto config = small_config();
  config.days = 0.5;
  EXPECT_THROW(TraceGenerator(config, metro), InvalidArgument);
  config = small_config();
  config.users = 0;
  EXPECT_THROW(TraceGenerator(config, metro), InvalidArgument);
  config = small_config();
  config.households_ratio = 0;
  EXPECT_THROW(TraceGenerator(config, metro), InvalidArgument);
  config = small_config();
  config.watch_mean_fraction = 1.5;
  EXPECT_THROW(TraceGenerator(config, metro), InvalidArgument);
}

TEST(TraceGenerator, GenerateContentRejectsUnknownId) {
  const auto metro = Metro::london_top5();
  TraceGenerator gen(small_config(), metro);
  EXPECT_THROW(gen.generate_content(100000), InvalidArgument);
}

}  // namespace
}  // namespace cl
