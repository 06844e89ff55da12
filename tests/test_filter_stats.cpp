// Tests for trace/filter.h and trace/trace_stats.h.
#include "trace/filter.h"
#include "trace/trace_stats.h"

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <set>

#include "trace/synthetic.h"
#include "util/error.h"

namespace cl {
namespace {

Trace sample_trace() {
  const auto metro = Metro::london_top5();
  TraceConfig config;
  config.days = 3;
  config.users = 2000;
  config.exemplar_views = {10000};
  config.catalogue_tail = 100;
  config.tail_views = 8000;
  return TraceGenerator(config, metro).generate();
}

TEST(Filter, ByIspKeepsOnlyThatIsp) {
  const Trace trace = sample_trace();
  const Trace filtered = filter_by_isp(trace, 2);
  EXPECT_GT(filtered.size(), 0u);
  EXPECT_LT(filtered.size(), trace.size());
  for (const auto& s : filtered.sessions) EXPECT_EQ(s.isp, 2u);
  EXPECT_DOUBLE_EQ(filtered.span.value(), trace.span.value());
}

TEST(Filter, PartitionByIspCoversTrace) {
  const Trace trace = sample_trace();
  std::size_t total = 0;
  for (std::uint32_t isp = 0; isp < 5; ++isp) {
    total += filter_by_isp(trace, isp).size();
  }
  EXPECT_EQ(total, trace.size());
}

TEST(Filter, ByContent) {
  const Trace trace = sample_trace();
  const Trace filtered = filter_by_content(trace, 0);
  EXPECT_GT(filtered.size(), 0u);
  for (const auto& s : filtered.sessions) EXPECT_EQ(s.content, 0u);
}

TEST(Filter, ByBitrate) {
  const Trace trace = sample_trace();
  std::size_t total = 0;
  for (auto c : kAllBitrateClasses) {
    const Trace filtered = filter_by_bitrate(trace, c);
    for (const auto& s : filtered.sessions) EXPECT_EQ(s.bitrate, c);
    total += filtered.size();
  }
  EXPECT_EQ(total, trace.size());
}

TEST(Filter, ByStartWindow) {
  const Trace trace = sample_trace();
  const Trace day2 = filter_by_start_window(trace, Seconds::from_days(1),
                                            Seconds::from_days(2));
  EXPECT_GT(day2.size(), 0u);
  for (const auto& s : day2.sessions) {
    EXPECT_GE(s.start, 86400.0);
    EXPECT_LT(s.start, 2 * 86400.0);
  }
}

TEST(Filter, GenericPredicate) {
  const Trace trace = sample_trace();
  const Trace longs = filter_trace(
      trace, [](const SessionRecord& s) { return s.duration > 1200; });
  for (const auto& s : longs.sessions) EXPECT_GT(s.duration, 1200.0);
}

TEST(Stats, CountsMatchManualScan) {
  const Trace trace = sample_trace();
  const TraceStats stats = compute_stats(trace);
  EXPECT_EQ(stats.sessions, trace.size());
  double watch = 0;
  for (const auto& s : trace.sessions) watch += s.duration;
  EXPECT_NEAR(stats.total_watch_time.value(), watch, 1e-6);
  EXPECT_NEAR(stats.mean_session_duration.value(),
              watch / static_cast<double>(trace.size()), 1e-9);
}

TEST(Stats, VolumeIsSumOfSessionVolumes) {
  const Trace trace = sample_trace();
  const TraceStats stats = compute_stats(trace);
  EXPECT_NEAR(stats.total_volume.value(), trace.total_volume().value(), 1.0);
}

TEST(Stats, MeanConcurrencyIsLittlesLaw) {
  const Trace trace = sample_trace();
  const TraceStats stats = compute_stats(trace);
  EXPECT_NEAR(stats.mean_concurrency,
              stats.total_watch_time.value() / trace.span.value(), 1e-9);
}

TEST(Stats, EmptyTrace) {
  Trace empty;
  empty.span = Seconds::from_days(1);
  const TraceStats stats = compute_stats(empty);
  EXPECT_EQ(stats.sessions, 0u);
  EXPECT_EQ(stats.distinct_users, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_concurrency, 0.0);
}

/// Distinct values of one id column, by an ordered set.
template <typename Field>
std::uint64_t distinct(const Trace& trace, Field field) {
  std::set<std::uint32_t> seen;
  for (const auto& s : trace.sessions) seen.insert(s.*field);
  return seen.size();
}

TEST(Stats, DistinctCountsMatchOrderedSets) {
  const Trace trace = sample_trace();
  const TraceStats stats = compute_stats(trace);
  EXPECT_EQ(stats.distinct_users, distinct(trace, &SessionRecord::user));
  EXPECT_EQ(stats.distinct_households,
            distinct(trace, &SessionRecord::household));
  EXPECT_EQ(stats.distinct_contents,
            distinct(trace, &SessionRecord::content));
}

TEST(Stats, DistinctCountsOfSparseIds) {
  // Ids far above the session count, the largest id included, with
  // repeats; the counts must not depend on how large the ids are.
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  Trace trace;
  trace.span = Seconds::from_days(1);
  const std::uint32_t users[] = {kMax, 0, kMax, 1u << 31, 7, 0};
  for (std::size_t i = 0; i < std::size(users); ++i) {
    SessionRecord s;
    s.user = users[i];
    s.household = users[i] / 2;
    s.content = i % 2 == 0 ? kMax - 1 : 3;
    s.start = static_cast<double>(i);
    s.duration = 10;
    trace.sessions.push_back(s);
  }
  const TraceStats stats = compute_stats(trace);
  EXPECT_EQ(stats.distinct_users, 4u);
  EXPECT_EQ(stats.distinct_households, 4u);
  EXPECT_EQ(stats.distinct_contents, 2u);
  EXPECT_EQ(stats.sessions_per_isp, std::vector<std::uint64_t>{6});
}

TEST(Stats, ViewsPerContentSumsToSessions) {
  const Trace trace = sample_trace();
  const auto views = views_per_content(trace);
  std::uint64_t total = 0;
  for (auto v : views) total += v;
  EXPECT_EQ(total, trace.size());
  // Exemplar (content 0) is the most viewed item.
  for (std::size_t id = 1; id < views.size(); ++id) {
    EXPECT_GE(views[0], views[id]);
  }
}

TEST(TraceValidate, CatchesViolations) {
  Trace bad;
  bad.span = Seconds{100};
  SessionRecord s;
  s.start = 50;
  s.duration = 100;  // ends beyond span
  bad.sessions = {s};
  EXPECT_THROW(bad.validate(), InvalidArgument);

  Trace unsorted;
  unsorted.span = Seconds{1000};
  SessionRecord a, b;
  a.start = 500;
  a.duration = 10;
  b.start = 100;
  b.duration = 10;
  unsorted.sessions = {a, b};
  EXPECT_THROW(unsorted.validate(), InvalidArgument);
}

}  // namespace
}  // namespace cl
