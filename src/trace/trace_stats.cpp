#include "trace/trace_stats.h"

#include <algorithm>

namespace cl {

namespace {

/// Distinct values of one id column. Ids mark a bitmap when the largest
/// is at most 8·n, so the bitmap takes at most n bytes; sparser ids (a
/// CSV may carry any 32-bit id) are counted in a sorted copy. Memory is
/// O(n) either way.
std::uint64_t count_distinct(const std::vector<SessionRecord>& sessions,
                             std::uint32_t SessionRecord::*field) {
  std::uint32_t largest = 0;
  for (const SessionRecord& s : sessions) {
    largest = std::max(largest, s.*field);
  }
  if (largest / 8 <= sessions.size()) {
    std::vector<std::uint64_t> seen(largest / 64 + 1, 0);
    std::uint64_t distinct = 0;
    for (const SessionRecord& s : sessions) {
      const std::uint32_t id = s.*field;
      std::uint64_t& word = seen[id / 64];
      const std::uint64_t bit = std::uint64_t{1} << (id % 64);
      distinct += (word & bit) == 0 ? 1 : 0;
      word |= bit;
    }
    return distinct;
  }
  std::vector<std::uint32_t> ids;
  ids.reserve(sessions.size());
  for (const SessionRecord& s : sessions) ids.push_back(s.*field);
  std::sort(ids.begin(), ids.end());
  return static_cast<std::uint64_t>(
      std::unique(ids.begin(), ids.end()) - ids.begin());
}

}  // namespace

TraceStats compute_stats(const Trace& trace) {
  TraceStats stats;
  stats.sessions = trace.sessions.size();
  stats.distinct_users = count_distinct(trace.sessions, &SessionRecord::user);
  stats.distinct_households =
      count_distinct(trace.sessions, &SessionRecord::household);
  stats.distinct_contents =
      count_distinct(trace.sessions, &SessionRecord::content);
  // One serial left fold in row order: the sums' bits depend on it.
  for (const auto& s : trace.sessions) {
    stats.total_watch_time += s.watch_time();
    stats.total_volume += s.volume();
    if (s.isp >= stats.sessions_per_isp.size()) {
      stats.sessions_per_isp.resize(s.isp + 1, 0);
    }
    ++stats.sessions_per_isp[s.isp];
    ++stats.sessions_per_bitrate[index(s.bitrate)];
  }
  if (stats.sessions > 0) {
    stats.mean_session_duration =
        stats.total_watch_time / static_cast<double>(stats.sessions);
  }
  if (trace.span.value() > 0) {
    stats.mean_concurrency = stats.total_watch_time / trace.span;
  }
  return stats;
}

std::vector<std::uint64_t> views_per_content(const Trace& trace) {
  std::vector<std::uint64_t> views;
  for (const auto& s : trace.sessions) {
    if (s.content >= views.size()) views.resize(s.content + 1, 0);
    ++views[s.content];
  }
  return views;
}

}  // namespace cl
