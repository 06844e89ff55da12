#include "trace/swarm_index.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace cl {

SwarmIndex build_swarm_index(const Trace& trace, unsigned threads) {
  const std::size_t n = trace.sessions.size();
  CL_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());
  SwarmIndex index;
  if (n == 0) return index;

  // Every pass below splits [0, n) into the same `shards` contiguous
  // ranges (parallel_shards' boundaries for this shard count).
  const unsigned shards = resolve_threads(threads, n);

  // One compact entry per session, so every radix pass below reads its
  // input sequentially. `differ` collects, per key column, the bits that
  // differ between some session and session 0; each shard ORs its own.
  struct Entry {
    std::uint32_t content;
    std::uint32_t isp;
    std::uint32_t bitrate;
    std::uint32_t session;
  };
  const auto entry_of = [&trace](std::size_t i) {
    const SessionRecord& s = trace.sessions[i];
    return Entry{s.content, s.isp, static_cast<std::uint32_t>(s.bitrate),
                 static_cast<std::uint32_t>(i)};
  };
  const Entry first = entry_of(0);
  // Neither buffer is zero-filled: the shards' first writes touch their
  // pages in parallel.
  auto entries = std::make_unique_for_overwrite<Entry[]>(n);
  std::vector<Entry> shard_differ(shards, Entry{});
  parallel_shards(n, shards, [&](unsigned shard, std::size_t b,
                                 std::size_t e) {
    Entry differ{};
    for (std::size_t i = b; i < e; ++i) {
      const Entry entry = entry_of(i);
      differ.content |= entry.content ^ first.content;
      differ.isp |= entry.isp ^ first.isp;
      differ.bitrate |= entry.bitrate ^ first.bitrate;
      entries[i] = entry;
    }
    shard_differ[shard] = differ;
  });
  Entry differ{};
  for (const Entry& d : shard_differ) {
    differ.content |= d.content;
    differ.isp |= d.isp;
    differ.bitrate |= d.bitrate;
  }

  // Stable LSD radix sort by (content, isp, bitrate), least significant
  // digit first. Starting from ascending session order, stability leaves
  // ascending session indices inside each group — the order the
  // simulator's hash-grouping path produces. Bits that are the same in
  // every session cannot reorder anything, so each column's digits cover
  // only the span from its lowest to its highest differing bit, at most
  // kDigitBits per pass, and a digit with no differing bit is skipped: a
  // generated trace sorts in three passes, one each for the bitrate, the
  // ISP and the content id.
  //
  // Each pass counts digits per shard, then lays the output out bucket
  // by bucket and, inside a bucket, shard by shard: shard s's entries of
  // digit d land after those of every earlier shard, in input order, so
  // the concurrent scatter is as stable as a serial one.
  constexpr unsigned kDigitBits = 12;
  auto scratch = std::make_unique_for_overwrite<Entry[]>(n);
  std::vector<std::vector<std::size_t>> cursor(shards);
  for (std::uint32_t Entry::*column :
       {&Entry::bitrate, &Entry::isp, &Entry::content}) {
    const std::uint32_t span = differ.*column;
    if (span == 0) continue;
    const auto lo = static_cast<unsigned>(std::countr_zero(span));
    const auto hi = static_cast<unsigned>(std::bit_width(span));
    const unsigned passes = (hi - lo + kDigitBits - 1) / kDigitBits;
    const unsigned width = (hi - lo + passes - 1) / passes;
    const std::uint32_t mask = (std::uint32_t{1} << width) - 1;
    for (unsigned shift = lo; shift < hi; shift += width) {
      if (((span >> shift) & mask) == 0) continue;  // constant digit
      const auto digit = [column, shift, mask](const Entry& e) {
        return (e.*column >> shift) & mask;
      };
      for (std::vector<std::size_t>& count : cursor) {
        count.assign(std::size_t{mask} + 1, 0);
      }
      parallel_shards(n, shards, [&](unsigned shard, std::size_t b,
                                     std::size_t e) {
        std::vector<std::size_t>& count = cursor[shard];
        for (std::size_t i = b; i < e; ++i) ++count[digit(entries[i])];
      });
      std::size_t at = 0;
      for (std::size_t d = 0; d <= mask; ++d) {
        for (std::vector<std::size_t>& count : cursor) {
          at += std::exchange(count[d], at);
        }
      }
      parallel_shards(n, shards, [&](unsigned shard, std::size_t b,
                                     std::size_t e) {
        std::vector<std::size_t>& next = cursor[shard];
        for (std::size_t i = b; i < e; ++i) {
          scratch[next[digit(entries[i])]++] = entries[i];
        }
      });
      entries.swap(scratch);
    }
  }
  scratch.reset();

  // Each shard copies its slice of `order` and lists the groups that
  // start in it; the shards' lists, in shard order, are the group table.
  const auto same_key = [](const Entry& a, const Entry& b) {
    return a.content == b.content && a.isp == b.isp && a.bitrate == b.bitrate;
  };
  index.order.resize(n);
  std::vector<std::vector<SwarmIndexGroup>> starts(shards);
  parallel_shards(n, shards, [&](unsigned shard, std::size_t b,
                                 std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const Entry& entry = entries[i];
      index.order[i] = entry.session;
      if (i == 0 || !same_key(entry, entries[i - 1])) {
        SwarmIndexGroup group;
        group.content = entry.content;
        group.isp = entry.isp;
        group.bitrate = static_cast<std::uint8_t>(entry.bitrate);
        group.begin = i;
        starts[shard].push_back(group);
      }
    }
  });
  for (const std::vector<SwarmIndexGroup>& shard : starts) {
    index.groups.insert(index.groups.end(), shard.begin(), shard.end());
  }
  for (std::size_t g = 0; g < index.groups.size(); ++g) {
    const std::uint64_t end =
        g + 1 < index.groups.size() ? index.groups[g + 1].begin : n;
    index.groups[g].count = end - index.groups[g].begin;
  }
  return index;
}

void check_swarm_index_groups(std::span<const SwarmIndexGroup> groups,
                              std::size_t order_size, std::size_t n) {
  if (order_size != n) {
    throw ParseError("swarm index order length does not match session count");
  }
  std::uint64_t covered = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const SwarmIndexGroup& group = groups[g];
    if (group.count == 0) {
      throw ParseError("swarm index contains an empty group");
    }
    if (group.begin != covered) {
      throw ParseError("swarm index groups do not tile the order vector");
    }
    if (g > 0 && !SwarmIndex::key_less(groups[g - 1], group)) {
      throw ParseError("swarm index group keys are not strictly ascending");
    }
    if (group.count > n - group.begin) {
      throw ParseError("swarm index group overruns the order vector");
    }
    covered += group.count;
  }
  if (covered != n) {
    throw ParseError("swarm index groups do not cover every session");
  }
}

void check_swarm_major(std::span<const SwarmIndexGroup> groups,
                       std::span<const std::uint32_t> time_order,
                       std::span<const std::uint32_t> content,
                       std::span<const std::uint32_t> isp,
                       std::span<const std::uint8_t> bitrate,
                       std::span<const double> start, unsigned threads) {
  const std::size_t n = start.size();
  check_swarm_index_groups(groups, time_order.size(), n);
  constexpr double kEarliest = -std::numeric_limits<double>::infinity();
  std::atomic<bool> tied{false};
  parallel_shards(n, threads, [&](unsigned, std::size_t pb, std::size_t pe) {
    const SwarmIndexGroup* group = group_at(groups, pb);
    std::uint64_t group_end = group->begin + group->count;
    double prev = pb > group->begin ? start[pb - 1] : kEarliest;
    bool shard_tied = false;
    for (std::size_t p = pb; p < pe; ++p) {
      if (p == group_end) {
        ++group;
        group_end = group->begin + group->count;
        prev = kEarliest;
      }
      if (content[p] != group->content || isp[p] != group->isp ||
          bitrate[p] != group->bitrate) {
        throw ParseError("swarm index group key does not match its sessions");
      }
      const double s = start[p];
      if (!(s >= prev)) {
        throw ParseError("a swarm group's sessions are not in start order");
      }
      shard_tied |= s == prev;
      prev = s;
    }
    if (shard_tied) tied = true;
  });

  // Walks the time order; mark(p, t) records that rank t lists position
  // p. Relaxed atomic stores: a duplicate entry from two workers is no
  // data race, and it leaves some position unlisted.
  const auto scan_time_order = [&](auto mark) {
    parallel_shards(n, threads, [&](unsigned, std::size_t tb,
                                    std::size_t te) {
      double prev = kEarliest;
      if (tb > 0 && time_order[tb - 1] < n) prev = start[time_order[tb - 1]];
      for (std::size_t t = tb; t < te; ++t) {
        if (t + simd::kPrefetchAhead < te) {
          const std::uint32_t ahead = time_order[t + simd::kPrefetchAhead];
          if (ahead < n) simd::prefetch(start.data() + ahead);
        }
        const std::uint32_t p = time_order[t];
        if (p >= n) {
          throw ParseError("time order references an out-of-range session");
        }
        mark(p, t);
        const double s = start[p];
        if (!(s >= prev)) {
          throw ParseError("time order is not in start order");
        }
        prev = s;
      }
    });
  };
  const auto unlisted = [] {
    return ParseError(
        "time order is not a permutation: a session is listed twice");
  };

  if (!tied) {
    std::vector<std::uint8_t> listed(n, 0);
    scan_time_order([&](std::uint32_t p, std::size_t) {
      std::atomic_ref<std::uint8_t>(listed[p]).store(
          1, std::memory_order_relaxed);
    });
    parallel_shards(n, threads, [&](unsigned, std::size_t b, std::size_t e) {
      const auto from = listed.begin() + static_cast<std::ptrdiff_t>(b);
      const auto to = listed.begin() + static_cast<std::ptrdiff_t>(e);
      if (std::find(from, to, 0) != to) throw unlisted();
    });
    return;
  }

  // Ranks are below n <= 2^32 - 1, so the largest u32 marks "unlisted".
  constexpr std::uint32_t kUnlisted = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> rank(n, kUnlisted);
  scan_time_order([&](std::uint32_t p, std::size_t t) {
    std::atomic_ref<std::uint32_t>(rank[p]).store(
        static_cast<std::uint32_t>(t), std::memory_order_relaxed);
  });
  parallel_shards(n, threads, [&](unsigned, std::size_t pb, std::size_t pe) {
    const SwarmIndexGroup* group = group_at(groups, pb);
    std::uint64_t group_end = group->begin + group->count;
    for (std::size_t p = pb; p < pe; ++p) {
      if (p == group_end) {
        ++group;
        group_end = group->begin + group->count;
      }
      if (rank[p] == kUnlisted) throw unlisted();
      if (p > group->begin && rank[p - 1] != kUnlisted &&
          rank[p] < rank[p - 1]) {
        throw ParseError("time order is not ascending within a group");
      }
    }
  });
}

void validate_swarm_index(const SwarmIndex& index, const Trace& trace,
                          unsigned threads) {
  struct RowKeys {
    const SessionRecord* rows;
    void prefetch(std::uint32_t s) const { simd::prefetch(rows + s); }
    bool matches(std::size_t, std::uint32_t s,
                 const SwarmIndexGroup& group) const {
      const SessionRecord& r = rows[s];
      return r.content == group.content && r.isp == group.isp &&
             static_cast<std::uint8_t>(r.bitrate) == group.bitrate;
    }
  };
  check_swarm_index(index.groups, index.order, trace.sessions.size(),
                    RowKeys{trace.sessions.data()}, threads);
}

}  // namespace cl
