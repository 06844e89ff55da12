// swarm_index.h — building and validating the swarm-key-sorted session
// index of a trace (the SwarmIndex struct itself lives in
// trace/session.h, as part of the Trace data model).
//
// The simulator partitions sessions into swarms keyed by
// (content, ISP, bitrate class) — the paper's ISP-friendly, bitrate-split
// setting. Grouping 23.5M sessions through a hash map on every run is
// pure overhead when the trace is immutable on disk, so the binary trace
// format (trace/trace_binary.h) persists this index: one permutation of
// session indices, grouped by swarm key in ascending key order,
// ascending session index within each group — exactly the deterministic
// sweep order HybridSimulator::run derives itself. A v3 file stores the
// sessions in that order (check_swarm_major checks that layout); v1/v2
// files store the permutation itself. A loaded index lets the simulator
// skip the grouping pass entirely.
//
// Key order: groups sort lexicographically by (content, isp, bitrate),
// which equals the ascending SwarmKey::packed() order for every real
// topology (packed() masks the ISP to 24 bits; ISP indices are tiny).
//
// Both the build and the check shard across worker threads; the index
// the build returns and what the check accepts are the same at every
// thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "trace/session.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/simd.h"

namespace cl {

/// Packs a full (content, isp, bitrate) key into the same 64-bit layout
/// as sim/swarm_key.h's SwarmKey::packed() — pinned by a test so the two
/// layers cannot drift apart.
[[nodiscard]] constexpr std::uint64_t packed_swarm_key(std::uint32_t content,
                                                       std::uint32_t isp,
                                                       std::uint8_t bitrate) {
  return (static_cast<std::uint64_t>(content) << 32) |
         (static_cast<std::uint64_t>(isp & 0xffffffu) << 8) |
         static_cast<std::uint64_t>(bitrate);
}

/// Builds the full-key swarm index of a trace on `threads` workers (0 =
/// all hardware threads); the index is the same at every thread count.
/// Requires trace.sessions.size() to fit std::uint32_t (the index element
/// width).
[[nodiscard]] SwarmIndex build_swarm_index(const Trace& trace,
                                           unsigned threads = 0);

/// Verifies that `index` is a correct swarm index of `trace` (see
/// check_swarm_index) on `threads` workers (0 = all hardware threads).
/// Throws cl::ParseError on any violation (the caller is typically
/// validating untrusted on-disk data).
void validate_swarm_index(const SwarmIndex& index, const Trace& trace,
                          unsigned threads = 0);

/// The group-table half of check_swarm_index: `order_size` equals n, the
/// groups are non-empty, tile [0, n) in order and have strictly
/// ascending keys. Throws cl::ParseError.
void check_swarm_index_groups(std::span<const SwarmIndexGroup> groups,
                              std::size_t order_size, std::size_t n);

/// The group of `groups` whose position range holds `position` (the
/// groups must tile the positions: check_swarm_index_groups).
[[nodiscard]] inline const SwarmIndexGroup* group_at(
    std::span<const SwarmIndexGroup> groups, std::size_t position) {
  return std::prev(std::upper_bound(
      groups.data(), groups.data() + groups.size(), position,
      [](std::size_t pos, const SwarmIndexGroup& g) { return pos < g.begin; }));
}

/// The order scan of the swarm-index check, over positions [lo, hi) of
/// `order` (the group table already checked: check_swarm_index_groups).
/// Every entry must be a session index below n whose key matches its
/// group, with indices strictly ascending inside each group. `keys` reads
/// the trace's key fields: `keys.matches(position, session, group)` says
/// whether session `session`, listed at `position`, has `group`'s key —
/// the writer also stores the session there — and `keys.prefetch(s)`
/// hints that session s's key is read soon.
///
/// The scan shards over positions, not groups: the Zipf head's few
/// groups hold most sessions, so group shards would leave one worker with
/// most of the work. A shard finds the group of its first position by
/// binary search on group.begin and compares that position with the one
/// before it, in the previous shard. The key reads jump through `order`,
/// so each one prefetches the key simd::kPrefetchAhead positions on.
/// Throws cl::ParseError.
template <typename Keys>
void check_swarm_index_range(std::span<const SwarmIndexGroup> groups,
                             std::span<const std::uint32_t> order,
                             std::size_t lo, std::size_t hi, std::size_t n,
                             const Keys& keys, unsigned threads) {
  parallel_shards(hi - lo, threads, [&](unsigned, std::size_t b,
                                        std::size_t e) {
    const std::size_t pb = lo + b;
    const std::size_t pe = lo + e;
    const SwarmIndexGroup* group = group_at(groups, pb);
    std::uint64_t group_end = group->begin + group->count;
    for (std::size_t i = pb; i < pe; ++i) {
      if (i + simd::kPrefetchAhead < pe) {
        const std::uint32_t ahead = order[i + simd::kPrefetchAhead];
        if (ahead < n) keys.prefetch(ahead);
      }
      if (i == group_end) {
        ++group;
        group_end = group->begin + group->count;
      }
      const std::uint32_t s = order[i];
      if (s >= n) {
        throw ParseError("swarm index references an out-of-range session");
      }
      if (i > group->begin && s <= order[i - 1]) {
        throw ParseError(
            "swarm index session order is not ascending within a group");
      }
      if (!keys.matches(i, s, *group)) {
        throw ParseError("swarm index group key does not match its sessions");
      }
    }
  });
}

/// The one swarm-index check, for row and column storage alike:
/// check_swarm_index_groups, then check_swarm_index_range over every
/// position. Its rules make `order` a permutation of [0, n): a session
/// can only sit in the one group with its key (keys are distinct), and
/// only once there. Throws cl::ParseError.
template <typename Keys>
void check_swarm_index(std::span<const SwarmIndexGroup> groups,
                       std::span<const std::uint32_t> order, std::size_t n,
                       const Keys& keys, unsigned threads) {
  check_swarm_index_groups(groups, order.size(), n);
  check_swarm_index_range(groups, order, 0, n, n, keys, threads);
}

/// The swarm-major layout check (`.cltrace` v3, trace/trace_binary.h):
/// storage position p holds a session of the group whose range holds p,
/// and `time_order[t]` is the storage position of the t-th session in
/// start order. `content`, `isp`, `bitrate` and `start` are the stored
/// columns, n = start.size() elements each. On top of
/// check_swarm_index_groups:
///
///  * every position's key matches its group's (a sequential pass);
///  * starts are non-decreasing inside each group;
///  * `time_order` is a permutation of [0, n) — every entry is below n,
///    and every position is listed — and starts are non-decreasing
///    along it;
///  * inside each group, storage order is time order. Where a group's
///    starts ascend strictly, the rules above imply this one; only a
///    trace with tied starts inside some group keeps each position's
///    time rank (a u32 a session, in place of one byte) to check it.
///
/// Each pass shards over positions (or time ranks) and compares the
/// first one with the one before it, in the previous shard. Throws
/// cl::ParseError.
void check_swarm_major(std::span<const SwarmIndexGroup> groups,
                       std::span<const std::uint32_t> time_order,
                       std::span<const std::uint32_t> content,
                       std::span<const std::uint32_t> isp,
                       std::span<const std::uint8_t> bitrate,
                       std::span<const double> start, unsigned threads);

}  // namespace cl
