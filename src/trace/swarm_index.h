// swarm_index.h — building and validating the swarm-key-sorted session
// index of a trace (the SwarmIndex struct itself lives in
// trace/session.h, as part of the Trace data model).
//
// The simulator partitions sessions into swarms keyed by
// (content, ISP, bitrate class) — the paper's ISP-friendly, bitrate-split
// setting. Grouping 23.5M sessions through a hash map on every run is
// pure overhead when the trace is immutable on disk, so the binary trace
// format (trace/trace_binary.h) persists this index next to the columns:
// one permutation of session indices, grouped by swarm key in ascending
// key order, ascending session index within each group — exactly the
// deterministic sweep order HybridSimulator::run derives itself. A loaded
// index lets the simulator skip the grouping pass entirely.
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

/// The one swarm-index check, for row and column storage alike. `keys`
/// reads the trace's key fields: `keys.matches(session, group)` says
/// whether session `session` has `group`'s key, and `keys.prefetch(s)`
/// hints that session s's key is read soon. On top of
/// check_swarm_index_groups, every entry of `order` must be a session
/// index below n whose key matches its group, with indices strictly
/// ascending inside each group. Those rules make `order` a permutation of
/// [0, n): a session can only sit in the one group with its key (keys are
/// distinct), and only once there.
///
/// The order scan shards over positions, not groups: the Zipf head's few
/// groups hold most sessions, so group shards would leave one worker with
/// most of the work. A shard finds the group of its first position by
/// binary search on group.begin and compares that position with the one
/// before it, in the previous shard. The key reads jump through `order`,
/// so each one prefetches the key simd::kPrefetchAhead positions on.
/// Throws cl::ParseError.
template <typename Keys>
void check_swarm_index(std::span<const SwarmIndexGroup> groups,
                       std::span<const std::uint32_t> order, std::size_t n,
                       const Keys& keys, unsigned threads) {
  check_swarm_index_groups(groups, order.size(), n);
  parallel_shards(n, threads, [&](unsigned, std::size_t pb, std::size_t pe) {
    const SwarmIndexGroup* group = std::prev(std::upper_bound(
        groups.data(), groups.data() + groups.size(), pb,
        [](std::size_t pos, const SwarmIndexGroup& g) {
          return pos < g.begin;
        }));
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
      if (!keys.matches(s, *group)) {
        throw ParseError("swarm index group key does not match its sessions");
      }
    }
  });
}

}  // namespace cl
