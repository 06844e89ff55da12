#include "trace/swarm_index.h"

#include <bit>
#include <limits>
#include <utility>
#include <vector>

#include "util/error.h"

namespace cl {

SwarmIndex build_swarm_index(const Trace& trace) {
  const std::size_t n = trace.sessions.size();
  CL_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());

  // One compact entry per session, so every radix pass below reads its
  // input sequentially. `differ` collects, per key column, the bits that
  // differ between some two sessions.
  struct Entry {
    std::uint32_t content;
    std::uint32_t isp;
    std::uint32_t bitrate;
    std::uint32_t session;
  };
  std::vector<Entry> entries(n);
  Entry first{};
  Entry differ{};
  for (std::uint32_t i = 0; i < n; ++i) {
    const SessionRecord& s = trace.sessions[i];
    const Entry e{s.content, s.isp, static_cast<std::uint32_t>(s.bitrate), i};
    if (i == 0) first = e;
    differ.content |= e.content ^ first.content;
    differ.isp |= e.isp ^ first.isp;
    differ.bitrate |= e.bitrate ^ first.bitrate;
    entries[i] = e;
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
  constexpr unsigned kDigitBits = 12;
  std::vector<Entry> scratch(n);
  std::vector<std::size_t> start;
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
      start.assign(std::size_t{mask} + 1, 0);
      for (const Entry& e : entries) ++start[digit(e)];
      std::size_t at = 0;
      for (std::size_t& bucket : start) at += std::exchange(bucket, at);
      for (const Entry& e : entries) scratch[start[digit(e)]++] = e;
      entries.swap(scratch);
    }
  }
  scratch = {};

  SwarmIndex index;
  index.order.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Entry& e = entries[i];
    index.order[i] = e.session;
    if (i == 0 || e.content != entries[i - 1].content ||
        e.isp != entries[i - 1].isp || e.bitrate != entries[i - 1].bitrate) {
      SwarmIndexGroup group;
      group.content = e.content;
      group.isp = e.isp;
      group.bitrate = static_cast<std::uint8_t>(e.bitrate);
      group.begin = i;
      index.groups.push_back(group);
    }
    ++index.groups.back().count;
  }
  return index;
}

void validate_swarm_index(const SwarmIndex& index, const Trace& trace) {
  const std::size_t n = trace.sessions.size();
  if (index.order.size() != n) {
    throw ParseError("swarm index order length does not match session count");
  }
  // One walk over the groups and `order` makes the structural checks and
  // records each session's group; the key check then reads the sessions
  // in file order instead of jumping to them through `order`. Groups are
  // non-empty, so their number fits the session index width and no
  // group is numbered kUnseen.
  constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> group_of(n, kUnseen);
  std::uint64_t covered = 0;
  for (std::size_t g = 0; g < index.groups.size(); ++g) {
    const SwarmIndexGroup& group = index.groups[g];
    if (group.count == 0) {
      throw ParseError("swarm index contains an empty group");
    }
    if (group.begin != covered) {
      throw ParseError("swarm index groups do not tile the order vector");
    }
    if (g > 0 && !SwarmIndex::key_less(index.groups[g - 1], group)) {
      throw ParseError("swarm index group keys are not strictly ascending");
    }
    if (group.count > n - group.begin) {
      throw ParseError("swarm index group overruns the order vector");
    }
    std::uint32_t prev_session = 0;
    for (std::uint64_t i = group.begin; i < group.begin + group.count; ++i) {
      const std::uint32_t session_index = index.order[i];
      if (session_index >= n) {
        throw ParseError("swarm index references an out-of-range session");
      }
      if (i > group.begin && session_index <= prev_session) {
        throw ParseError(
            "swarm index session order is not ascending within a group");
      }
      if (group_of[session_index] != kUnseen) {
        throw ParseError("swarm index lists a session in two groups");
      }
      group_of[session_index] = static_cast<std::uint32_t>(g);
      prev_session = session_index;
    }
    covered += group.count;
  }
  if (covered != n) {
    throw ParseError("swarm index groups do not cover every session");
  }
  // n sessions listed, none twice: every session has its group.
  for (std::size_t i = 0; i < n; ++i) {
    const SessionRecord& s = trace.sessions[i];
    const SwarmIndexGroup& group = index.groups[group_of[i]];
    if (s.content != group.content || s.isp != group.isp ||
        static_cast<std::uint8_t>(s.bitrate) != group.bitrate) {
      throw ParseError("swarm index group key does not match its sessions");
    }
  }
}

}  // namespace cl
