// session.h — the atomic record of the workload: one streaming session.
//
// Mirrors the fields of the BBC iPlayer trace the paper relies on: who
// watched what, when, for how long, at which bitrate, from which ISP and
// network position. `household` models the IP-address sharing visible in
// Table I (3.3 M users behind 1.5 M IP addresses).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/bitrate.h"
#include "util/units.h"

namespace cl {

/// Longest metro name a trace header may carry (CSV `#metro=` comment and
/// `.cltrace` block 13 share the cap).
inline constexpr std::size_t kTraceMetroNameMaxBytes = 255;

/// True when `name` may appear in a trace header: at most
/// kTraceMetroNameMaxBytes bytes, no control characters (comment lines and
/// fixed-width columns both break on embedded newlines). Empty is valid —
/// it means "metro not recorded".
[[nodiscard]] bool valid_trace_metro_name(const std::string& name);

/// One user session streaming one content item.
struct SessionRecord {
  std::uint32_t user = 0;       ///< stable user id
  std::uint32_t household = 0;  ///< shared-IP household id
  std::uint32_t content = 0;    ///< content item id
  std::uint32_t isp = 0;        ///< index of the user's ISP in the Metro
  std::uint32_t exp = 0;        ///< exchange point id within the ISP tree
  BitrateClass bitrate = BitrateClass::kSd;  ///< stream bitrate class
  double start = 0;     ///< seconds since trace epoch
  double duration = 0;  ///< watched seconds (>= 0)

  [[nodiscard]] Seconds start_time() const { return Seconds{start}; }
  [[nodiscard]] Seconds watch_time() const { return Seconds{duration}; }
  [[nodiscard]] double end() const { return start + duration; }
  /// Stream bitrate β of this session.
  [[nodiscard]] BitRate beta() const { return bitrate_of(bitrate); }
  /// Useful traffic of the session: β · duration.
  [[nodiscard]] Bits volume() const { return beta() * watch_time(); }
};

/// One swarm's slice of a SwarmIndex: the full-width
/// (content, isp, bitrate) key plus the half-open range
/// [begin, begin+count) into SwarmIndex::order.
struct SwarmIndexGroup {
  std::uint32_t content = 0;
  std::uint32_t isp = 0;
  std::uint8_t bitrate = 0;
  std::uint64_t begin = 0;
  std::uint64_t count = 0;
};

/// Swarm-key-sorted permutation of a trace's session indices: groups
/// ascend by (content, isp, bitrate) and session indices ascend within
/// each group — the simulator's deterministic sweep order. Built by
/// trace/swarm_index.h and persisted by the binary trace format so
/// month-scale traces skip the per-run grouping pass.
struct SwarmIndex {
  std::vector<SwarmIndexGroup> groups;  ///< ascending (content, isp, bitrate)
  std::vector<std::uint32_t> order;     ///< grouped session indices

  [[nodiscard]] bool empty() const { return order.empty(); }

  /// Strict-weak ordering of group keys (lexicographic full-width tuple).
  [[nodiscard]] static bool key_less(const SwarmIndexGroup& a,
                                     const SwarmIndexGroup& b) {
    if (a.content != b.content) return a.content < b.content;
    if (a.isp != b.isp) return a.isp < b.isp;
    return a.bitrate < b.bitrate;
  }
};

/// Longest span, in days, that the trace generators accept (and the CLI's
/// --days admits): far beyond any real workload, while the span in
/// seconds, hours and whole days stays exact and in range of every
/// integer it is converted to.
inline constexpr std::uint32_t kMaxTraceDays = 1'000'000;

/// Longest span, in seconds, a trace file may declare: kMaxTraceDays
/// whole days. The readers reject any other header span — negative, NaN,
/// infinite or larger — as a ParseError.
inline constexpr double kMaxTraceSpanSeconds = kMaxTraceDays * 86400.0;

/// Whether `seconds` is a span a trace may have: in [0,
/// kMaxTraceSpanSeconds], so never NaN or infinite.
[[nodiscard]] inline bool valid_trace_span(double seconds) {
  return seconds >= 0 && seconds <= kMaxTraceSpanSeconds;
}

/// Throws cl::InvalidArgument unless valid_trace_span(seconds): the trace
/// writers call it before writing a byte, so they never write a file
/// their readers refuse.
void require_writable_trace_span(double seconds);

/// A workload trace: flat, start-time-ordered session list plus its span.
struct Trace {
  std::vector<SessionRecord> sessions;
  Seconds span;  ///< total covered duration (epoch 0 .. span)

  /// Optional pre-computed full-key swarm index (loaded from a binary
  /// trace, or built with trace/swarm_index.h). Empty for CSV-loaded and
  /// filtered traces; when present and sized to `sessions`, the
  /// simulator's default (content, ISP, bitrate) grouping consumes it
  /// instead of re-grouping.
  SwarmIndex swarm_index;

  /// Registry name of the metro the trace was generated for (see
  /// topology/metro_registry.h), or empty when unknown (legacy files,
  /// hand-written CSVs, custom metros). Round-trips through both on-disk
  /// formats: the CSV `#metro=` comment and `.cltrace` v2 block 13.
  std::string metro_name;

  [[nodiscard]] bool empty() const { return sessions.empty(); }
  [[nodiscard]] std::size_t size() const { return sessions.size(); }

  /// Total useful traffic of all sessions.
  [[nodiscard]] Bits total_volume() const;

  /// Verifies ordering/field invariants; throws cl::InvalidArgument.
  void validate() const;
};

}  // namespace cl
