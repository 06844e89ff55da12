// trace_mmap.h — mmap-backed reader of `.cltrace` binary traces.
//
// The counterpart of trace/trace_binary.h: maps the file read-only and
// validates the header and block directory without touching the payload.
// From there the payload columns are consumed two ways:
//
//  * zero-copy — trace/trace_view.h wraps the mapped column blocks in
//    typed spans and the simulator sweeps them directly, materializing
//    nothing (the default for `.cltrace` input on little-endian hosts);
//  * materialized — to_trace() decodes row-structured SessionRecords,
//    sharding session ranges across worker threads (util/parallel.h),
//    for callers that genuinely need rows (filters, converters, the
//    row-path reference sweep).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/session.h"
#include "trace/trace_binary.h"
#include "util/mmap_file.h"

namespace cl {

/// A validated, memory-mapped `.cltrace` file.
///
/// Construction validates everything structural: magic, version (the
/// current version 3, or the legacy versions 2 and 1 — see
/// trace/trace_binary.h), block directory (every block id of that
/// version present exactly once, element widths, counts, bounds) and the
/// exact file size. Field-level validation — bitrate range, the swarm
/// index or swarm-major layout, session ordering — happens in to_trace(),
/// which is the only way payload bytes become a Trace.
///
/// Storage order vs time order: a version-3 file stores its sessions
/// swarm-major (storage position p is not the p-th session in start
/// order) and block 12 maps time to storage; v1/v2 files store start
/// order. session(i) and to_trace() always speak time order.
class MappedTrace {
 public:
  /// Maps and validates `path`; throws cl::IoError when the file cannot
  /// be mapped and cl::ParseError when it is not a well-formed
  /// `.cltrace` file of a supported version.
  explicit MappedTrace(const std::string& path);

  /// Number of sessions.
  [[nodiscard]] std::size_t size() const { return sessions_; }
  /// Number of swarm-index groups.
  [[nodiscard]] std::size_t group_count() const { return groups_; }
  /// Trace span.
  [[nodiscard]] Seconds span() const { return span_; }
  /// On-disk format version (kTraceBinaryLegacyVersion..kTraceBinaryVersion).
  [[nodiscard]] std::uint32_t version() const { return version_; }
  /// Total mapped bytes.
  [[nodiscard]] std::size_t file_size() const { return file_.size(); }
  /// True when the sessions are stored swarm-major and block 12 is the
  /// time order (version 3 on); false for start-order v1/v2 files.
  [[nodiscard]] bool swarm_major() const {
    return version_ >= kTraceBinarySwarmMajorVersion;
  }
  /// Metro name recorded in block 13 (empty for legacy v1 files and
  /// traces generated against an unnamed metro).
  [[nodiscard]] std::string metro_name() const;

  /// Decodes the i-th session in start order from the column blocks
  /// (bitrate unvalidated — use to_trace() for checked loading; throws
  /// cl::ParseError when a v3 time-order entry is out of range).
  [[nodiscard]] SessionRecord session(std::size_t i) const;

  /// Raw payload bytes of block `id` (see trace/trace_binary.h for the
  /// block table). The pointer is valid for the lifetime of this
  /// MappedTrace; blocks are little-endian and 64-byte aligned within
  /// the file. Zero-copy consumers (trace/trace_view.h) cast these to
  /// typed column pointers; everyone else should use session() or
  /// to_trace().
  [[nodiscard]] const unsigned char* raw_block(std::size_t id) const {
    return block(id);
  }

  /// Decodes the swarm-index group table (blocks 8-11), with each
  /// group's `begin` the sum of the counts before it. Unchecked: the
  /// callers run check_swarm_index on it.
  [[nodiscard]] std::vector<SwarmIndexGroup> index_groups() const;

  /// Materializes the full trace — sessions in start order, span and
  /// swarm index — sharding session decoding and the checks across
  /// `threads` workers (0 = all hardware threads). A v3 file yields the
  /// same rows and index as the v2 file of the same trace. Validates
  /// bitrate values, the swarm index (and for v3 the swarm-major layout,
  /// check_swarm_major) and the trace invariants; throws cl::ParseError
  /// on corrupt payloads.
  [[nodiscard]] Trace to_trace(unsigned threads = 1) const;

 private:
  [[nodiscard]] const unsigned char* block(std::size_t id) const;

  MappedFile file_;
  std::size_t sessions_ = 0;
  std::size_t groups_ = 0;
  std::size_t metro_bytes_ = 0;
  Seconds span_;
  std::uint32_t version_ = 0;
  /// Payload offset of each block, indexed by block id (block 13 stays 0
  /// for legacy v1 files).
  std::uint64_t offsets_[14] = {};
};

/// Loads a `.cltrace` file into a Trace (mmap + sharded materialization).
[[nodiscard]] Trace read_trace_binary_file(const std::string& path,
                                           unsigned threads = 1);

}  // namespace cl
