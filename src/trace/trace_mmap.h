// trace_mmap.h — mmap-backed reader of `.cltrace` binary traces.
//
// The counterpart of trace/trace_binary.h: maps the file read-only and
// checks the header and the block directory, never the payload. The
// payload columns are checked once, by TraceView::from_mapped
// (trace/trace_view.h), which also serves the rows reader
// read_trace_binary_file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/session.h"
#include "trace/trace_binary.h"
#include "util/mmap_file.h"

namespace cl {

/// A memory-mapped `.cltrace` file whose header and directory are
/// checked.
///
/// Construction validates everything structural: magic, version (the
/// current version 3, or the legacy versions 2 and 1 — see
/// trace/trace_binary.h), block directory (every block id of that
/// version present exactly once, element widths, counts, bounds) and the
/// exact file size. It reads no payload byte (metro_name() checks the
/// name block when called): bitrates, the swarm index or swarm-major
/// layout and the session ordering are TraceView's to check
/// (trace/trace_view.h).
///
/// Storage order vs time order: a version-3 file stores its sessions
/// swarm-major (storage position p is not the p-th session in start
/// order) and block 12 maps time to storage; v1/v2 files store start
/// order.
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

  /// Raw payload bytes of block `id` (see trace/trace_binary.h for the
  /// block table). The pointer is valid for the lifetime of this
  /// MappedTrace; blocks are little-endian and 64-byte aligned within
  /// the file. TraceView (trace/trace_view.h) casts these to typed
  /// column pointers, or decodes them where it cannot.
  [[nodiscard]] const unsigned char* raw_block(std::size_t id) const {
    return block(id);
  }

  /// Decodes the swarm-index group table (blocks 8-11), with each
  /// group's `begin` the sum of the counts before it. Unchecked: the
  /// callers run check_swarm_index or check_swarm_major on it.
  [[nodiscard]] std::vector<SwarmIndexGroup> index_groups() const;

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

}  // namespace cl
