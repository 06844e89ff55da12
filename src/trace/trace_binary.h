// trace_binary.h — the `.cltrace` binary columnar trace format (writer
// side; the reader is trace/trace_mmap.h, which maps the file and checks
// its header, and trace/trace_view.h, which checks the payload).
//
// Month-scale traces (paper scale: 23.5M sessions) cannot be re-parsed
// from CSV on every run — row-oriented text parsing dominates end-to-end
// wall time once the simulator itself is parallel. `.cltrace` stores the
// same sessions as fixed-width little-endian *columns*, grouped by swarm
// key (trace/swarm_index.h), so a loader can shard column ranges across
// threads and the simulator sweeps each swarm as one contiguous slice of
// every column, without parsing a single byte of text.
//
// On-disk layout (version 3, everything little-endian):
//
//   offset  size  field
//   0       8     magic "CLTRACE\0"
//   8       4     format version (u32) = 3
//   12      4     reserved flags (u32) = 0
//   16      8     session count n (u64)
//   24      8     trace span in seconds (f64, IEEE-754 bit pattern)
//   32      4     block count (u32) = 14
//   36      4     reserved (u32) = 0
//   40      ...   block directory: 14 × {id u32, elem_size u32,
//                 offset u64, count u64} (24 bytes per entry)
//   ...     ...   payload blocks, each 64-byte aligned, zero padding
//
// Blocks (ids are stable; a reader must find every id exactly once):
//
//   id  content            element  count
//   0   user               u32      n
//   1   household          u32      n
//   2   content            u32      n
//   3   isp                u32      n
//   4   exp                u32      n
//   5   bitrate class      u8       n
//   6   start seconds      f64      n
//   7   duration seconds   f64      n
//   8   index group content  u32    g   (swarm index, g groups)
//   9   index group isp      u32    g
//   10  index group bitrate  u8     g
//   11  index group count    u64    g
//   12  time order           u32    n
//   13  metro name           u8     m   (v2+: UTF-8 registry name,
//                                        m = byte length, 0 = unknown)
//
// Storage order (v3): sessions are stored swarm-major. The groups ascend
// by (content, isp, bitrate), group g holds storage positions
// [begin, begin + count) with begin the sum of the counts before it, and
// inside a group the sessions keep their order in the trace (start
// order). Block 12 maps time to storage: time_order[t] is the storage
// position of the t-th session in start order, so reading the columns
// through it gives back the trace's rows.
//
// Version policy: any layout change — new/removed blocks, different
// element widths, reordered header fields, a different storage order —
// bumps kTraceBinaryVersion and adds a golden file under tests/data/.
// The writer emits only the current version. The reader also decodes
// the legacy versions, zero-copy like the current one:
//
//  * version 2 stores sessions in start order, and block 12 is the
//    swarm-key-sorted permutation of session indices (the SwarmIndex
//    order: ascending indices within each group);
//  * version 1 is version 2 without block 13 (such traces load with an
//    empty metro name).
//
// Everything else is rejected outright (no silent best-effort decoding
// of a mislabeled layout).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/session.h"

namespace cl {

/// Magic bytes at offset 0 of every `.cltrace` file.
inline constexpr unsigned char kTraceBinaryMagic[8] = {'C', 'L', 'T', 'R',
                                                       'A', 'C', 'E', '\0'};

/// Current format version (see the version policy above).
inline constexpr std::uint32_t kTraceBinaryVersion = 3;

/// Oldest version the reader still decodes (v1 = v2 minus the metro-name
/// block).
inline constexpr std::uint32_t kTraceBinaryLegacyVersion = 1;

/// First version that stores sessions swarm-major, with block 12 the
/// time order (earlier versions store start order, block 12 the index
/// order).
inline constexpr std::uint32_t kTraceBinarySwarmMajorVersion = 3;

/// Payload blocks start on multiples of this (room for future zero-copy
/// typed views; padding bytes are zero).
inline constexpr std::size_t kTraceBinaryAlignment = 64;

/// Number of blocks in a version-2 or version-3 file.
inline constexpr std::uint32_t kTraceBinaryBlockCount = 14;

/// Number of blocks in a legacy version-1 file (no metro-name block).
inline constexpr std::uint32_t kTraceBinaryBlockCountV1 = 13;

/// Block id of the metro-name column (v2+).
inline constexpr std::uint32_t kTraceBinaryMetroBlockId = 13;

/// Size of the fixed header preceding the block directory.
inline constexpr std::size_t kTraceBinaryHeaderBytes = 40;

/// Size of one block-directory entry ({id, elem_size, offset, count}).
inline constexpr std::size_t kTraceBinaryDirEntryBytes = 24;

/// Element width of each block, indexed by block id (see the table above).
inline constexpr std::uint32_t kTraceBinaryElemSize[kTraceBinaryBlockCount] =
    {4, 4, 4, 4, 4, 1, 8, 8,  // session columns
     4, 4, 1, 8,              // index group columns
     4,                       // time order (v3) / index order (v1, v2)
     1};                      // metro name bytes

/// What a block's directory `count` field holds, indexed by block id.
enum class TraceBlockCountKind : unsigned char {
  kSessions,   ///< the session count n
  kGroups,     ///< the swarm-index group count g
  kMetroName,  ///< the metro-name byte length (0..kTraceMetroNameMaxBytes)
};

inline constexpr TraceBlockCountKind
    kTraceBinaryCountKind[kTraceBinaryBlockCount] = {
        TraceBlockCountKind::kSessions, TraceBlockCountKind::kSessions,
        TraceBlockCountKind::kSessions, TraceBlockCountKind::kSessions,
        TraceBlockCountKind::kSessions, TraceBlockCountKind::kSessions,
        TraceBlockCountKind::kSessions, TraceBlockCountKind::kSessions,
        TraceBlockCountKind::kGroups,   TraceBlockCountKind::kGroups,
        TraceBlockCountKind::kGroups,   TraceBlockCountKind::kGroups,
        TraceBlockCountKind::kSessions, TraceBlockCountKind::kMetroName};

/// Serializes a trace into the `.cltrace` byte layout. Builds the swarm
/// index with build_swarm_index when trace.swarm_index is empty, and
/// persists the existing one otherwise. Either way one sharded pass over
/// the storage positions reads each row once through the index order,
/// checks its key against its group (a given index must be a correct
/// swarm index of the sessions: cl::ParseError otherwise, like
/// validate_swarm_index), fills the session columns and scatters the
/// time order. Work shards across `threads` workers (0 = all hardware
/// threads). Deterministic: identical traces produce identical bytes at
/// every thread count. Throws cl::InvalidArgument, before any work, when
/// the span or the metro name could not be read back
/// (valid_trace_span, valid_trace_metro_name).
[[nodiscard]] std::string serialize_trace_binary(const Trace& trace,
                                                 unsigned threads = 0);

/// Writes a `.cltrace` file. The session columns go out in slices of a
/// bounded number of positions, so the writer's transient memory is the
/// time order plus one slice, not the file. Throws cl::InvalidArgument
/// like serialize_trace_binary before the file is created, and
/// cl::IoError when the file cannot be created or fully written.
void write_trace_binary_file(const std::string& path, const Trace& trace,
                             unsigned threads = 0);

}  // namespace cl
