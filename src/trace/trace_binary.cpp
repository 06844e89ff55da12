#include "trace/trace_binary.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "trace/swarm_index.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/serialize.h"
#include "util/simd.h"

namespace cl {

namespace {

std::size_t align_up(std::size_t offset) {
  const std::size_t rem = offset % kTraceBinaryAlignment;
  return rem == 0 ? offset : offset + (kTraceBinaryAlignment - rem);
}

/// The session columns (blocks 0-7) in block-id order.
constexpr std::size_t kSessionColumns = 8;

/// Bytes one session takes across the session columns.
constexpr std::size_t kSessionBytes = 4 * 5 + 1 + 8 + 8;

/// Storage positions per slice: the writer fills every session column
/// for one slice of positions, writes the slice out and reuses its
/// buffer, so that buffer stays under 10 MB at any trace size.
constexpr std::size_t kSlicePositions = std::size_t{1} << 18;

/// Stores `width`-byte elements, one per item, from `p` on, filling item
/// ranges on `threads` workers; returns the bytes stored. Each item owns
/// its own bytes, so the result does not depend on the thread count.
template <typename Items, typename Store>
std::size_t store_each(unsigned char* p, const Items& items, std::size_t width,
                       unsigned threads, Store&& store) {
  parallel_shards(items.size(), threads,
                  [&](unsigned, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      store(p + i * width, items[i]);
                    }
                  });
  return items.size() * width;
}

/// Directory element count of one block (see TraceBlockCountKind).
std::uint64_t block_count(std::uint32_t id, std::size_t n, std::size_t groups,
                          std::size_t metro_bytes) {
  switch (kTraceBinaryCountKind[id]) {
    case TraceBlockCountKind::kSessions:
      return n;
    case TraceBlockCountKind::kGroups:
      return groups;
    case TraceBlockCountKind::kMetroName:
      return metro_bytes;
  }
  return 0;
}

/// Refuses, before any work, a trace whose file no reader would accept.
void check_writable(const Trace& trace) {
  CL_EXPECTS(trace.sessions.size() <=
             std::numeric_limits<std::uint32_t>::max());
  CL_EXPECTS(valid_trace_metro_name(trace.metro_name));
  require_writable_trace_span(trace.span.value());
}

/// The fill of one slice, as the check_swarm_index_range visitor: for the
/// session listed at storage position p it stores every session column
/// at p, records p as the session's time-order entry and checks the key.
struct SliceFill {
  const SessionRecord* rows;
  std::size_t lo;  ///< first position of the slice
  unsigned char* column[kSessionColumns];
  std::uint32_t* time_order;

  void prefetch(std::uint32_t s) const { simd::prefetch(rows + s); }

  bool matches(std::size_t p, std::uint32_t s,
               const SwarmIndexGroup& group) const {
    const SessionRecord& r = rows[s];
    const std::size_t at = p - lo;
    store_u32_le(column[0] + 4 * at, r.user);
    store_u32_le(column[1] + 4 * at, r.household);
    store_u32_le(column[2] + 4 * at, r.content);
    store_u32_le(column[3] + 4 * at, r.isp);
    store_u32_le(column[4] + 4 * at, r.exp);
    column[5][at] = static_cast<unsigned char>(r.bitrate);
    store_f64_le(column[6] + 8 * at, r.start);
    store_f64_le(column[7] + 8 * at, r.duration);
    // An invalid given index can list a session twice, from two workers;
    // the relaxed store keeps that a reported error, not a data race.
    std::atomic_ref<std::uint32_t>(time_order[s]).store(
        static_cast<std::uint32_t>(p), std::memory_order_relaxed);
    return r.content == group.content && r.isp == group.isp &&
           static_cast<std::uint8_t>(r.bitrate) == group.bitrate;
  }
};

/// Lays out the file and hands its bytes to `sink`: sink.open(total)
/// once, then sink.put(offset, bytes, size) for disjoint ranges that
/// together cover [0, total) exactly, in no particular order.
template <typename Sink>
void write_image(const Trace& trace, unsigned threads, Sink& sink) {
  const std::size_t n = trace.sessions.size();
  const SwarmIndex built =
      trace.swarm_index.empty() && n > 0 ? build_swarm_index(trace, threads)
                                         : SwarmIndex{};
  const SwarmIndex& index =
      trace.swarm_index.empty() && n > 0 ? built : trace.swarm_index;
  check_swarm_index_groups(index.groups, index.order.size(), n);
  const std::size_t groups = index.groups.size();
  const std::size_t metro_bytes = trace.metro_name.size();

  // Every block's size is a function of (n, groups, metro_bytes) alone,
  // so the whole layout — offsets included — is computed before a single
  // payload byte is built.
  std::uint64_t offsets[kTraceBinaryBlockCount];
  std::size_t block_end[kTraceBinaryBlockCount];
  std::size_t cursor = align_up(kTraceBinaryHeaderBytes +
                                kTraceBinaryBlockCount *
                                    kTraceBinaryDirEntryBytes);
  for (std::uint32_t id = 0; id < kTraceBinaryBlockCount; ++id) {
    offsets[id] = cursor;
    block_end[id] = cursor + block_count(id, n, groups, metro_bytes) *
                                 kTraceBinaryElemSize[id];
    cursor = align_up(block_end[id]);
  }
  sink.open(block_end[kTraceBinaryBlockCount - 1]);

  std::string header;
  header.reserve(kTraceBinaryHeaderBytes +
                 kTraceBinaryBlockCount * kTraceBinaryDirEntryBytes);
  header.append(reinterpret_cast<const char*>(kTraceBinaryMagic),
                sizeof kTraceBinaryMagic);
  append_u32_le(header, kTraceBinaryVersion);
  append_u32_le(header, 0);  // reserved flags
  append_u64_le(header, n);
  append_f64_le(header, trace.span.value());
  append_u32_le(header, kTraceBinaryBlockCount);
  append_u32_le(header, 0);  // reserved
  for (std::uint32_t id = 0; id < kTraceBinaryBlockCount; ++id) {
    append_u32_le(header, id);
    append_u32_le(header, kTraceBinaryElemSize[id]);
    append_u64_le(header, offsets[id]);
    append_u64_le(header, block_count(id, n, groups, metro_bytes));
  }
  sink.put(0, reinterpret_cast<const unsigned char*>(header.data()),
           header.size());
  static constexpr unsigned char kZeros[kTraceBinaryAlignment] = {};
  std::size_t padding_from = header.size();
  for (std::uint32_t id = 0; id < kTraceBinaryBlockCount; ++id) {
    sink.put(padding_from, kZeros, offsets[id] - padding_from);
    padding_from = block_end[id];
  }

  // Session columns, swarm-major: position p of every column holds the
  // session index.order[p], read once per position.
  const std::size_t slice_cap = std::min(n, kSlicePositions);
  const auto slice =
      std::make_unique_for_overwrite<unsigned char[]>(slice_cap *
                                                      kSessionBytes);
  const auto time_order = std::make_unique_for_overwrite<std::uint32_t[]>(n);
  SliceFill fill{trace.sessions.data(), 0, {}, time_order.get()};
  std::size_t column_at = 0;
  for (std::size_t c = 0; c < kSessionColumns; ++c) {
    fill.column[c] = slice.get() + column_at;
    column_at += kTraceBinaryElemSize[c] * slice_cap;
  }
  for (std::size_t lo = 0; lo < n; lo += slice_cap) {
    const std::size_t hi = std::min(n, lo + slice_cap);
    fill.lo = lo;
    check_swarm_index_range(index.groups, index.order, lo, hi, n, fill,
                            threads);
    for (std::size_t c = 0; c < kSessionColumns; ++c) {
      const std::size_t width = kTraceBinaryElemSize[c];
      sink.put(offsets[c] + width * lo, fill.column[c], width * (hi - lo));
    }
  }

  // Block 12, the time order: the check above listed every session once.
  for (std::size_t lo = 0; lo < n; lo += slice_cap) {
    const std::span<const std::uint32_t> part(time_order.get() + lo,
                                              std::min(n - lo, slice_cap));
    const std::size_t bytes = store_each(
        slice.get(), part, 4, threads,
        [](auto* p, std::uint32_t v) { store_u32_le(p, v); });
    sink.put(offsets[12] + 4 * lo, slice.get(), bytes);
  }

  // Blocks 8-11, the group table (one entry per swarm).
  const std::vector<SwarmIndexGroup>& table = index.groups;
  std::vector<unsigned char> bytes(groups * 8);
  const auto put_groups = [&](std::uint32_t id, std::size_t width,
                              auto store) {
    const std::size_t size =
        store_each(bytes.data(), table, width, threads, store);
    sink.put(offsets[id], bytes.data(), size);
  };
  put_groups(8, 4, [](auto* p, const auto& e) { store_u32_le(p, e.content); });
  put_groups(9, 4, [](auto* p, const auto& e) { store_u32_le(p, e.isp); });
  put_groups(10, 1, [](auto* p, const auto& e) { *p = e.bitrate; });
  put_groups(11, 8, [](auto* p, const auto& e) { store_u64_le(p, e.count); });
  sink.put(offsets[kTraceBinaryMetroBlockId],
           reinterpret_cast<const unsigned char*>(trace.metro_name.data()),
           metro_bytes);
}

}  // namespace

std::string serialize_trace_binary(const Trace& trace, unsigned threads) {
  check_writable(trace);
  struct StringSink {
    std::string bytes;
    void open(std::size_t total) { bytes.assign(total, '\0'); }
    void put(std::uint64_t at, const unsigned char* p, std::size_t size) {
      CL_ENSURES(at + size <= bytes.size());
      if (size > 0) std::memcpy(bytes.data() + at, p, size);
    }
  } sink;
  write_image(trace, threads, sink);
  return std::move(sink.bytes);
}

void write_trace_binary_file(const std::string& path, const Trace& trace,
                             unsigned threads) {
  check_writable(trace);
  struct FileSink {
    std::ofstream out;
    void open(std::size_t) {}
    void put(std::uint64_t at, const unsigned char* p, std::size_t size) {
      if (size == 0) return;
      out.seekp(static_cast<std::streamoff>(at));
      out.write(reinterpret_cast<const char*>(p),
                static_cast<std::streamsize>(size));
    }
  } sink{std::ofstream(path, std::ios::binary | std::ios::trunc)};
  if (!sink.out) throw IoError("cannot create trace file: " + path);
  try {
    write_image(trace, threads, sink);
  } catch (...) {
    // A half-written file would only be refused later, by a reader.
    sink.out.close();
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
    throw;
  }
  sink.out.flush();
  if (!sink.out) throw IoError("failed writing trace file: " + path);
}

}  // namespace cl
