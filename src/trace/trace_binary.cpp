#include "trace/trace_binary.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <vector>

#include "trace/swarm_index.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/serialize.h"

namespace cl {

namespace {

std::size_t align_up(std::size_t offset) {
  const std::size_t rem = offset % kTraceBinaryAlignment;
  return rem == 0 ? offset : offset + (kTraceBinaryAlignment - rem);
}

void write_all(std::ostream& out, const std::string& bytes) {
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Stores `width`-byte elements, one per item, from `p` on, filling row
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

/// Serializes one block's payload into `buf` and returns its size. One
/// buffer, sized for the largest block, serves every block in turn, so
/// the writer's transient memory is one column, not the file — at paper
/// scale the file is ~1 GB and the Trace itself ~1.1 GB, so materializing
/// a second full image would triple the peak.
std::size_t block_bytes(std::uint32_t id, const Trace& trace,
                        const SwarmIndex& index, unsigned char* buf,
                        unsigned threads) {
  const std::vector<SessionRecord>& sessions = trace.sessions;
  const std::vector<SwarmIndexGroup>& groups = index.groups;
  switch (id) {
    case 0:
      return store_each(buf, sessions, 4, threads, [](auto* p, const auto& s) {
        store_u32_le(p, s.user);
      });
    case 1:
      return store_each(buf, sessions, 4, threads, [](auto* p, const auto& s) {
        store_u32_le(p, s.household);
      });
    case 2:
      return store_each(buf, sessions, 4, threads, [](auto* p, const auto& s) {
        store_u32_le(p, s.content);
      });
    case 3:
      return store_each(buf, sessions, 4, threads, [](auto* p, const auto& s) {
        store_u32_le(p, s.isp);
      });
    case 4:
      return store_each(buf, sessions, 4, threads, [](auto* p, const auto& s) {
        store_u32_le(p, s.exp);
      });
    case 5:
      return store_each(buf, sessions, 1, threads, [](auto* p, const auto& s) {
        *p = static_cast<unsigned char>(s.bitrate);
      });
    case 6:
      return store_each(buf, sessions, 8, threads, [](auto* p, const auto& s) {
        store_f64_le(p, s.start);
      });
    case 7:
      return store_each(buf, sessions, 8, threads, [](auto* p, const auto& s) {
        store_f64_le(p, s.duration);
      });
    case 8:
      return store_each(buf, groups, 4, threads, [](auto* p, const auto& g) {
        store_u32_le(p, g.content);
      });
    case 9:
      return store_each(buf, groups, 4, threads, [](auto* p, const auto& g) {
        store_u32_le(p, g.isp);
      });
    case 10:
      return store_each(buf, groups, 1, threads, [](auto* p, const auto& g) {
        *p = g.bitrate;
      });
    case 11:
      return store_each(buf, groups, 8, threads, [](auto* p, const auto& g) {
        store_u64_le(p, g.count);
      });
    case 12:
      return store_each(buf, index.order, 4, threads,
                        [](auto* p, std::uint32_t i) { store_u32_le(p, i); });
    case 13:
      std::memcpy(buf, trace.metro_name.data(), trace.metro_name.size());
      return trace.metro_name.size();
    default:
      CL_EXPECTS(id < kTraceBinaryBlockCount);
  }
  return 0;
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

}  // namespace

void write_trace_binary(std::ostream& out, const Trace& trace,
                        unsigned threads) {
  const std::size_t n = trace.sessions.size();
  CL_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max());
  CL_EXPECTS(valid_trace_metro_name(trace.metro_name));

  const SwarmIndex built =
      trace.swarm_index.empty() && n > 0 ? build_swarm_index(trace, threads)
                                         : SwarmIndex{};
  const SwarmIndex& index =
      trace.swarm_index.empty() && n > 0 ? built : trace.swarm_index;
  validate_swarm_index(index, trace, threads);
  const std::size_t groups = index.groups.size();
  const std::size_t metro_bytes = trace.metro_name.size();

  // Every block's size is a function of (n, groups, metro_bytes) alone,
  // so the whole layout — offsets included — is computed before a single
  // payload byte is built.
  std::uint64_t offsets[kTraceBinaryBlockCount];
  std::size_t cursor = align_up(kTraceBinaryHeaderBytes +
                                kTraceBinaryBlockCount *
                                    kTraceBinaryDirEntryBytes);
  std::size_t total = cursor;
  std::size_t largest = 0;
  for (std::uint32_t id = 0; id < kTraceBinaryBlockCount; ++id) {
    const std::size_t bytes =
        block_count(id, n, groups, metro_bytes) * kTraceBinaryElemSize[id];
    offsets[id] = cursor;
    total = cursor + bytes;
    cursor = align_up(total);
    largest = std::max(largest, bytes);
  }

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
  write_all(out, header);

  std::size_t written = header.size();
  const auto buf = std::make_unique_for_overwrite<unsigned char[]>(largest);
  for (std::uint32_t id = 0; id < kTraceBinaryBlockCount; ++id) {
    out.write(std::string(offsets[id] - written, '\0').data(),
              static_cast<std::streamsize>(offsets[id] - written));
    const std::size_t bytes =
        block_bytes(id, trace, index, buf.get(), threads);
    out.write(reinterpret_cast<const char*>(buf.get()),
              static_cast<std::streamsize>(bytes));
    written = offsets[id] + bytes;
  }
  CL_ENSURES(written == total);
}

std::string serialize_trace_binary(const Trace& trace, unsigned threads) {
  std::ostringstream out;
  write_trace_binary(out, trace, threads);
  return std::move(out).str();
}

void write_trace_binary_file(const std::string& path, const Trace& trace,
                             unsigned threads) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot create trace file: " + path);
  write_trace_binary(out, trace, threads);
  out.flush();
  if (!out) throw IoError("failed writing trace file: " + path);
}

}  // namespace cl
