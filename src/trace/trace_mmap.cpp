#include "trace/trace_mmap.h"

#include <charconv>
#include <cstring>
#include <limits>

#include "trace/bitrate.h"
#include "trace/swarm_index.h"
#include "trace/trace_binary.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/serialize.h"
#include "util/simd.h"

namespace cl {

namespace {

// Layout constants are shared with the writer via trace_binary.h
// (kTraceBinaryHeaderBytes, kTraceBinaryDirEntryBytes,
// kTraceBinaryElemSize, kTraceBinaryCountKind) — the two sides cannot
// drift apart.

[[noreturn]] void corrupt(const std::string& what) {
  throw ParseError("corrupt .cltrace file: " + what);
}

}  // namespace

MappedTrace::MappedTrace(const std::string& path) : file_(path) {
  if (file_.size() < kTraceBinaryHeaderBytes) {
    corrupt("shorter than the fixed header (" + std::to_string(file_.size()) +
            " bytes)");
  }
  const unsigned char* p = file_.data();
  if (std::memcmp(p, kTraceBinaryMagic, sizeof kTraceBinaryMagic) != 0) {
    corrupt("bad magic (not a .cltrace file)");
  }
  version_ = load_u32_le(p + 8);
  if (version_ < kTraceBinaryLegacyVersion || version_ > kTraceBinaryVersion) {
    corrupt("unsupported format version " + std::to_string(version_) +
            " (this build reads versions " +
            std::to_string(kTraceBinaryLegacyVersion) + ".." +
            std::to_string(kTraceBinaryVersion) + ")");
  }
  // Legacy v1 files predate the metro-name block: 13 blocks, metro empty.
  const std::uint32_t expected_blocks = version_ == kTraceBinaryLegacyVersion
                                            ? kTraceBinaryBlockCountV1
                                            : kTraceBinaryBlockCount;
  const std::uint64_t n = load_u64_le(p + 16);
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    corrupt("session count exceeds the 32-bit index space");
  }
  sessions_ = static_cast<std::size_t>(n);
  span_ = Seconds{load_f64_le(p + 24)};
  if (!valid_trace_span(span_.value())) {
    char text[32];
    const auto end = std::to_chars(text, text + sizeof text, span_.value());
    corrupt("header span " + std::string(text, end.ptr) +
            " s is not in [0, " + std::to_string(kMaxTraceDays) +
            " days]");
  }
  const std::uint32_t blocks = load_u32_le(p + 32);
  if (blocks != expected_blocks) {
    corrupt("expected " + std::to_string(expected_blocks) +
            " blocks for version " + std::to_string(version_) +
            ", directory lists " + std::to_string(blocks));
  }
  const std::size_t directory_end =
      kTraceBinaryHeaderBytes +
      static_cast<std::size_t>(blocks) * kTraceBinaryDirEntryBytes;
  if (file_.size() < directory_end) {
    corrupt("truncated block directory");
  }

  bool seen[kTraceBinaryBlockCount] = {};
  std::uint64_t group_count = 0;
  bool groups_set = false;
  std::uint64_t expected_end = directory_end;
  for (std::uint32_t b = 0; b < blocks; ++b) {
    const unsigned char* entry =
        p + kTraceBinaryHeaderBytes + b * kTraceBinaryDirEntryBytes;
    const std::uint32_t id = load_u32_le(entry);
    const std::uint32_t elem = load_u32_le(entry + 4);
    const std::uint64_t offset = load_u64_le(entry + 8);
    const std::uint64_t count = load_u64_le(entry + 16);
    if (id >= expected_blocks) {
      corrupt("unknown block id " + std::to_string(id) + " for version " +
              std::to_string(version_));
    }
    if (seen[id]) corrupt("duplicate block id " + std::to_string(id));
    seen[id] = true;
    if (elem != kTraceBinaryElemSize[id]) {
      corrupt("block " + std::to_string(id) + " has element size " +
              std::to_string(elem) + ", expected " +
              std::to_string(kTraceBinaryElemSize[id]));
    }
    switch (kTraceBinaryCountKind[id]) {
      case TraceBlockCountKind::kSessions:
        if (count != n) {
          corrupt("block " + std::to_string(id) + " holds " +
                  std::to_string(count) + " elements, expected the session "
                  "count " + std::to_string(n));
        }
        break;
      case TraceBlockCountKind::kGroups:
        if (groups_set && count != group_count) {
          corrupt("index group blocks disagree on the group count");
        }
        group_count = count;
        groups_set = true;
        break;
      case TraceBlockCountKind::kMetroName:
        if (count > kTraceMetroNameMaxBytes) {
          corrupt("metro name block exceeds " +
                  std::to_string(kTraceMetroNameMaxBytes) + " bytes");
        }
        metro_bytes_ = static_cast<std::size_t>(count);
        break;
    }
    const std::uint64_t bytes = count * elem;
    if (offset < directory_end || offset + bytes < offset ||
        offset + bytes > file_.size()) {
      corrupt("block " + std::to_string(id) +
              " extends past the end of the file (truncated column block?)");
    }
    offsets_[id] = offset;
    if (offset + bytes > expected_end) expected_end = offset + bytes;
  }
  // `seen` has no gaps below expected_blocks here: that many entries with
  // ids < expected_blocks and no duplicates pigeonhole into one of each.
  groups_ = static_cast<std::size_t>(group_count);
  if (groups_ > sessions_) {
    corrupt("more swarm-index groups than sessions");
  }
  if (expected_end != file_.size()) {
    corrupt("trailing bytes after the last column block");
  }
}

const unsigned char* MappedTrace::block(std::size_t id) const {
  return file_.data() + offsets_[id];
}

std::string MappedTrace::metro_name() const {
  if (metro_bytes_ == 0) return {};
  std::string name(reinterpret_cast<const char*>(block(kTraceBinaryMetroBlockId)),
                   metro_bytes_);
  if (!valid_trace_metro_name(name)) {
    corrupt("metro name block contains control characters");
  }
  return name;
}

SessionRecord MappedTrace::session(std::size_t i) const {
  CL_EXPECTS(i < sessions_);
  std::size_t p = i;
  if (swarm_major()) {
    p = load_u32_le(block(12) + 4 * i);
    if (p >= sessions_) {
      corrupt("time order references an out-of-range session");
    }
  }
  SessionRecord s;
  s.user = load_u32_le(block(0) + 4 * p);
  s.household = load_u32_le(block(1) + 4 * p);
  s.content = load_u32_le(block(2) + 4 * p);
  s.isp = load_u32_le(block(3) + 4 * p);
  s.exp = load_u32_le(block(4) + 4 * p);
  s.bitrate = static_cast<BitrateClass>(block(5)[p]);
  s.start = load_f64_le(block(6) + 8 * p);
  s.duration = load_f64_le(block(7) + 8 * p);
  return s;
}

std::vector<SwarmIndexGroup> MappedTrace::index_groups() const {
  std::vector<SwarmIndexGroup> groups(groups_);
  const unsigned char* content = block(8);
  const unsigned char* isp = block(9);
  const unsigned char* bitrate = block(10);
  const unsigned char* count = block(11);
  std::uint64_t begin = 0;
  for (std::size_t g = 0; g < groups_; ++g) {
    SwarmIndexGroup& group = groups[g];
    group.content = load_u32_le(content + 4 * g);
    group.isp = load_u32_le(isp + 4 * g);
    group.bitrate = bitrate[g];
    group.count = load_u64_le(count + 8 * g);
    group.begin = begin;
    begin += group.count;
  }
  return groups;
}

Trace MappedTrace::to_trace(unsigned threads) const {
  Trace trace;
  trace.span = span_;
  trace.metro_name = metro_name();
  trace.swarm_index.groups = index_groups();
  const unsigned char* user = block(0);
  const unsigned char* household = block(1);
  const unsigned char* content = block(2);
  const unsigned char* isp = block(3);
  const unsigned char* exp = block(4);
  const unsigned char* bitrate = block(5);
  const unsigned char* start = block(6);
  const unsigned char* duration = block(7);

  // Block 12: v1/v2 store the index order, v3 the time order (storage
  // position of each session in start order).
  const bool swarm_major_file = swarm_major();
  std::vector<std::uint32_t> block12(sessions_);
  const unsigned char* raw12 = block(12);
  parallel_shards(sessions_, threads,
                  [&](unsigned, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      block12[i] = load_u32_le(raw12 + 4 * i);
                    }
                  });
  if (swarm_major_file) {
    struct StoredKeys {
      const unsigned char* content;
      const unsigned char* isp;
      const unsigned char* bitrate;
      const unsigned char* start;
      void prefetch_start(std::uint32_t p) const {
        simd::prefetch(start + 8 * p);
      }
      bool matches(std::size_t, std::uint32_t p,
                   const SwarmIndexGroup& group) const {
        return load_u32_le(content + 4 * p) == group.content &&
               load_u32_le(isp + 4 * p) == group.isp &&
               bitrate[p] == group.bitrate;
      }
      double start_of(std::uint32_t p) const {
        return load_f64_le(start + 8 * p);
      }
    };
    try {
      check_swarm_major(trace.swarm_index.groups, block12, sessions_,
                        StoredKeys{content, isp, bitrate, start}, threads);
    } catch (const ParseError& e) {
      corrupt(e.what());
    }
  }

  // Row t is the session stored at position time_order[t] (v3) or t.
  trace.sessions.resize(sessions_);
  parallel_shards(sessions_, threads,
                  [&](unsigned, std::size_t begin, std::size_t end) {
                    for (std::size_t t = begin; t < end; ++t) {
                      const std::size_t i = swarm_major_file ? block12[t] : t;
                      SessionRecord& s = trace.sessions[t];
                      s.user = load_u32_le(user + 4 * i);
                      s.household = load_u32_le(household + 4 * i);
                      s.content = load_u32_le(content + 4 * i);
                      s.isp = load_u32_le(isp + 4 * i);
                      s.exp = load_u32_le(exp + 4 * i);
                      if (bitrate[i] >= kBitrateClasses) {
                        throw ParseError(
                            "corrupt .cltrace file: bitrate class out of "
                            "range: " + std::to_string(bitrate[i]));
                      }
                      s.bitrate = static_cast<BitrateClass>(bitrate[i]);
                      s.start = load_f64_le(start + 8 * i);
                      s.duration = load_f64_le(duration + 8 * i);
                    }
                  });

  if (swarm_major_file) {
    // The index order is the inverse permutation: storage position p
    // holds the session of start rank t with time_order[t] = p.
    trace.swarm_index.order.resize(sessions_);
    parallel_shards(sessions_, threads,
                    [&](unsigned, std::size_t begin, std::size_t end) {
                      for (std::size_t t = begin; t < end; ++t) {
                        trace.swarm_index.order[block12[t]] =
                            static_cast<std::uint32_t>(t);
                      }
                    });
    // check_swarm_major matched every key; what it leaves open is that
    // sessions of equal start sit in time order inside their group, i.e.
    // that the inverse ascends within each group.
    struct KeysChecked {
      void prefetch(std::uint32_t) const {}
      bool matches(std::size_t, std::uint32_t,
                   const SwarmIndexGroup&) const {
        return true;
      }
    };
    check_swarm_index(trace.swarm_index.groups, trace.swarm_index.order,
                      sessions_, KeysChecked{}, threads);
  } else {
    trace.swarm_index.order = std::move(block12);
    validate_swarm_index(trace.swarm_index, trace, threads);
  }

  // The same invariants the CSV reader enforces (ordering, non-negative
  // durations, sessions inside the span) — surfaced as ParseError since
  // the data came from an untrusted file, not a caller bug.
  try {
    trace.validate();
  } catch (const InvalidArgument& e) {
    throw ParseError(std::string("corrupt .cltrace file: ") + e.what());
  }
  return trace;
}

Trace read_trace_binary_file(const std::string& path, unsigned threads) {
  return MappedTrace(path).to_trace(threads);
}

}  // namespace cl
