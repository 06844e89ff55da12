#include "trace/trace_mmap.h"

#include <charconv>
#include <cstring>
#include <limits>

#include "trace/trace_binary.h"
#include "util/error.h"
#include "util/serialize.h"

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

}  // namespace cl
