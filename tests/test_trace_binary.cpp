// Tests for the binary columnar trace format (trace/trace_binary.h), the
// mmap loader (trace/trace_mmap.h) and the swarm index
// (trace/swarm_index.h):
//
//  * round-trip property tests — CSV -> binary -> mmap-load reproduces
//    sessions bit-identically (exact float compares), including empty /
//    single-session / maximal-field-value traces and randomized traces
//    across several RNG seeds;
//  * a golden file committed under tests/data/ pinning the exact byte
//    layout (any accidental format change fails with a "bump the
//    version" message);
//  * corrupt-input rejection — bad magic, wrong version, truncated
//    column blocks, trailing bytes, out-of-range payloads, a v3 layout
//    that breaks the swarm-major rules (tied starts listed out of storage
//    order among them) — by both readers alike;
//  * the radix-sorted swarm index against a comparison-sort oracle;
//  * cross-thread determinism — the mmap load itself and the analyzer /
//    simulator results on an mmap-loaded trace are bit-identical at
//    --threads 1/2/7/hw and identical to the CSV-loaded path;
//  * pinned digests of generated traces, so the generator's bytes cannot
//    change at every thread count alike unnoticed.
#include "trace/trace_binary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "sim/swarm_key.h"
#include "topology/metro_registry.h"
#include "trace/swarm_index.h"
#include "trace/trace_format.h"
#include "trace/trace_io.h"
#include "trace/trace_mmap.h"
#include "trace/trace_stats.h"
#include "trace/trace_view.h"
#include "trace/synthetic.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/serialize.h"

#include "fnv1a.h"
#include "temp_path.h"

#ifndef CL_TEST_DATA_DIR
#error "CMake must define CL_TEST_DATA_DIR (path of tests/data)"
#endif

namespace cl {
namespace {

// ---------------------------------------------------------------- helpers

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

/// Exact, field-by-field session equality (bit-exact doubles), plus the
/// header fields (span, metro name) that ride along.
void expect_sessions_identical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.span.value(), b.span.value());
  EXPECT_EQ(a.metro_name, b.metro_name);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const SessionRecord& x = a.sessions[i];
    const SessionRecord& y = b.sessions[i];
    ASSERT_EQ(x.user, y.user) << "i=" << i;
    ASSERT_EQ(x.household, y.household) << "i=" << i;
    ASSERT_EQ(x.content, y.content) << "i=" << i;
    ASSERT_EQ(x.isp, y.isp) << "i=" << i;
    ASSERT_EQ(x.exp, y.exp) << "i=" << i;
    ASSERT_EQ(x.bitrate, y.bitrate) << "i=" << i;
    // Exact equality on purpose: the binary format stores IEEE-754 bit
    // patterns and must reproduce them losslessly.
    ASSERT_EQ(x.start, y.start) << "i=" << i;
    ASSERT_EQ(x.duration, y.duration) << "i=" << i;
  }
}

std::string temp_path(const std::string& name) {
  return test::unique_temp_path(name);
}

/// Writes raw bytes to a temp file and returns its path.
std::string write_bytes(const std::string& name, const std::string& bytes) {
  const std::string path = temp_path(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return path;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Binary round trip through an actual file + the mmap loader.
Trace binary_round_trip(const Trace& trace, unsigned threads = 1) {
  const std::string path = temp_path("cl_trace_binary_rt.cltrace");
  write_trace_binary_file(path, trace);
  Trace loaded = read_trace_binary_file(path, threads);
  std::filesystem::remove(path);
  return loaded;
}

Trace tiny_trace() {
  Trace t;
  t.span = Seconds::from_days(1);
  SessionRecord a;
  a.user = 1;
  a.household = 10;
  a.content = 5;
  a.isp = 2;
  a.exp = 77;
  a.bitrate = BitrateClass::kHd;
  a.start = 100.5;
  a.duration = 1800.25;
  SessionRecord b = a;
  b.user = 2;
  b.start = 200.0;
  b.bitrate = BitrateClass::kMobile;
  SessionRecord c = a;
  c.user = 3;
  c.content = 9;
  c.isp = 0;
  c.start = 300.125;
  c.duration = 0.1;  // not exactly representable: exercises bit-exactness
  t.sessions = {a, b, c};
  return t;
}

/// The committed golden fixtures' session content. The legacy
/// tests/data/golden_v1.cltrace was written from exactly this trace by
/// the version-1 writer (no metro field); golden_v2.cltrace and
/// golden_v3.cltrace add the metro name — see golden_trace_v2().
Trace golden_trace() {
  Trace t;
  t.span = Seconds{86400.0};
  auto session = [](std::uint32_t user, std::uint32_t household,
                    std::uint32_t content, std::uint32_t isp,
                    std::uint32_t exp, BitrateClass bitrate, double start,
                    double duration) {
    SessionRecord s;
    s.user = user;
    s.household = household;
    s.content = content;
    s.isp = isp;
    s.exp = exp;
    s.bitrate = bitrate;
    s.start = start;
    s.duration = duration;
    return s;
  };
  t.sessions = {
      session(1, 1, 0, 0, 0, BitrateClass::kMobile, 0.0, 60.0),
      session(2, 1, 0, 0, 1, BitrateClass::kSd, 10.5, 600.25),
      session(3, 2, 1, 1, 0, BitrateClass::kHd, 100.1, 1800.0),
      session(4, 2, 1, 1, 0, BitrateClass::kFullHd, 250.0, 0.0),
      session(5, 3, 2, 4, 30, BitrateClass::kSd, 86000.0, 400.0),
  };
  return t;
}

/// The content of the v2 and current-version golden fixtures — the
/// current one (tests/data/golden_v3.cltrace) is regenerated from exactly
/// this trace (see the failure message in
/// TraceBinaryGolden.FileBytesMatchWriter).
Trace golden_trace_v2() {
  Trace t = golden_trace();
  t.metro_name = "london_top5";
  return t;
}

std::string golden_v1_path() {
  return std::string(CL_TEST_DATA_DIR) + "/golden_v1.cltrace";
}

std::string golden_v2_path() {
  return std::string(CL_TEST_DATA_DIR) + "/golden_v2.cltrace";
}

/// The current-version golden fixture.
std::string golden_path() {
  return std::string(CL_TEST_DATA_DIR) + "/golden_v3.cltrace";
}

using test::fnv1a;

// ------------------------------------------------------------ round trips

TEST(TraceBinaryRoundTrip, TinyTraceBitIdentical) {
  const Trace original = tiny_trace();
  expect_sessions_identical(binary_round_trip(original), original);
}

TEST(TraceBinaryRoundTrip, EmptyTrace) {
  Trace empty;
  empty.span = Seconds{3600.0};
  const Trace loaded = binary_round_trip(empty);
  EXPECT_TRUE(loaded.empty());
  EXPECT_EQ(loaded.span.value(), 3600.0);
  EXPECT_TRUE(loaded.swarm_index.groups.empty());
}

TEST(TraceBinaryRoundTrip, SingleSession) {
  Trace t;
  t.span = Seconds{1000.0};
  SessionRecord s;
  s.user = 42;
  s.bitrate = BitrateClass::kFullHd;
  s.start = 999.0;
  s.duration = 1.0;
  t.sessions = {s};
  const Trace loaded = binary_round_trip(t);
  expect_sessions_identical(loaded, t);
  ASSERT_EQ(loaded.swarm_index.groups.size(), 1u);
  EXPECT_EQ(loaded.swarm_index.order.size(), 1u);
}

TEST(TraceBinaryRoundTrip, MaximalFieldValues) {
  // Every id at its u32 maximum, the longest span a file may declare
  // (kMaxTraceSpanSeconds) with a session ending exactly on it, and the
  // smallest subnormal duration.
  constexpr auto u32_max = std::numeric_limits<std::uint32_t>::max();
  Trace t;
  t.span = Seconds{kMaxTraceSpanSeconds};
  SessionRecord s;
  s.user = u32_max;
  s.household = u32_max;
  s.content = u32_max;
  s.isp = u32_max;
  s.exp = u32_max;
  s.bitrate = BitrateClass::kFullHd;
  s.start = kMaxTraceSpanSeconds / 2;
  s.duration = kMaxTraceSpanSeconds / 2;
  SessionRecord tiny = s;
  tiny.duration = 5e-324;  // smallest subnormal double
  t.sessions = {s, tiny};
  expect_sessions_identical(binary_round_trip(t), t);
}

TEST(TraceBinaryRoundTrip, CsvToBinaryToMmapBitIdentical) {
  // The satellite contract verbatim: parse CSV, persist binary, mmap-load
  // — the loaded sessions must match the CSV-parsed ones bit for bit.
  const Trace original = tiny_trace();
  std::ostringstream csv;
  write_trace(csv, original);
  std::istringstream csv_in(csv.str());
  const Trace from_csv = read_trace(csv_in);
  expect_sessions_identical(binary_round_trip(from_csv), from_csv);
}

TEST(TraceBinaryRoundTrip, RandomizedAcrossSeeds) {
  // Fuzz-ish: randomized session fields (including occasional extreme
  // values) across several seeds, exact round-trip each time.
  for (const std::uint64_t seed : {1u, 7u, 42u, 1234u, 99999u, 777777u}) {
    Rng rng(seed);
    Trace t;
    t.span = Seconds{1e9};
    const std::size_t n = 50 + rng.uniform_index(200);
    double start = 0;
    for (std::size_t i = 0; i < n; ++i) {
      SessionRecord s;
      const bool extreme = rng.bernoulli(0.05);
      s.user = extreme ? std::numeric_limits<std::uint32_t>::max()
                       : static_cast<std::uint32_t>(rng.uniform_index(10000));
      s.household = static_cast<std::uint32_t>(rng.uniform_index(5000));
      s.content = static_cast<std::uint32_t>(rng.uniform_index(50));
      s.isp = static_cast<std::uint32_t>(rng.uniform_index(5));
      s.exp = static_cast<std::uint32_t>(rng.uniform_index(100));
      s.bitrate =
          static_cast<BitrateClass>(rng.uniform_index(kBitrateClasses));
      start += rng.exponential(1.0 / 100.0);
      s.start = start;
      s.duration = extreme ? 0.0 : rng.uniform(0.0, 1e5);
      t.sessions.push_back(s);
    }
    const Trace loaded = binary_round_trip(t);
    expect_sessions_identical(loaded, t);
    validate_swarm_index(loaded.swarm_index, loaded);
  }
}

TEST(TraceBinaryRoundTrip, SyntheticGeneratorTrace) {
  TraceConfig config;
  config.days = 2;
  config.users = 500;
  config.exemplar_views = {3000};
  config.catalogue_tail = 50;
  config.tail_views = 2000;
  const Trace original = TraceGenerator(config, metro()).generate();
  ASSERT_GT(original.size(), 100u);
  expect_sessions_identical(binary_round_trip(original), original);
}

TEST(TraceBinaryRoundTrip, CsvBinaryCsvByteIdentical) {
  // CSV -> Trace -> binary -> Trace -> CSV reproduces the first CSV byte
  // for byte (the `cl convert` there-and-back guarantee).
  const Trace original = tiny_trace();
  std::ostringstream csv1;
  write_trace(csv1, original);
  std::istringstream in1(csv1.str());
  const Trace through_binary = binary_round_trip(read_trace(in1));
  std::ostringstream csv2;
  write_trace(csv2, through_binary);
  EXPECT_EQ(csv1.str(), csv2.str());
}

// -------------------------------------------------- metro header field

TEST(TraceBinaryMetro, RoundTripsPopulatedMetroName) {
  Trace t = tiny_trace();
  t.metro_name = "us_sparse";
  const Trace loaded = binary_round_trip(t);
  EXPECT_EQ(loaded.metro_name, "us_sparse");
  expect_sessions_identical(loaded, t);
}

TEST(TraceBinaryMetro, RoundTripsAbsentMetroName) {
  const Trace t = tiny_trace();  // metro_name empty
  const Trace loaded = binary_round_trip(t);
  EXPECT_TRUE(loaded.metro_name.empty());
  expect_sessions_identical(loaded, t);
}

TEST(TraceBinaryMetro, CsvBinaryCsvByteIdenticalWithMetro) {
  // The satellite contract: the CSV <-> binary round trip stays byte
  // exact with the metro field populated...
  Trace original = tiny_trace();
  original.metro_name = "fiber_dense";
  std::ostringstream csv1;
  write_trace(csv1, original);
  EXPECT_NE(csv1.str().find("#metro=fiber_dense\n"), std::string::npos);
  std::istringstream in1(csv1.str());
  const Trace through_binary = binary_round_trip(read_trace(in1));
  std::ostringstream csv2;
  write_trace(csv2, through_binary);
  EXPECT_EQ(csv1.str(), csv2.str());
}

TEST(TraceBinaryMetro, CsvBinaryCsvByteIdenticalWithoutMetro) {
  // ...and when it is absent (no #metro= line materialises from nowhere).
  const Trace original = tiny_trace();
  std::ostringstream csv1;
  write_trace(csv1, original);
  EXPECT_EQ(csv1.str().find("#metro="), std::string::npos);
  std::istringstream in1(csv1.str());
  const Trace through_binary = binary_round_trip(read_trace(in1));
  std::ostringstream csv2;
  write_trace(csv2, through_binary);
  EXPECT_EQ(csv1.str(), csv2.str());
}

TEST(TraceBinaryMetro, MaximumLengthNameRoundTrips) {
  Trace t = tiny_trace();
  t.metro_name = std::string(kTraceMetroNameMaxBytes, 'm');
  const Trace loaded = binary_round_trip(t);
  EXPECT_EQ(loaded.metro_name, t.metro_name);
}

TEST(TraceBinaryMetro, WriterRejectsOversizedName) {
  Trace t = tiny_trace();
  t.metro_name = std::string(kTraceMetroNameMaxBytes + 1, 'm');
  EXPECT_THROW((void)serialize_trace_binary(t), InvalidArgument);
}

TEST(TraceBinaryMetro, WriterRejectsControlCharacters) {
  Trace t = tiny_trace();
  t.metro_name = "bad\nname";
  EXPECT_THROW((void)serialize_trace_binary(t), InvalidArgument);
  std::ostringstream csv;
  EXPECT_THROW(write_trace(csv, t), InvalidArgument);
}

TEST(TraceBinaryMetro, EmptyTraceCarriesMetroName) {
  Trace empty;
  empty.span = Seconds{3600.0};
  empty.metro_name = "london_top5";
  const Trace loaded = binary_round_trip(empty);
  EXPECT_TRUE(loaded.empty());
  EXPECT_EQ(loaded.metro_name, "london_top5");
}

TEST(TraceBinaryWriter, SerializationIsDeterministic) {
  const Trace t = tiny_trace();
  EXPECT_EQ(serialize_trace_binary(t), serialize_trace_binary(t));
}

TEST(TraceBinaryWriter, HeaderLayoutPinned) {
  const std::string bytes = serialize_trace_binary(tiny_trace());
  ASSERT_GE(bytes.size(), 40u);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  EXPECT_EQ(std::memcmp(p, kTraceBinaryMagic, 8), 0);
  EXPECT_EQ(load_u32_le(p + 8), kTraceBinaryVersion);  // version
  EXPECT_EQ(load_u32_le(p + 12), 0u);                  // flags
  EXPECT_EQ(load_u64_le(p + 16), 3u);                  // session count
  EXPECT_EQ(load_f64_le(p + 24), 86400.0);             // span
  EXPECT_EQ(load_u32_le(p + 32), kTraceBinaryBlockCount);
}

// ------------------------------------------------------------ mapped view

TEST(MappedTrace, ReportsHeaderFields) {
  const Trace t = tiny_trace();
  const std::string path = temp_path("cl_mapped_header.cltrace");
  write_trace_binary_file(path, t);
  const MappedTrace mapped(path);
  EXPECT_EQ(mapped.size(), 3u);
  EXPECT_EQ(mapped.version(), kTraceBinaryVersion);
  EXPECT_EQ(mapped.span().value(), t.span.value());
  EXPECT_EQ(mapped.group_count(), 3u);  // 3 distinct (content, isp, bitrate)
  EXPECT_EQ(mapped.file_size(), std::filesystem::file_size(path));
  std::filesystem::remove(path);
}

// ------------------------------------------------------------- swarm index

TEST(SwarmIndexTest, PackedKeyMatchesSimulatorSwarmKey) {
  // The trace layer duplicates SwarmKey::packed()'s layout to avoid a
  // trace -> sim dependency; this pin keeps the two from drifting.
  SwarmKey key;
  key.content = 1234;
  key.isp = 3;
  key.bitrate = 2;
  EXPECT_EQ(packed_swarm_key(1234, 3, 2), key.packed());
  SwarmKey sentinel;  // kAnyIsp / kAnyBitrate defaults
  sentinel.content = 9;
  EXPECT_EQ(packed_swarm_key(9, SwarmKey::kAnyIsp, SwarmKey::kAnyBitrate),
            sentinel.packed());
}

TEST(SwarmIndexTest, GroupsAscendCoverAndMatchSessions) {
  TraceConfig config;
  config.days = 2;
  config.users = 400;
  config.exemplar_views = {2000};
  config.catalogue_tail = 30;
  config.tail_views = 1500;
  const Trace trace = TraceGenerator(config, metro()).generate();
  const SwarmIndex index = build_swarm_index(trace);
  EXPECT_EQ(index.order.size(), trace.size());
  ASSERT_GT(index.groups.size(), 4u);
  validate_swarm_index(index, trace);  // throws on any violation
  for (std::size_t g = 1; g < index.groups.size(); ++g) {
    EXPECT_TRUE(SwarmIndex::key_less(index.groups[g - 1], index.groups[g]));
  }
}

TEST(SwarmIndexTest, ValidateRejectsTampering) {
  const Trace trace = tiny_trace();
  SwarmIndex index = build_swarm_index(trace);
  {
    SwarmIndex broken = index;
    broken.order.pop_back();
    EXPECT_THROW(validate_swarm_index(broken, trace), ParseError);
  }
  {
    SwarmIndex broken = index;
    broken.groups[0].content += 1;  // key no longer matches its sessions
    EXPECT_THROW(validate_swarm_index(broken, trace), ParseError);
  }
  {
    SwarmIndex broken = index;
    std::swap(broken.groups[0], broken.groups[1]);  // keys out of order
    EXPECT_THROW(validate_swarm_index(broken, trace), ParseError);
  }
  {
    SwarmIndex broken = index;
    broken.groups[0].count = 0;  // empty group
    EXPECT_THROW(validate_swarm_index(broken, trace), ParseError);
  }
}

TEST(SwarmIndexTest, ValidateRejectsSessionInTwoGroupsAndOneMissing) {
  // Sessions 0 and 1 share key A, session 2 has key B. The tampered
  // index lists session 2 in both groups and session 1 in none; every
  // count, offset and in-group order is still well formed.
  Trace trace = tiny_trace();
  trace.sessions[1].bitrate = trace.sessions[0].bitrate;
  const SwarmIndex index = build_swarm_index(trace);
  ASSERT_EQ(index.groups.size(), 2u);
  ASSERT_EQ(index.order, (std::vector<std::uint32_t>{0, 1, 2}));
  SwarmIndex broken = index;
  broken.order = {0, 2, 2};
  EXPECT_THROW(validate_swarm_index(broken, trace), ParseError);
}

TEST(SwarmIndexTest, ValidateRejectsWrongKeyOfLastSessionOnly) {
  TraceConfig config;
  config.days = 2;
  config.users = 300;
  config.exemplar_views = {900};
  config.catalogue_tail = 20;
  config.tail_views = 800;
  Trace trace = TraceGenerator(config, metro()).generate();
  const SwarmIndex index = build_swarm_index(trace);
  validate_swarm_index(index, trace);
  // The last session in file order moves to a content no group holds.
  trace.sessions.back().content += 1000;
  EXPECT_THROW(validate_swarm_index(index, trace), ParseError);
}

/// The comparison-sort swarm index: the specification build_swarm_index's
/// radix sort must reproduce.
SwarmIndex comparison_sort_index(const Trace& trace) {
  const std::size_t n = trace.sessions.size();
  SwarmIndex index;
  index.order.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) index.order[i] = i;
  std::sort(index.order.begin(), index.order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const SessionRecord& sa = trace.sessions[a];
              const SessionRecord& sb = trace.sessions[b];
              if (sa.content != sb.content) return sa.content < sb.content;
              if (sa.isp != sb.isp) return sa.isp < sb.isp;
              if (sa.bitrate != sb.bitrate) return sa.bitrate < sb.bitrate;
              return a < b;
            });
  for (std::size_t i = 0; i < n; ++i) {
    const SessionRecord& s = trace.sessions[index.order[i]];
    if (i == 0 || !(index.groups.back().content == s.content &&
                    index.groups.back().isp == s.isp &&
                    index.groups.back().bitrate ==
                        static_cast<std::uint8_t>(s.bitrate))) {
      SwarmIndexGroup group;
      group.content = s.content;
      group.isp = s.isp;
      group.bitrate = static_cast<std::uint8_t>(s.bitrate);
      group.begin = i;
      index.groups.push_back(group);
    }
    ++index.groups.back().count;
  }
  return index;
}

void expect_same_index(const SwarmIndex& got, const SwarmIndex& want) {
  ASSERT_EQ(got.order, want.order);
  ASSERT_EQ(got.groups.size(), want.groups.size());
  for (std::size_t g = 0; g < want.groups.size(); ++g) {
    EXPECT_EQ(got.groups[g].content, want.groups[g].content) << "g=" << g;
    EXPECT_EQ(got.groups[g].isp, want.groups[g].isp) << "g=" << g;
    EXPECT_EQ(got.groups[g].bitrate, want.groups[g].bitrate) << "g=" << g;
    EXPECT_EQ(got.groups[g].begin, want.groups[g].begin) << "g=" << g;
    EXPECT_EQ(got.groups[g].count, want.groups[g].count) << "g=" << g;
  }
}

/// A trace whose key columns draw from `contents` / `isps` and every
/// bitrate class, with starts in random (unsorted) order.
Trace random_key_trace(std::size_t n,
                       const std::vector<std::uint32_t>& contents,
                       const std::vector<std::uint32_t>& isps,
                       std::uint64_t seed) {
  Rng rng(seed);
  Trace trace;
  trace.span = Seconds::from_days(1);
  for (std::size_t i = 0; i < n; ++i) {
    SessionRecord s;
    s.user = static_cast<std::uint32_t>(i);
    s.content = contents[rng.uniform_index(contents.size())];
    s.isp = isps[rng.uniform_index(isps.size())];
    s.bitrate = kAllBitrateClasses[rng.uniform_index(kBitrateClasses)];
    s.start = rng.uniform(0.0, 86000.0);
    s.duration = 60;
    trace.sessions.push_back(s);
  }
  return trace;
}

TEST(SwarmIndexTest, RadixSortMatchesComparisonSortOracle) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  const std::vector<std::vector<std::uint32_t>> content_sets{
      {7},                                   // one content: its passes skip
      {0, 1, 2, 3, 4, 5, 3170},              // generated-trace shape
      {0, 1, 255, 256, 65535, 65536, kMax - 1, kMax},  // every byte differs
      {kMax, kMax - 1, kMax - 4096, 1u << 31},
  };
  const std::vector<std::vector<std::uint32_t>> isp_sets{
      {0}, {0, 1, 2, 3, 4}, {kMax, 0, 1u << 16, 1u << 24}, {kMax - 1, kMax}};
  std::uint64_t seed = 113;
  for (const auto& contents : content_sets) {
    for (const auto& isps : isp_sets) {
      for (const std::size_t n : {std::size_t{2}, std::size_t{37},
                                  std::size_t{5000}}) {
        const Trace trace = random_key_trace(n, contents, isps, ++seed);
        const SwarmIndex index = build_swarm_index(trace);
        SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                     std::to_string(seed));
        expect_same_index(index, comparison_sort_index(trace));
        validate_swarm_index(index, trace);
      }
    }
  }
}

TEST(SwarmIndexTest, RadixSortHandlesEmptyAndSingleSessionTraces) {
  const Trace empty;
  const SwarmIndex none = build_swarm_index(empty);
  EXPECT_TRUE(none.order.empty());
  EXPECT_TRUE(none.groups.empty());

  const Trace one = random_key_trace(
      1, {std::numeric_limits<std::uint32_t>::max()}, {3}, 127);
  const SwarmIndex single = build_swarm_index(one);
  expect_same_index(single, comparison_sort_index(one));
  ASSERT_EQ(single.groups.size(), 1u);
  EXPECT_EQ(single.groups[0].count, 1u);
}

TEST(SwarmIndexTest, RadixSortMatchesOracleOnGeneratedTrace) {
  const Trace trace =
      TraceGenerator(TraceConfig::london_month_scaled(1), metro()).generate();
  expect_same_index(build_swarm_index(trace), comparison_sort_index(trace));
}

TEST(SwarmIndexTest, ShardedBuildMatchesOracleAtEveryThreadCount) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  const std::vector<std::pair<const char*, Trace>> traces{
      {"generated", TraceGenerator(TraceConfig::london_month_scaled(1),
                                   metro())
                        .generate()},
      {"fewer sessions than threads", random_key_trace(3, {4, 9}, {0, 2}, 5)},
      {"empty", Trace{}},
      // Sparse 32-bit ids: the content column sorts in three 11-bit passes.
      {"sparse content ids",
       random_key_trace(6000, {0, 1, 4095, 4096, 1u << 20, 1u << 31, kMax},
                        {0, 1, 2, 3, 4}, 211)},
  };
  for (const auto& [name, trace] : traces) {
    const SwarmIndex want = comparison_sort_index(trace);
    for (const unsigned threads : {1u, 2u, 7u, 0u}) {
      SCOPED_TRACE(std::string(name) + " threads=" + std::to_string(threads));
      const SwarmIndex got = build_swarm_index(trace, threads);
      expect_same_index(got, want);
      validate_swarm_index(got, trace, threads);
    }
  }
}

/// 2100 sessions whose index puts one 1800-session group (content 0:
/// sessions 300..2099) across every shard boundary n·k/7 of a 7-thread
/// check, and starts the group of content 1 (sessions 0, 3, ..., 297) at
/// the boundary 1800. A fault at a boundary's first position is only
/// caught by comparing it with the previous shard's last position, or
/// with a group that began in an earlier shard.
Trace shard_boundary_trace() {
  constexpr std::size_t kSessions = 2100;
  Trace trace;
  trace.span = Seconds{86400.0};
  trace.sessions.resize(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    SessionRecord& s = trace.sessions[i];
    s.user = static_cast<std::uint32_t>(i);
    s.household = s.user;
    s.content = i < 300 ? 1 + static_cast<std::uint32_t>(i % 3) : 0;
    s.start = static_cast<double>(i);
    s.duration = 60.0;
  }
  return trace;
}

TEST(SwarmIndexTest, ValidateRejectsFaultsRightAfterAShardBoundary) {
  constexpr unsigned kThreads = 7;
  const Trace trace = shard_boundary_trace();
  const SwarmIndex index = build_swarm_index(trace, kThreads);
  ASSERT_EQ(index.groups.size(), 4u);
  ASSERT_EQ(index.groups[0].count, 1800u);
  ASSERT_EQ(index.groups[1].begin, 1800u);
  validate_swarm_index(index, trace, kThreads);
  const std::size_t n = trace.size();

  const auto expect_rejected = [&](const SwarmIndex& broken,
                                   const Trace& sessions,
                                   const std::string& what) {
    try {
      validate_swarm_index(broken, sessions, kThreads);
      ADD_FAILURE() << "accepted a corrupt index; expected: " << what;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  // ValidateRejectsTampering's faults. The group-table faults are
  // serial, but still run at 7 threads.
  {
    SwarmIndex broken = index;
    broken.order.pop_back();
    expect_rejected(broken, trace, "order length does not match");
  }
  {
    SwarmIndex broken = index;
    broken.groups[1].isp += 1;  // sessions from position 1800 on mismatch
    expect_rejected(broken, trace, "group key does not match");
  }
  {
    SwarmIndex broken = index;
    std::swap(broken.groups[1].content, broken.groups[2].content);
    expect_rejected(broken, trace, "not strictly ascending");
  }
  {
    SwarmIndex broken = index;
    broken.groups[3].count = 0;
    expect_rejected(broken, trace, "empty group");
  }
  for (std::size_t k = 1; k < kThreads; ++k) {
    const std::size_t p = n * k / kThreads;  // first position of shard k
    SCOPED_TRACE("position " + std::to_string(p));
    // Not ascending: p holds a smaller session than p − 1 (inside the
    // big group) or than a session an earlier shard listed.
    if (p < 1800) {
      SwarmIndex broken = index;
      std::swap(broken.order[p - 1], broken.order[p]);
      expect_rejected(broken, trace, "not ascending within a group");
    }
    // ValidateRejectsSessionInTwoGroupsAndOneMissing: p lists the session
    // of position p − 1 again (in the same or the previous group), and
    // p's own session is listed nowhere.
    {
      SwarmIndex broken = index;
      broken.order[p] = broken.order[p - 1];
      expect_rejected(broken, trace,
                      p < 1800 ? "not ascending within a group"
                               : "group key does not match");
    }
    // ValidateRejectsWrongKeyOfLastSessionOnly: the session at p moves to
    // a content no group holds.
    {
      Trace moved = trace;
      moved.sessions[index.order[p]].content += 1000;
      expect_rejected(index, moved, "group key does not match");
    }
  }
}

TEST(TraceBinaryWriter, RefusesAGivenIndexThatDoesNotMatchItsSessions) {
  // The writer checks a given index in the pass that fills the columns:
  // each fault is a ParseError, at a shard boundary too, and the file
  // writer leaves no half-written file behind.
  const Trace trace = shard_boundary_trace();
  const SwarmIndex index = build_swarm_index(trace);
  const std::size_t p = trace.size() * 3 / 7;  // a 7-thread shard start
  ASSERT_LT(p, 1800u);
  std::vector<std::pair<std::string, SwarmIndex>> faults;
  faults.emplace_back("group key does not match", index);
  faults.back().second.groups[1].isp += 1;
  faults.emplace_back("not ascending within a group", index);
  std::swap(faults.back().second.order[p - 1], faults.back().second.order[p]);
  faults.emplace_back("not ascending within a group", index);
  faults.back().second.order[p] = faults.back().second.order[p - 1];
  const std::string path = temp_path("cl_writer_bad_index.cltrace");
  for (const auto& [what, broken] : faults) {
    Trace bad = trace;
    bad.swarm_index = broken;
    for (const unsigned threads : {1u, 7u}) {
      SCOPED_TRACE(what + " threads=" + std::to_string(threads));
      for (int writer = 0; writer < 2; ++writer) {
        try {
          if (writer == 0) {
            (void)serialize_trace_binary(bad, threads);
          } else {
            write_trace_binary_file(path, bad, threads);
          }
          ADD_FAILURE() << "wrote a trace with a broken index";
        } catch (const ParseError& e) {
          EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
              << e.what();
        }
        EXPECT_FALSE(std::filesystem::exists(path));
      }
    }
  }
}

// ------------------------------------------------------------ golden files

TEST(TraceBinaryGolden, FileBytesMatchWriter) {
  const std::string committed = read_bytes(golden_path());
  ASSERT_FALSE(committed.empty()) << "missing fixture " << golden_path();
  EXPECT_EQ(serialize_trace_binary(golden_trace_v2()), committed)
      << "the .cltrace byte layout changed. If this is intentional, bump "
         "kTraceBinaryVersion in trace/trace_binary.h, add a new golden "
         "fixture under tests/data/ from golden_trace_v2(), point "
         "golden_path() at it, keep the old one as a legacy-read test, and "
         "update the pinned digest in TraceBinaryGolden.DigestPinned.";
}

TEST(TraceBinaryGolden, DigestPinned) {
  const std::string committed = read_bytes(golden_path());
  ASSERT_FALSE(committed.empty()) << "missing fixture " << golden_path();
  EXPECT_EQ(fnv1a(committed), 0x458cd0b6f0401c28ULL)
      << "tests/data/golden_v3.cltrace changed on disk. An intentional "
         "format change must bump kTraceBinaryVersion (see "
         "trace/trace_binary.h's version policy).";
}

TEST(TraceBinaryGolden, FixtureLoads) {
  const Trace loaded = read_trace_binary_file(golden_path());
  expect_sessions_identical(loaded, golden_trace_v2());
  EXPECT_EQ(loaded.metro_name, "london_top5");
  ASSERT_EQ(loaded.swarm_index.groups.size(), 5u);
}

// The v2 fixture (start-order storage, block 12 the index order) is the
// proof that v2 decoding still works; like v1 it is never regenerated.
TEST(TraceBinaryGolden, LegacyV2DigestPinned) {
  const std::string committed = read_bytes(golden_v2_path());
  ASSERT_FALSE(committed.empty()) << "missing fixture " << golden_v2_path();
  EXPECT_EQ(fnv1a(committed), 0xb089aa1521edceffULL)
      << "tests/data/golden_v2.cltrace changed on disk. The v2 fixture is "
         "frozen — it pins a *legacy* layout readers must keep accepting.";
}

TEST(TraceBinaryGolden, LegacyV2AndCurrentFixturesLoadTheSameTrace) {
  // Same trace, two storage orders: both readers return the same rows
  // and index, and the views agree session by session in start order.
  const Trace v2 = read_trace_binary_file(golden_v2_path());
  const Trace v3 = read_trace_binary_file(golden_path());
  expect_sessions_identical(v2, v3);
  EXPECT_EQ(v2.swarm_index.order, v3.swarm_index.order);
  ASSERT_EQ(v2.swarm_index.groups.size(), v3.swarm_index.groups.size());
  EXPECT_EQ(MappedTrace(golden_v2_path()).version(), 2u);
  const TraceView v2_view = TraceView::open_binary(golden_v2_path());
  const TraceView v3_view = TraceView::open_binary(golden_path());
  EXPECT_FALSE(v2_view.swarm_major());
  EXPECT_TRUE(v3_view.swarm_major());
  ASSERT_EQ(v2_view.size(), v3_view.size());
  for (std::size_t t = 0; t < v2_view.size(); ++t) {
    const SessionRecord a = v2_view.session(t);
    const SessionRecord b = v3_view.session(t);
    EXPECT_EQ(a.user, b.user) << "t=" << t;
    EXPECT_EQ(a.start, b.start) << "t=" << t;
  }
}

// Legacy version-1 files must keep loading forever: month-scale traces
// are generated once and replayed across many builds. The v1 fixture's
// bytes are pinned too — it is the proof that v1 decoding still works,
// so it must never be regenerated by a newer writer.
TEST(TraceBinaryGolden, LegacyV1DigestPinned) {
  const std::string committed = read_bytes(golden_v1_path());
  ASSERT_FALSE(committed.empty()) << "missing fixture " << golden_v1_path();
  EXPECT_EQ(fnv1a(committed), 0x52915e1e58ee37d1ULL)
      << "tests/data/golden_v1.cltrace changed on disk. The v1 fixture is "
         "frozen — it pins the *legacy* layout readers must keep "
         "accepting.";
}

TEST(TraceBinaryGolden, LegacyV1FixtureLoadsWithEmptyMetro) {
  const Trace loaded = read_trace_binary_file(golden_v1_path());
  expect_sessions_identical(loaded, golden_trace());
  EXPECT_TRUE(loaded.metro_name.empty());
  ASSERT_EQ(loaded.swarm_index.groups.size(), 5u);
}

TEST(TraceBinaryGolden, LegacyV1ReportsItsVersion) {
  const MappedTrace mapped(golden_v1_path());
  EXPECT_EQ(mapped.version(), kTraceBinaryLegacyVersion);
  EXPECT_TRUE(mapped.metro_name().empty());
  const MappedTrace current(golden_path());
  EXPECT_EQ(current.version(), kTraceBinaryVersion);
  EXPECT_EQ(current.metro_name(), "london_top5");
}

// ------------------------------------------------------- corrupt rejection

TEST(TraceBinaryCorrupt, RejectsMissingFile) {
  EXPECT_THROW(read_trace_binary_file("/nonexistent/path/trace.cltrace"),
               IoError);
}

TEST(TraceBinaryCorrupt, RejectsTruncatedHeader) {
  const std::string path =
      write_bytes("cl_corrupt_short.cltrace",
                  serialize_trace_binary(tiny_trace()).substr(0, 20));
  EXPECT_THROW(read_trace_binary_file(path), ParseError);
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, RejectsBadMagic) {
  std::string bytes = serialize_trace_binary(tiny_trace());
  bytes[0] = 'X';
  const std::string path = write_bytes("cl_corrupt_magic.cltrace", bytes);
  EXPECT_THROW(
      try { (void)read_trace_binary_file(path); } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
        throw;
      },
      ParseError);
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, RejectsWrongVersion) {
  std::string bytes = serialize_trace_binary(tiny_trace());
  store_u32_le(reinterpret_cast<unsigned char*>(bytes.data()) + 8,
               kTraceBinaryVersion + 1);
  const std::string path = write_bytes("cl_corrupt_version.cltrace", bytes);
  EXPECT_THROW(
      try { (void)read_trace_binary_file(path); } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
        throw;
      },
      ParseError);
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, RejectsTruncatedColumnBlock) {
  const std::string bytes = serialize_trace_binary(tiny_trace());
  const std::string path = write_bytes("cl_corrupt_truncated.cltrace",
                                       bytes.substr(0, bytes.size() - 6));
  EXPECT_THROW(read_trace_binary_file(path), ParseError);
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, RejectsTrailingBytes) {
  const std::string path = write_bytes(
      "cl_corrupt_trailing.cltrace",
      serialize_trace_binary(tiny_trace()) + std::string(16, '\0'));
  EXPECT_THROW(read_trace_binary_file(path), ParseError);
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, RejectsWrongBlockCount) {
  std::string bytes = serialize_trace_binary(tiny_trace());
  store_u32_le(reinterpret_cast<unsigned char*>(bytes.data()) + 32,
               kTraceBinaryBlockCount - 1);
  const std::string path = write_bytes("cl_corrupt_blocks.cltrace", bytes);
  EXPECT_THROW(read_trace_binary_file(path), ParseError);
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, RejectsBitrateOutOfRange) {
  std::string bytes = serialize_trace_binary(tiny_trace());
  auto* p = reinterpret_cast<unsigned char*>(bytes.data());
  // Directory entries are written in block-id order: entry 5 (bitrate
  // column) sits at 40 + 5*24; its payload offset is 8 bytes in.
  const std::uint64_t offset = load_u64_le(p + 40 + 5 * 24 + 8);
  p[offset] = 9;  // not a BitrateClass
  const std::string path = write_bytes("cl_corrupt_bitrate.cltrace", bytes);
  EXPECT_THROW(read_trace_binary_file(path), ParseError);
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, RejectsTamperedIndexOrder) {
  std::string bytes = serialize_trace_binary(tiny_trace());
  auto* p = reinterpret_cast<unsigned char*>(bytes.data());
  const std::uint64_t offset = load_u64_le(p + 40 + 12 * 24 + 8);
  const std::uint32_t first = load_u32_le(p + offset);
  const std::uint32_t second = load_u32_le(p + offset + 4);
  store_u32_le(p + offset, second);  // swap the first two entries
  store_u32_le(p + offset + 4, first);
  const std::string path = write_bytes("cl_corrupt_index.cltrace", bytes);
  EXPECT_THROW(read_trace_binary_file(path), ParseError);
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, RejectsSpanSmallerThanSessions) {
  std::string bytes = serialize_trace_binary(tiny_trace());
  store_f64_le(reinterpret_cast<unsigned char*>(bytes.data()) + 24, 1.0);
  const std::string path = write_bytes("cl_corrupt_span.cltrace", bytes);
  EXPECT_THROW(read_trace_binary_file(path), ParseError);
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, RejectsHeaderSpanOutsideTheLongestTrace) {
  // A header span must be finite, >= 0 and at most kMaxTraceDays days:
  // a larger one used to reach the simulator's hour count (an
  // out-of-range double -> size_t cast, or a grid too large to allocate).
  // Both readers — the owned load and the zero-copy view — reject it,
  // with or without sessions.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Trace empty;
  empty.span = Seconds{3600.0};
  for (const Trace& trace : {tiny_trace(), empty}) {
    for (const double span : {1e300, kInf, -kInf,
                              std::numeric_limits<double>::quiet_NaN(), -1.0,
                              std::nextafter(kMaxTraceSpanSeconds, kInf)}) {
      SCOPED_TRACE(span);
      std::string bytes = serialize_trace_binary(trace);
      store_f64_le(reinterpret_cast<unsigned char*>(bytes.data()) + 24, span);
      const std::string path = write_bytes("cl_corrupt_span.cltrace", bytes);
      for (int reader = 0; reader < 2; ++reader) {
        try {
          if (reader == 0) {
            (void)read_trace_binary_file(path);
          } else {
            (void)TraceView::open_binary(path);
          }
          ADD_FAILURE() << "accepted span " << span;
        } catch (const ParseError& e) {
          EXPECT_NE(std::string(e.what()).find("header span"),
                    std::string::npos)
              << e.what();
        }
      }
      std::filesystem::remove(path);
    }
  }
}

TEST(TraceBinaryCorrupt, RejectsControlCharacterInMetroBlock) {
  Trace t = tiny_trace();
  t.metro_name = "ok";
  std::string bytes = serialize_trace_binary(t);
  auto* p = reinterpret_cast<unsigned char*>(bytes.data());
  // Directory entries are written in block-id order: entry 13 (metro
  // name) sits at 40 + 13*24; its payload offset is 8 bytes in.
  const std::uint64_t offset = load_u64_le(p + 40 + 13 * 24 + 8);
  p[offset] = '\n';
  const std::string path = write_bytes("cl_corrupt_metro.cltrace", bytes);
  EXPECT_THROW(
      try { (void)read_trace_binary_file(path); } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("metro"), std::string::npos);
        throw;
      },
      ParseError);
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, RejectsOversizedMetroDirectoryCount) {
  std::string bytes = serialize_trace_binary(tiny_trace());
  auto* p = reinterpret_cast<unsigned char*>(bytes.data());
  // Claim a metro-name block longer than the cap; whichever check fires
  // first (length cap or bounds), the file must be rejected outright.
  store_u64_le(p + 40 + 13 * 24 + 16, kTraceMetroNameMaxBytes + 1);
  const std::string path = write_bytes("cl_corrupt_metrolen.cltrace", bytes);
  EXPECT_THROW(read_trace_binary_file(path), ParseError);
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, RejectsLegacyVersionWithCurrentBlockCount) {
  // A v2 file relabeled as v1 lies about its shape: v1 has 13 blocks.
  std::string bytes = serialize_trace_binary(tiny_trace());
  store_u32_le(reinterpret_cast<unsigned char*>(bytes.data()) + 8,
               kTraceBinaryLegacyVersion);
  const std::string path = write_bytes("cl_corrupt_relabel.cltrace", bytes);
  EXPECT_THROW(read_trace_binary_file(path), ParseError);
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, RejectsVersionZero) {
  std::string bytes = serialize_trace_binary(tiny_trace());
  store_u32_le(reinterpret_cast<unsigned char*>(bytes.data()) + 8, 0);
  const std::string path = write_bytes("cl_corrupt_v0.cltrace", bytes);
  EXPECT_THROW(read_trace_binary_file(path), ParseError);
  std::filesystem::remove(path);
}

/// Two swarms of three sessions, interleaved in time: content 1 starts
/// at 10, 30, 50 and content 2 at 20, 40, 60. Stored swarm-major, the
/// time order is {0, 3, 1, 4, 2, 5}.
Trace interleaved_trace() {
  Trace t;
  t.span = Seconds{3600.0};
  for (std::uint32_t i = 0; i < 6; ++i) {
    SessionRecord s;
    s.user = i;
    s.content = 1 + i % 2;
    s.start = 10.0 * (i + 1);
    s.duration = 100.0;
    t.sessions.push_back(s);
  }
  return t;
}

/// Payload offset of block `id` in a serialized file (the writer lists
/// the directory in block-id order).
std::uint64_t payload_offset(const std::string& bytes, std::uint32_t id) {
  return load_u64_le(reinterpret_cast<const unsigned char*>(bytes.data()) +
                     kTraceBinaryHeaderBytes +
                     id * kTraceBinaryDirEntryBytes + 8);
}

/// Swaps the `width`-byte elements `a` and `b` of block `id`.
void swap_elements(std::string& bytes, std::uint32_t id, std::size_t width,
                   std::size_t a, std::size_t b) {
  const std::uint64_t offset = payload_offset(bytes, id);
  for (std::size_t k = 0; k < width; ++k) {
    std::swap(bytes[offset + width * a + k], bytes[offset + width * b + k]);
  }
}

/// Both readers, at one and at four workers, refuse `bytes` with a
/// ParseError whose message contains `what`.
void expect_both_readers_refuse(const std::string& bytes,
                                const std::string& what) {
  const std::string path = write_bytes("cl_corrupt_v3.cltrace", bytes);
  for (const unsigned threads : {1u, 4u}) {
    for (int reader = 0; reader < 2; ++reader) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   (reader == 0 ? " rows" : " view"));
      try {
        if (reader == 0) {
          (void)read_trace_binary_file(path, threads);
        } else {
          (void)TraceView::open_binary(path, threads);
        }
        ADD_FAILURE() << "accepted a corrupt file; expected: " << what;
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, V3LayoutOfTheFixtureTrace) {
  // The faults below patch this layout; pin it first.
  const std::string bytes = serialize_trace_binary(interleaved_trace());
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::uint64_t order = payload_offset(bytes, 12);
  const std::uint64_t user = payload_offset(bytes, 0);
  for (std::uint32_t t = 0; t < 6; ++t) {
    EXPECT_EQ(load_u32_le(p + order + 4 * t),
              (std::vector<std::uint32_t>{0, 3, 1, 4, 2, 5})[t]);
    EXPECT_EQ(load_u32_le(p + user + 4 * t),
              (std::vector<std::uint32_t>{0, 2, 4, 1, 3, 5})[t]);
  }
  const std::string path = write_bytes("cl_v3_layout.cltrace", bytes);
  expect_sessions_identical(read_trace_binary_file(path),
                            interleaved_trace());
  std::filesystem::remove(path);
}

TEST(TraceBinaryCorrupt, RejectsDuplicateTimeOrderEntry) {
  // {0, 0, 1, 4, 2, 5}: still in start order, but position 3 is missing.
  std::string bytes = serialize_trace_binary(interleaved_trace());
  const std::uint64_t offset = payload_offset(bytes, 12);
  store_u32_le(reinterpret_cast<unsigned char*>(bytes.data()) + offset + 4,
               0);
  expect_both_readers_refuse(bytes, "time order is not a permutation");
}

TEST(TraceBinaryCorrupt, RejectsTimeOrderOutOfStartOrder) {
  // {3, 0, 1, 4, 2, 5}: a permutation, but 20 s comes before 10 s.
  std::string bytes = serialize_trace_binary(interleaved_trace());
  swap_elements(bytes, 12, 4, 0, 1);
  expect_both_readers_refuse(bytes, "time order is not in start order");
}

TEST(TraceBinaryCorrupt, RejectsGroupOutOfStartOrder) {
  // Swap the starts stored at positions 0 and 1 (content 1: 30, 10, 50)
  // and the time-order entries naming them, which keeps the time order
  // itself in start order.
  std::string bytes = serialize_trace_binary(interleaved_trace());
  swap_elements(bytes, 6, 8, 0, 1);
  swap_elements(bytes, 12, 4, 0, 2);
  expect_both_readers_refuse(bytes,
                             "a swarm group's sessions are not in start order");
}

TEST(TraceBinaryCorrupt, RejectsSessionOutsideItsGroupKey) {
  // Position 1 belongs to content 1's group but now holds content 9.
  std::string bytes = serialize_trace_binary(interleaved_trace());
  store_u32_le(reinterpret_cast<unsigned char*>(bytes.data()) +
                   payload_offset(bytes, 2) + 4,
               9);
  expect_both_readers_refuse(bytes, "group key does not match");
}

TEST(TraceBinaryCorrupt, RejectsTiedSessionsOutOfTimeOrder) {
  // User 1 moves to content 1 and starts at 10 s, with user 0: they sit
  // at storage positions 0 and 1. Swapping their two time-order entries
  // keeps every start order, but rows 0 and 1 would then list content
  // 1's sessions out of storage order: no v2 index describes that, so
  // both readers refuse the file.
  Trace trace = interleaved_trace();
  trace.sessions[1].start = 10.0;
  trace.sessions[1].content = 1;
  std::string bytes = serialize_trace_binary(trace);
  swap_elements(bytes, 12, 4, 0, 1);
  expect_both_readers_refuse(bytes, "not ascending within a group");
}

// ------------------------------------------------------ writer refusals

/// Spans no reader accepts (valid_trace_span).
constexpr double kUnreadableSpans[] = {
    -1.0, std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity(), 2.1e300};

TEST(TraceBinaryWriter, SerializeRefusesSpanItsReadersRefuse) {
  for (const double span : kUnreadableSpans) {
    SCOPED_TRACE(span);
    Trace t = tiny_trace();
    t.span = Seconds{span};
    EXPECT_THROW((void)serialize_trace_binary(t), InvalidArgument);
  }
}

TEST(TraceBinaryWriter, FileWriterRefusesSpanBeforeCreatingTheFile) {
  const std::string path = temp_path("cl_refused_span.cltrace");
  for (const double span : kUnreadableSpans) {
    SCOPED_TRACE(span);
    Trace t = tiny_trace();
    t.span = Seconds{span};
    EXPECT_THROW(write_trace_binary_file(path, t), InvalidArgument);
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  // The longest readable span is still written.
  Trace longest = tiny_trace();
  longest.span = Seconds{kMaxTraceSpanSeconds};
  write_trace_binary_file(path, longest);
  EXPECT_EQ(read_trace_binary_file(path).span.value(), kMaxTraceSpanSeconds);
  std::filesystem::remove(path);
}

// ------------------------------------------------------------- determinism

TEST(TraceBinaryDeterminism, MetroGenerationBitIdenticalAcrossThreadCounts) {
  // The satellite contract: generating against the us_sparse metro at
  // --threads 1/2/7/hw produces bit-identical traces — pinned on the
  // serialized bytes, which cover every session field, the swarm index
  // and the metro header.
  const Metro& us = MetroRegistry::instance().get("us_sparse");
  TraceConfig config;
  config.metro = "us_sparse";
  config.days = 2;
  config.users = 800;
  config.exemplar_views = {5000, 600};
  config.catalogue_tail = 80;
  config.tail_views = 4000;
  config.threads = 1;
  const std::string reference =
      serialize_trace_binary(TraceGenerator(config, us).generate());
  EXPECT_NE(reference.find("us_sparse"), std::string::npos);
  for (const unsigned threads : {2u, 7u, 0u}) {  // 0 = all hardware threads
    TraceConfig threaded = config;
    threaded.threads = threads;
    EXPECT_EQ(serialize_trace_binary(TraceGenerator(threaded, us).generate()),
              reference)
        << "threads=" << threads;
  }
}

/// Pins the generator's output bytes across commits: the FNV-1a digest of
/// serialize_trace_binary(generate()), at every thread count. A change
/// that alters the trace at all thread counts alike passes the identity
/// tests above but fails here.
void expect_generated_digest(const TraceConfig& base, const Metro& metro,
                             std::size_t sessions, std::uint64_t digest) {
  for (const unsigned threads : {1u, 2u, 4u, 7u, 0u}) {
    TraceConfig config = base;
    config.threads = threads;
    const Trace trace = TraceGenerator(config, metro).generate();
    EXPECT_EQ(trace.size(), sessions) << "threads=" << threads;
    EXPECT_EQ(fnv1a(serialize_trace_binary(trace)), digest)
        << "threads=" << threads;
  }
}

TEST(TraceGeneratorDigest, ScaledLondonThreeDaysPinned) {
  TraceConfig config = TraceConfig::london_month_scaled(3);
  config.seed = 3;
  expect_generated_digest(config, metro(), 415536, 0x3947cc5d3e8881f3ULL);
}

TEST(TraceGeneratorDigest, UsSparseSmallConfigPinned) {
  // TraceBinaryDeterminism.MetroGenerationBitIdenticalAcrossThreadCounts'
  // config, default seed.
  TraceConfig config;
  config.metro = "us_sparse";
  config.days = 2;
  config.users = 800;
  config.exemplar_views = {5000, 600};
  config.catalogue_tail = 80;
  config.tail_views = 4000;
  expect_generated_digest(config, MetroRegistry::instance().get("us_sparse"),
                          654, 0xebdb0db79202ca0fULL);
}

TEST(TraceGeneratorDigest, PaperDayPinned) {
  TraceConfig config = TraceConfig::london_month_paper(1);
  config.seed = 1;
  expect_generated_digest(config, metro(), 784576, 0xb7628eadcb783e8aULL);
}

TEST(TraceGeneratorDigest, SessionBatchEdgesPinned) {
  // Contents with 0, 1, 31, 32, 33 and 65 sessions put every content's
  // last session at and around a 32-session boundary; 30 days make the
  // day draw (uniform_index over whole days) draw from a range.
  TraceConfig config;
  config.seed = 7;
  config.days = 30;
  config.users = 3000;
  config.exemplar_views = {65, 65, 65, 65, 65, 65, 33, 32, 31,
                           33, 32, 31, 33, 32, 31, 33, 32, 31};
  config.catalogue_tail = 40;
  config.tail_views = 30;
  const Trace trace = TraceGenerator(config, metro()).generate();
  const std::vector<std::uint64_t> views = views_per_content(trace);
  for (const std::uint64_t count : {31u, 32u, 33u, 65u}) {
    EXPECT_NE(std::find(views.begin(), views.end(), count), views.end())
        << "no content with " << count << " sessions";
  }
  for (const std::uint64_t count : {0u, 1u}) {
    EXPECT_NE(std::find(views.begin(), views.end(), count), views.end())
        << "no content with " << count << " sessions";
  }
  expect_generated_digest(config, metro(), 777, 0x082f07ddcecabe00ULL);
}

TEST(TraceBinaryWriter, FileBytesEqualSerializedBytes) {
  TraceConfig config;
  config.days = 2;
  config.users = 700;
  config.exemplar_views = {3000, 400};
  config.catalogue_tail = 50;
  config.tail_views = 2500;
  const Trace trace = TraceGenerator(config, metro()).generate();
  const std::string path = temp_path("cl_writer_bytes.cltrace");
  write_trace_binary_file(path, trace);
  EXPECT_EQ(read_bytes(path), serialize_trace_binary(trace));
  std::filesystem::remove(path);
}

TEST(TraceBinaryWriter, BytesEqualAtEveryThreadCount) {
  TraceConfig config;
  config.days = 2;
  config.users = 700;
  config.exemplar_views = {3000, 400};
  config.catalogue_tail = 50;
  config.tail_views = 2500;
  Trace trace = TraceGenerator(config, metro()).generate();
  const std::string want = serialize_trace_binary(trace, 1);
  const std::string path = temp_path("cl_writer_threads.cltrace");
  // The writer builds the index itself, then persists a given one.
  for (const bool indexed : {false, true}) {
    if (indexed) trace.swarm_index = build_swarm_index(trace);
    for (const unsigned threads : {1u, 2u, 7u}) {
      SCOPED_TRACE("indexed=" + std::to_string(indexed) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(serialize_trace_binary(trace, threads), want);
      write_trace_binary_file(path, trace, threads);
      EXPECT_EQ(read_bytes(path), want);
    }
  }
  std::filesystem::remove(path);
}

TEST(TraceBinaryDeterminism, MmapLoadBitIdenticalAcrossThreadCounts) {
  TraceConfig config;
  config.days = 2;
  config.users = 600;
  config.exemplar_views = {4000};
  config.catalogue_tail = 60;
  config.tail_views = 3000;
  const Trace original = TraceGenerator(config, metro()).generate();
  const std::string path = temp_path("cl_det_load.cltrace");
  write_trace_binary_file(path, original);
  const Trace reference = read_trace_binary_file(path, 1);
  expect_sessions_identical(reference, original);
  for (const unsigned threads : {2u, 7u, 0u}) {  // 0 = all hardware threads
    const Trace loaded = read_trace_binary_file(path, threads);
    expect_sessions_identical(loaded, reference);
    ASSERT_EQ(loaded.swarm_index.order, reference.swarm_index.order);
    ASSERT_EQ(loaded.swarm_index.groups.size(),
              reference.swarm_index.groups.size());
  }
  std::filesystem::remove(path);
}

/// Exact-equality comparison of the aggregate outcomes two Analyzer runs
/// produce — savings/offload doubles must match to the last bit.
void expect_aggregates_identical(const std::vector<AggregateOutcome>& a,
                                 const std::vector<AggregateOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m].sim_savings, b[m].sim_savings);
    EXPECT_EQ(a[m].theory_savings, b[m].theory_savings);
    EXPECT_EQ(a[m].offload, b[m].offload);
    EXPECT_EQ(a[m].baseline_energy.value(), b[m].baseline_energy.value());
    EXPECT_EQ(a[m].hybrid_energy.value(), b[m].hybrid_energy.value());
  }
}

/// Shared workload for the sim/analyzer determinism tests below.
const Trace& determinism_trace_csv() {
  static const Trace trace = [] {
    TraceConfig config;
    config.days = 3;
    config.users = 1500;
    config.exemplar_views = {8000, 900};
    config.catalogue_tail = 150;
    config.tail_views = 10000;
    const Trace generated = TraceGenerator(config, metro()).generate();
    // Round-trip through CSV so the reference is exactly what the CSV
    // loader produces.
    std::ostringstream out;
    write_trace(out, generated);
    std::istringstream in(out.str());
    return read_trace(in);
  }();
  return trace;
}

const Trace& determinism_trace_binary() {
  static const Trace trace = [] {
    const std::string path = temp_path("cl_det_sim.cltrace");
    write_trace_binary_file(path, determinism_trace_csv());
    Trace loaded = read_trace_binary_file(path, 2);
    std::filesystem::remove(path);
    return loaded;
  }();
  return trace;
}

TEST(TraceBinaryDeterminism, SimResultBitIdenticalMmapVsCsvAcrossThreads) {
  const Trace& csv = determinism_trace_csv();
  const Trace& binary = determinism_trace_binary();
  EXPECT_TRUE(csv.swarm_index.empty());     // hash-grouping path
  EXPECT_FALSE(binary.swarm_index.empty()); // persisted-index path

  const TraceView binary_view = TraceView::from_trace(binary);

  SimConfig reference_config;
  reference_config.threads = 1;
  const SimResult reference = HybridSimulator(metro(), reference_config)
                                  .run(TraceView::from_trace(csv));

  for (const unsigned threads : {1u, 2u, 7u, 0u}) {
    SimConfig config;
    config.threads = threads;
    const SimResult result = HybridSimulator(metro(), config).run(binary_view);
    EXPECT_EQ(result.total.server.value(), reference.total.server.value());
    EXPECT_EQ(result.total.cross_isp.value(),
              reference.total.cross_isp.value());
    for (std::size_t l = 0; l < kLocalityLevels; ++l) {
      EXPECT_EQ(result.total.peer[l].value(),
                reference.total.peer[l].value());
    }
    ASSERT_EQ(result.swarms.size(), reference.swarms.size());
    for (std::size_t s = 0; s < result.swarms.size(); ++s) {
      EXPECT_EQ(result.swarms[s].key.packed(),
                reference.swarms[s].key.packed());
      EXPECT_EQ(result.swarms[s].capacity, reference.swarms[s].capacity);
      EXPECT_EQ(result.swarms[s].traffic.server.value(),
                reference.swarms[s].traffic.server.value());
    }
    ASSERT_EQ(result.hourly.size(), reference.hourly.size());
    for (std::size_t h = 0; h < result.hourly.size(); ++h) {
      ASSERT_EQ(result.hourly[h].size(), reference.hourly[h].size());
      for (std::size_t i = 0; i < result.hourly[h].size(); ++i) {
        EXPECT_EQ(result.hourly[h][i].server.value(),
                  reference.hourly[h][i].server.value());
      }
    }
    ASSERT_EQ(result.users.size(), reference.users.size());
    for (std::size_t u = 0; u < reference.users.size(); ++u) {
      const UserTraffic& got = result.users[u];
      const UserTraffic& want = reference.users[u];
      ASSERT_EQ(got.user, want.user);
      EXPECT_EQ(got.downloaded.value(), want.downloaded.value());
      EXPECT_EQ(got.uploaded.value(), want.uploaded.value());
    }
  }
}

TEST(TraceBinaryDeterminism, IndexPathBitIdenticalToHashGroupingPath) {
  // Same sessions with and without the persisted index: the simulator
  // must produce bit-identical results through either grouping path.
  const Trace& binary = determinism_trace_binary();
  Trace stripped = binary;
  stripped.swarm_index = SwarmIndex{};
  SimConfig config;
  config.threads = 2;
  const HybridSimulator sim(metro(), config);
  const SimResult with_index = sim.run(TraceView::from_trace(binary));
  const SimResult without_index = sim.run(TraceView::from_trace(stripped));
  EXPECT_EQ(with_index.total.server.value(),
            without_index.total.server.value());
  ASSERT_EQ(with_index.swarms.size(), without_index.swarms.size());
  for (std::size_t s = 0; s < with_index.swarms.size(); ++s) {
    EXPECT_EQ(with_index.swarms[s].key.packed(),
              without_index.swarms[s].key.packed());
    EXPECT_EQ(with_index.swarms[s].traffic.server.value(),
              without_index.swarms[s].traffic.server.value());
    EXPECT_EQ(with_index.swarms[s].capacity,
              without_index.swarms[s].capacity);
  }
}

TEST(TraceBinaryDeterminism, RelaxedPartitionsIgnoreIndexAndMatchCsv) {
  // Cross-ISP / mixed-bitrate ablations cannot use the full-key index;
  // they must fall back to hash grouping and still match the CSV path.
  const Trace& csv = determinism_trace_csv();
  const Trace& binary = determinism_trace_binary();
  for (const bool isp_friendly : {false, true}) {
    SimConfig config;
    config.threads = 2;
    config.isp_friendly = isp_friendly;
    config.split_by_bitrate = false;
    const HybridSimulator sim(metro(), config);
    const SimResult from_csv = sim.run(TraceView::from_trace(csv));
    const SimResult from_binary = sim.run(TraceView::from_trace(binary));
    EXPECT_EQ(from_csv.total.server.value(),
              from_binary.total.server.value());
    EXPECT_EQ(from_csv.swarms.size(), from_binary.swarms.size());
  }
}

TEST(TraceBinaryDeterminism, AnalyzerAggregateIdenticalMmapVsCsv) {
  const TraceView csv = TraceView::from_trace(determinism_trace_csv());
  const TraceView binary = TraceView::from_trace(determinism_trace_binary());
  SimConfig reference_config;
  reference_config.threads = 1;
  const auto reference =
      run_simulate(Analyzer(metro(), reference_config), csv, nullptr, false)
          .aggregate;
  for (const unsigned threads : {1u, 2u, 7u, 0u}) {
    SimConfig config;
    config.threads = threads;
    expect_aggregates_identical(
        run_simulate(Analyzer(metro(), config), binary, nullptr, false)
            .aggregate,
        reference);
  }
}

TEST(TraceBinaryDeterminism, AnalyzerDailyReportIdenticalMmapVsCsv) {
  const TraceView csv = TraceView::from_trace(determinism_trace_csv());
  const TraceView binary = TraceView::from_trace(determinism_trace_binary());
  SimConfig reference_config;
  reference_config.threads = 1;
  const DailyReport reference =
      Analyzer(metro(), reference_config).daily_report(csv);
  SimConfig config;
  config.threads = 4;
  const DailyReport report = Analyzer(metro(), config).daily_report(binary);
  EXPECT_EQ(report.sim, reference.sim);
  EXPECT_EQ(report.theory, reference.theory);
}

}  // namespace
}  // namespace cl
