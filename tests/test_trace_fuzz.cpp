// Fixed-seed mutation fuzzing of the `.cltrace` readers
// (trace/trace_mmap.h, trace/trace_view.h).
//
// The golden v2 and v3 fixtures are mutated thousands of times — byte
// flips in the header, the block directory and the payload, truncations,
// swapped block-12 entries, and a few flips at once — and every mutated
// file goes through both readers: read_trace_binary_file (rows) and
// TraceView::open_binary (zero-copy columns). Each must load the file or
// refuse it with a cl::ParseError whose message begins "corrupt .cltrace
// file:". Any other exception fails the test (a contract violation is a
// cl::InvalidArgument), and the sanitizer builds turn an out-of-bounds
// read or undefined behaviour into a failure too. Both readers must make
// the same decision, and when they load a file they must agree on every
// session.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include "trace/trace_binary.h"
#include "trace/trace_mmap.h"
#include "trace/trace_view.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/serialize.h"

#include "temp_path.h"

#ifndef CL_TEST_DATA_DIR
#error "CMake must define CL_TEST_DATA_DIR (path of tests/data)"
#endif

namespace cl {
namespace {

constexpr std::size_t kDirectoryEnd =
    kTraceBinaryHeaderBytes +
    kTraceBinaryBlockCount * kTraceBinaryDirEntryBytes;

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(CL_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// Flips one random bit of the byte at a random offset in [lo, hi).
void flip(std::string& bytes, std::size_t lo, std::size_t hi, Rng& rng) {
  const std::size_t at = lo + rng.uniform_index(hi - lo);
  bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^
                                (1u << rng.uniform_index(8)));
}

/// One seeded mutation of a 14-block fixture `base`.
std::string mutate(const std::string& base, Rng& rng) {
  std::string bytes = base;
  const auto* p = reinterpret_cast<const unsigned char*>(base.data());
  switch (rng.uniform_index(6)) {
    case 0:
      flip(bytes, 0, kTraceBinaryHeaderBytes, rng);
      break;
    case 1:
      flip(bytes, kTraceBinaryHeaderBytes, kDirectoryEnd, rng);
      break;
    case 2:
      flip(bytes, kDirectoryEnd, bytes.size(), rng);
      break;
    case 3:
      bytes.resize(rng.uniform_index(bytes.size()));
      break;
    case 4: {
      // Swap two entries of block 12 (the directory lists blocks in id
      // order; an entry's payload offset is 8 bytes in).
      const std::uint64_t offset =
          load_u64_le(p + kTraceBinaryHeaderBytes +
                      12 * kTraceBinaryDirEntryBytes + 8);
      const std::uint64_t n = load_u64_le(p + 16);
      const std::uint64_t a = rng.uniform_index(n);
      const std::uint64_t b = rng.uniform_index(n);
      for (std::size_t k = 0; k < 4; ++k) {
        std::swap(bytes[offset + 4 * a + k], bytes[offset + 4 * b + k]);
      }
      break;
    }
    default:
      for (std::uint64_t k = 2 + rng.uniform_index(3); k > 0; --k) {
        flip(bytes, 0, bytes.size(), rng);
      }
      break;
  }
  return bytes;
}

/// Runs one reader; returns its result, nullopt on cl::ParseError, and
/// fails the test on any other exception or on a ParseError without the
/// reader's message prefix.
template <typename Read>
auto load_or_refuse(Read&& read, const std::string& label)
    -> std::optional<decltype(read())> {
  try {
    return read();
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("corrupt .cltrace file: ", 0), 0u)
        << label << ": " << e.what();
    return std::nullopt;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": " << e.what();
    return std::nullopt;
  }
}

void expect_same_session(const SessionRecord& a, const SessionRecord& b) {
  EXPECT_EQ(a.user, b.user);
  EXPECT_EQ(a.household, b.household);
  EXPECT_EQ(a.content, b.content);
  EXPECT_EQ(a.isp, b.isp);
  EXPECT_EQ(a.exp, b.exp);
  EXPECT_EQ(a.bitrate, b.bitrate);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.start),
            std::bit_cast<std::uint64_t>(b.start));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.duration),
            std::bit_cast<std::uint64_t>(b.duration));
}

TEST(TraceBinaryFuzz, MutatedFilesLoadOrRaiseParseError) {
  constexpr int kMutationsPerFixture = 1200;
  const std::string path = test::unique_temp_path("fuzz.cltrace");
  std::size_t loaded = 0;
  std::size_t refused = 0;
  for (const char* fixture : {"golden_v2.cltrace", "golden_v3.cltrace"}) {
    const std::string base = read_fixture(fixture);
    ASSERT_GT(base.size(), kDirectoryEnd) << "missing fixture " << fixture;
    Rng rng(0xc17ace);
    for (int m = 0; m < kMutationsPerFixture; ++m) {
      const std::string bytes = mutate(base, rng);
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      }
      // Most reads run on one worker; every fourth shards across three.
      const unsigned threads = m % 4 == 0 ? 3 : 1;
      const std::string label = std::string(fixture) + " mutation " +
                                std::to_string(m);
      const auto rows = load_or_refuse(
          [&] { return read_trace_binary_file(path, threads); },
          label + " (rows)");
      const auto view = load_or_refuse(
          [&] { return TraceView::open_binary(path, threads); },
          label + " (view)");
      loaded += (rows ? 1 : 0) + (view ? 1 : 0);
      refused += (rows ? 0 : 1) + (view ? 0 : 1);
      EXPECT_EQ(rows.has_value(), view.has_value()) << label;
      if (rows && view) {
        SCOPED_TRACE(label);
        ASSERT_EQ(rows->size(), view->size());
        for (std::size_t t = 0; t < view->size(); ++t) {
          expect_same_session(rows->sessions[t], view->session(t));
        }
      }
    }
  }
  // Both outcomes occur, or the mutations test nothing.
  EXPECT_GT(loaded, 100u);
  EXPECT_GT(refused, 1000u);
}

}  // namespace
}  // namespace cl
