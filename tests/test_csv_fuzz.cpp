// Fixed-seed mutation fuzzing of the two text readers: the CSV trace
// reader (trace/trace_io.h) and the measured intensity-curve loader
// (IntensityCurve::from_csv, carbon/intensity_curve.h).
//
// A valid document is mutated a few thousand times — bit flips, bytes
// replaced by CSV syntax characters, deleted or duplicated spans, swapped
// lines and truncations, a few at once — and every mutant must either
// load or be refused with cl::ParseError. Any other exception fails the
// test (a contract violation is a cl::InvalidArgument). A CSV trace that
// loads must also keep the trace invariants (Trace::validate) and
// round-trip through write_trace byte for byte.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "carbon/intensity_curve.h"
#include "trace/trace_io.h"
#include "util/error.h"
#include "util/rng.h"

#include "temp_path.h"

namespace cl {
namespace {

/// Bytes a mutation writes in: the CSV and number syntax, plus junk.
constexpr char kSyntax[] = {',', '\n', '"', '#', '=', '-', '+', '.', 'e',
                            'n', 'i', '0', '9', ' ', '\r', '\t', '\0', 'x'};

/// Offset of the start of the line holding `at`.
std::size_t line_start(const std::string& text, std::size_t at) {
  const std::size_t nl = at == 0 ? std::string::npos : text.rfind('\n', at - 1);
  return nl == std::string::npos ? 0 : nl + 1;
}

/// One seeded mutation of `base`: one to three edits.
std::string mutate(const std::string& base, Rng& rng) {
  std::string text = base;
  for (std::uint64_t k = 1 + rng.uniform_index(3); k > 0; --k) {
    if (text.empty()) break;
    const std::size_t at = rng.uniform_index(text.size());
    switch (rng.uniform_index(6)) {
      case 0:
        text[at] = static_cast<char>(static_cast<unsigned char>(text[at]) ^
                                     (1u << rng.uniform_index(8)));
        break;
      case 1:
        text[at] = kSyntax[rng.uniform_index(sizeof kSyntax)];
        break;
      case 2:
        text.erase(at, 1 + rng.uniform_index(8));
        break;
      case 3:
        text.insert(at, text.substr(at, 1 + rng.uniform_index(12)));
        break;
      case 4: {
        // Swap the line holding `at` with the one holding another offset.
        const std::size_t a = line_start(text, at);
        const std::size_t b =
            line_start(text, rng.uniform_index(text.size()));
        if (a == b) break;
        const std::size_t lo = std::min(a, b);
        const std::size_t hi = std::max(a, b);
        const std::size_t lo_end = text.find('\n', lo);
        const std::size_t hi_end = std::min(text.find('\n', hi), text.size());
        if (lo_end >= hi) break;
        const std::string first = text.substr(lo, lo_end - lo);
        const std::string second = text.substr(hi, hi_end - hi);
        text.replace(hi, hi_end - hi, first);
        text.replace(lo, lo_end - lo, second);
        break;
      }
      default:
        text.resize(at);
        break;
    }
  }
  return text;
}

/// Runs `load`; true when it loads, false on cl::ParseError, and fails
/// the test on any other exception.
template <typename Load>
bool loads_or_refuses(Load&& load, const std::string& label) {
  try {
    load();
    return true;
  } catch (const ParseError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": " << e.what();
    return false;
  }
}

/// A 40-row trace in every bitrate class, with fractional, repeated and
/// large times and a metro stamp.
std::string base_trace_csv() {
  Trace trace;
  trace.span = Seconds{86400.0};
  trace.metro_name = "london_top5";
  for (std::uint32_t i = 0; i < 40; ++i) {
    SessionRecord s;
    s.user = 1000 + 37 * i;
    s.household = s.user / 2;
    s.content = i % 7;
    s.isp = i % 5;
    s.exp = i % 11;
    s.bitrate = static_cast<BitrateClass>(i % kBitrateClasses);
    s.start = 2000.0 * (i / 2) + 0.125 * i;
    s.duration = 30.5 + 97.0 * i;
    trace.sessions.push_back(s);
  }
  std::ostringstream out;
  write_trace(out, trace);
  return out.str();
}

std::string written(const Trace& trace) {
  std::ostringstream out;
  write_trace(out, trace);
  return out.str();
}

TEST(TraceCsvFuzz, MutatedFilesLoadOrRaiseParseError) {
  constexpr int kMutations = 3000;
  const std::string base = base_trace_csv();
  Rng rng(0xc5f00d);
  std::size_t loaded = 0;
  for (int m = 0; m < kMutations; ++m) {
    const std::string text = mutate(base, rng);
    const std::string label = "mutation " + std::to_string(m);
    Trace trace;
    const bool ok = loads_or_refuses(
        [&] {
          std::istringstream in(text);
          trace = read_trace(in);
        },
        label);
    if (!ok) continue;
    ++loaded;
    SCOPED_TRACE(label);
    EXPECT_NO_THROW(trace.validate());
    const std::string once = written(trace);
    std::istringstream again(once);
    EXPECT_EQ(written(read_trace(again)), once);
  }
  // Both outcomes occur, or the mutations test nothing.
  EXPECT_GT(loaded, 200u);
  EXPECT_LT(loaded, 2700u);
}

TEST(IntensityCsvFuzz, MutatedFilesLoadOrRaiseParseError) {
  constexpr int kMutations = 600;
  std::string pairs = "hour,gCO2_per_kwh\n";
  std::string values = "# measured export\n";
  for (int h = 0; h < 24; ++h) {
    pairs += std::to_string((h * 7) % 24) + "," + std::to_string(180 + h) +
             ".5\n";
    values += std::to_string(240 - h) + "\n";
  }
  const std::string path = test::unique_temp_path("fuzz_curve.csv");
  Rng rng(0x1c5e);
  std::size_t loaded = 0;
  for (int m = 0; m < kMutations; ++m) {
    const std::string text = mutate(m % 2 == 0 ? pairs : values, rng);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text;
    }
    const bool ok = loads_or_refuses(
        [&] {
          const IntensityCurve curve = IntensityCurve::from_csv(path);
          for (const double g : curve.hours()) {
            EXPECT_TRUE(std::isfinite(g) && g > 0) << "mutation " << m;
          }
        },
        "mutation " + std::to_string(m));
    loaded += ok ? 1 : 0;
  }
  EXPECT_GT(loaded, 40u);
  EXPECT_LT(loaded, 540u);
}

}  // namespace
}  // namespace cl
