// Tests for trace/trace_io.h — CSV round-trips of traces.
#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include "trace/synthetic.h"
#include "util/error.h"

#include "temp_path.h"

namespace cl {
namespace {

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
  t.sessions = {a, b};
  return t;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const Trace original = tiny_trace();
  std::ostringstream out;
  write_trace(out, original);
  std::istringstream in(out.str());
  const Trace restored = read_trace(in);
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_DOUBLE_EQ(restored.span.value(), original.span.value());
  const auto& s = restored.sessions[0];
  EXPECT_EQ(s.user, 1u);
  EXPECT_EQ(s.household, 10u);
  EXPECT_EQ(s.content, 5u);
  EXPECT_EQ(s.isp, 2u);
  EXPECT_EQ(s.exp, 77u);
  EXPECT_EQ(s.bitrate, BitrateClass::kHd);
  EXPECT_DOUBLE_EQ(s.start, 100.5);
  EXPECT_DOUBLE_EQ(s.duration, 1800.25);
}

TEST(TraceIo, SpanCommentWrittenFirst) {
  std::ostringstream out;
  write_trace(out, tiny_trace());
  EXPECT_EQ(out.str().rfind("#span=86400", 0), 0u);
}

TEST(TraceIo, FractionalSpanRoundTripsExactly) {
  // The span comment used to be streamed at 6 significant digits; a
  // fractional span then read back *smaller* than a session's end and the
  // reader rejected its own writer's output.
  Trace t;
  t.span = Seconds{2592034.5678901234};
  SessionRecord s;
  s.bitrate = BitrateClass::kSd;
  s.start = 2592000.0;
  s.duration = 34.5678901234;
  t.sessions = {s};
  std::ostringstream out;
  write_trace(out, t);
  std::istringstream in(out.str());
  const Trace restored = read_trace(in);
  EXPECT_EQ(restored.span.value(), t.span.value());  // exact, not near
}

TEST(TraceIo, ReaderInfersSpanWithoutComment) {
  std::istringstream in(
      "user,household,content,isp,exp,bitrate,start,duration\n"
      "1,1,0,0,0,sd,100,500\n");
  const Trace t = read_trace(in);
  EXPECT_DOUBLE_EQ(t.span.value(), 600.0);
}

TEST(TraceIo, EqualStartTimesKeepFileOrder) {
  // Quantized timestamps produce ties; an unstable sort would permute
  // them and break the byte-exact write -> read -> write round trip.
  std::istringstream in(
      "#span=86400\n"
      "user,household,content,isp,exp,bitrate,start,duration\n"
      "7,1,0,0,0,sd,100,10\n"
      "3,1,0,0,0,sd,100,10\n"
      "9,1,0,0,0,sd,100,10\n");
  const Trace t = read_trace(in);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.sessions[0].user, 7u);
  EXPECT_EQ(t.sessions[1].user, 3u);
  EXPECT_EQ(t.sessions[2].user, 9u);
  std::ostringstream out;
  write_trace(out, t);
  std::istringstream in2(out.str());
  std::ostringstream out2;
  write_trace(out2, read_trace(in2));
  EXPECT_EQ(out.str(), out2.str());
}

TEST(TraceIo, ReaderSortsByStart) {
  std::istringstream in(
      "user,household,content,isp,exp,bitrate,start,duration\n"
      "1,1,0,0,0,sd,500,10\n"
      "2,2,0,0,0,sd,100,10\n");
  const Trace t = read_trace(in);
  EXPECT_EQ(t.sessions[0].user, 2u);
}

/// The message of the ParseError that reading `csv` throws, or "" when
/// it reads.
std::string parse_error_of(const std::string& csv) {
  std::istringstream in(csv);
  try {
    (void)read_trace(in);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIo, RejectsRowPastSpanNamingItsLine) {
  // The third row ends at 110 s, past the 100 s span. It used to reach
  // Trace::validate's precondition instead of a parse error.
  const std::string header =
      "#span=100\n"
      "user,household,content,isp,exp,bitrate,start,duration\n"
      "1,1,0,0,0,sd,10,20\n"
      "2,1,0,0,0,sd,50,20\n";
  EXPECT_EQ(parse_error_of(header + "3,1,0,0,0,sd,90,20\n"),
            "line 5: session ends past the #span of the trace");
  // A blank line still counts, and a row may end exactly at the span.
  EXPECT_EQ(parse_error_of(header + "\n3,1,0,0,0,sd,90,20\n"),
            "line 6: session ends past the #span of the trace");
  EXPECT_EQ(parse_error_of(header + "3,1,0,0,0,sd,90,10\n"), "");
}

TEST(TraceIo, RejectsSpanOutsideTheLongestTrace) {
  // #span= must be finite, >= 0 and at most kMaxTraceDays days; a larger
  // one used to reach the simulator's hour count. Without #span, a row
  // may not end past that bound either, since the span comes from it.
  const std::string rows =
      "user,household,content,isp,exp,bitrate,start,duration\n"
      "1,1,0,0,0,sd,10,20\n";
  for (const std::string span :
       {"1e300", "inf", "-inf", "nan", "-1", "86400000001"}) {
    const std::string error = parse_error_of("#span=" + span + "\n" + rows);
    EXPECT_EQ(error.rfind("#span= must be a number of seconds in [0, 1000000 "
                          "days]: '" + span + "'", 0),
              0u)
        << span << ": " << error;
  }
  EXPECT_EQ(parse_error_of("#span=86400000000\n" + rows), "");
  EXPECT_EQ(parse_error_of("#span=0\n" + rows.substr(0, rows.find('\n') + 1)),
            "");
  EXPECT_EQ(parse_error_of(rows + "2,1,0,0,0,sd,1e300,0\n"),
            "line 3: session ends past the longest trace span");
}

TEST(TraceIo, RejectsNegativeOrNonFiniteTimesNamingTheLine) {
  const std::string header =
      "user,household,content,isp,exp,bitrate,start,duration\n"
      "1,1,0,0,0,sd,10,20\n";
  for (const char* row : {"2,1,0,0,0,sd,-1,20\n", "2,1,0,0,0,sd,5,-20\n",
                          "2,1,0,0,0,sd,nan,20\n", "2,1,0,0,0,sd,5,inf\n"}) {
    EXPECT_EQ(parse_error_of(header + row),
              "line 3: start and duration must be finite and >= 0")
        << row;
  }
}

TEST(TraceIo, RejectsBadBitrate) {
  std::istringstream in(
      "user,household,content,isp,exp,bitrate,start,duration\n"
      "1,1,0,0,0,ultra,100,10\n");
  EXPECT_THROW(read_trace(in), ParseError);
}

TEST(TraceIo, RejectsBadNumber) {
  std::istringstream in(
      "user,household,content,isp,exp,bitrate,start,duration\n"
      "abc,1,0,0,0,sd,100,10\n");
  EXPECT_THROW(read_trace(in), ParseError);
}

TEST(TraceIo, RejectsGarbageAfterClosingQuote) {
  // `"100"5` used to silently parse as 1005 — trailing garbage after a
  // quoted field must be a hard error.
  std::istringstream in(
      "user,household,content,isp,exp,bitrate,start,duration\n"
      "1,1,0,0,0,sd,\"100\"5,10\n");
  EXPECT_THROW(read_trace(in), ParseError);
}

TEST(TraceIo, RejectsGarbageOnUnterminatedLastLine) {
  // A last line without trailing newline still gets full validation.
  std::istringstream in(
      "user,household,content,isp,exp,bitrate,start,duration\n"
      "1,1,0,0,0,sd,100,\"10\"junk");
  EXPECT_THROW(read_trace(in), ParseError);
}

TEST(TraceIo, RejectsStrayCarriageReturnInsideLine) {
  // Interior \r used to be silently stripped ("1\r00" parsed as 100).
  std::istringstream in(
      "user,household,content,isp,exp,bitrate,start,duration\n"
      "1,1,0,0,0,sd,1\r00,10\n");
  EXPECT_THROW(read_trace(in), ParseError);
}

TEST(TraceIo, AcceptsCrlfLineEndings) {
  std::istringstream in(
      "#span=86400\r\n"
      "user,household,content,isp,exp,bitrate,start,duration\r\n"
      "1,1,0,0,0,sd,100,10\r\n");
  const Trace t = read_trace(in);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(t.span.value(), 86400.0);
  EXPECT_DOUBLE_EQ(t.sessions[0].start, 100.0);
}

TEST(TraceIo, RejectsMissingColumn) {
  std::istringstream in("user,household\n1,1\n");
  EXPECT_THROW(read_trace(in), ParseError);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = test::unique_temp_path("cl_trace_test.csv");
  write_trace_file(path, tiny_trace());
  const Trace restored = read_trace_file(path);
  EXPECT_EQ(restored.size(), 2u);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/path/trace.csv"), IoError);
  EXPECT_THROW(write_trace_file("/nonexistent/path/trace.csv", tiny_trace()),
               IoError);
}

TEST(TraceIo, SyntheticTraceRoundTripsLosslessly) {
  const auto metro = Metro::london_top5();
  TraceConfig config;
  config.days = 2;
  config.users = 500;
  config.exemplar_views = {3000};
  config.catalogue_tail = 50;
  config.tail_views = 2000;
  TraceGenerator gen(config, metro);
  const Trace original = gen.generate();
  std::ostringstream out;
  write_trace(out, original);
  std::istringstream in(out.str());
  const Trace restored = read_trace(in);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); i += 37) {
    EXPECT_EQ(restored.sessions[i].user, original.sessions[i].user);
    EXPECT_EQ(restored.sessions[i].content, original.sessions[i].content);
    EXPECT_DOUBLE_EQ(restored.sessions[i].start, original.sessions[i].start);
    EXPECT_DOUBLE_EQ(restored.sessions[i].duration,
                     original.sessions[i].duration);
  }
}

TEST(TraceIo, WriterRefusesSpanTheReaderRefuses) {
  // A span the reader would refuse (valid_trace_span) is refused before
  // a byte is written, to a stream or to a file.
  const std::string path = test::unique_temp_path("refused_span.csv");
  for (const double span : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            2.1e300}) {
    SCOPED_TRACE(span);
    Trace t = tiny_trace();
    t.span = Seconds{span};
    std::ostringstream out;
    EXPECT_THROW(write_trace(out, t), InvalidArgument);
    EXPECT_TRUE(out.str().empty());
    EXPECT_THROW(write_trace_file(path, t), InvalidArgument);
    EXPECT_FALSE(std::filesystem::exists(path));
  }
}

}  // namespace
}  // namespace cl
