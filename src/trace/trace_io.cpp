#include "trace/trace_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "util/csv.h"
#include "util/error.h"

namespace cl {

namespace {

double parse_double(const std::string& text, const char* what) {
  double v = 0;
  const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
  if (res.ec != std::errc() || res.ptr != text.data() + text.size()) {
    throw ParseError(std::string("bad ") + what + ": '" + text + "'");
  }
  return v;
}

std::uint32_t parse_u32(const std::string& text, const char* what) {
  std::uint32_t v = 0;
  const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
  if (res.ec != std::errc() || res.ptr != text.data() + text.size()) {
    throw ParseError(std::string("bad ") + what + ": '" + text + "'");
  }
  return v;
}

}  // namespace

void write_trace(std::ostream& out, const Trace& trace) {
  // Refuse what the reader would refuse before writing a byte.
  require_writable_trace_span(trace.span.value());
  CL_EXPECTS(valid_trace_metro_name(trace.metro_name));
  // Shortest round-trip formatting — streaming the double directly would
  // truncate to 6 significant digits, and a span that reads back smaller
  // than a session's end makes the reader reject its own writer's output.
  char span_buf[64];
  const auto span_res = std::to_chars(
      span_buf, span_buf + sizeof span_buf, trace.span.value());
  out << "#span=" << std::string_view(span_buf, span_res.ptr) << '\n';
  // The metro comment is written only when recorded, so traces from
  // before the metro field (and metro-less traces) keep their exact
  // bytes through a write -> read -> write round trip.
  if (!trace.metro_name.empty()) {
    out << "#metro=" << trace.metro_name << '\n';
  }
  CsvWriter writer(out, {"user", "household", "content", "isp", "exp",
                         "bitrate", "start", "duration"});
  for (const auto& s : trace.sessions) {
    writer.row(s.user, s.household, s.content, s.isp, s.exp,
               std::string(to_string(s.bitrate)), s.start, s.duration);
  }
}

void write_trace_file(const std::string& path, const Trace& trace) {
  require_writable_trace_span(trace.span.value());
  CL_EXPECTS(valid_trace_metro_name(trace.metro_name));
  std::ofstream out(path);
  if (!out) throw IoError("cannot create trace file: " + path);
  write_trace(out, trace);
  if (!out) throw IoError("failed writing trace file: " + path);
}

Trace read_trace(std::istream& in) {
  double span = -1;
  std::string metro_name;
  // Leading #key=value comment lines, in any order; unknown comments are
  // skipped so future header keys stay readable by this build. (Pre-metro
  // builds consumed exactly one leading comment line, so CSVs carrying
  // #metro= need this build or newer — same one-way street as the
  // .cltrace v2 bump.)
  std::size_t comment_lines = 0;
  while (in.peek() == '#') {
    std::string comment;
    std::getline(in, comment);
    ++comment_lines;
    if (!comment.empty() && comment.back() == '\r') comment.pop_back();
    const auto eq = comment.find('=');
    if (comment.rfind("#span=", 0) == 0 && eq != std::string::npos) {
      span = parse_double(comment.substr(eq + 1), "span");
      if (!valid_trace_span(span)) {
        throw ParseError("#span= must be a number of seconds in [0, " +
                         std::to_string(kMaxTraceDays) + " days]: '" +
                         comment.substr(eq + 1) + "'");
      }
    } else if (comment.rfind("#metro=", 0) == 0 && eq != std::string::npos) {
      metro_name = comment.substr(eq + 1);
      if (metro_name.empty() || !valid_trace_metro_name(metro_name)) {
        throw ParseError("bad metro name in #metro= header comment");
      }
    }
  }
  const CsvDocument doc = read_csv(in);
  const auto c_user = doc.column("user");
  const auto c_household = doc.column("household");
  const auto c_content = doc.column("content");
  const auto c_isp = doc.column("isp");
  const auto c_exp = doc.column("exp");
  const auto c_bitrate = doc.column("bitrate");
  const auto c_start = doc.column("start");
  const auto c_duration = doc.column("duration");

  Trace trace;
  trace.sessions.reserve(doc.rows.size());
  double max_end = 0;
  for (std::size_t r = 0; r < doc.rows.size(); ++r) {
    const std::vector<std::string>& row = doc.rows[r];
    SessionRecord s;
    s.user = parse_u32(row[c_user], "user");
    s.household = parse_u32(row[c_household], "household");
    s.content = parse_u32(row[c_content], "content");
    s.isp = parse_u32(row[c_isp], "isp");
    s.exp = parse_u32(row[c_exp], "exp");
    s.bitrate = bitrate_class_from_string(row[c_bitrate]);
    s.start = parse_double(row[c_start], "start");
    s.duration = parse_double(row[c_duration], "duration");
    // The rows' invariants (Trace::validate) are the file's to keep, so a
    // row that breaks one is a parse error that names its line.
    const auto bad_row = [&](const char* what) {
      return ParseError("line " + std::to_string(comment_lines + doc.lines[r]) +
                        ": " + what);
    };
    if (!std::isfinite(s.start) || !std::isfinite(s.duration) ||
        s.start < 0 || s.duration < 0) {
      throw bad_row("start and duration must be finite and >= 0");
    }
    if (span >= 0 && s.end() > span + 1e-6) {
      throw bad_row("session ends past the #span of the trace");
    }
    if (!valid_trace_span(s.end())) {
      throw bad_row("session ends past the longest trace span");
    }
    max_end = std::max(max_end, s.end());
    trace.sessions.push_back(s);
  }
  // Stable: rows sharing a start time (quantized timestamps are common in
  // anonymised traces) keep their file order, so write -> read -> write
  // reproduces the file byte-exactly (the `cl convert` round-trip
  // contract).
  std::stable_sort(trace.sessions.begin(), trace.sessions.end(),
                   [](const SessionRecord& a, const SessionRecord& b) {
                     return a.start < b.start;
                   });
  trace.span = Seconds{span >= 0 ? span : max_end};
  trace.metro_name = std::move(metro_name);
  trace.validate();
  return trace;
}

Trace read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open trace file: " + path);
  return read_trace(in);
}

}  // namespace cl
