#include "trace/session.h"

#include <charconv>

#include "util/error.h"

namespace cl {

bool valid_trace_metro_name(const std::string& name) {
  if (name.size() > kTraceMetroNameMaxBytes) return false;
  for (const char c : name) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20 || byte == 0x7f) return false;
  }
  return true;
}

void require_writable_trace_span(double seconds) {
  if (valid_trace_span(seconds)) return;
  char text[32];
  const auto end = std::to_chars(text, text + sizeof text, seconds);
  throw InvalidArgument("trace span " + std::string(text, end.ptr) +
                        " s is not in [0, " + std::to_string(kMaxTraceDays) +
                        " days]: no trace reader would accept the file");
}

Bits Trace::total_volume() const {
  Bits sum;
  for (const auto& s : sessions) sum += s.volume();
  return sum;
}

void Trace::validate() const {
  CL_EXPECTS(span.value() >= 0);
  CL_EXPECTS(valid_trace_metro_name(metro_name));
  double prev_start = 0;
  for (const auto& s : sessions) {
    CL_EXPECTS(s.duration >= 0);
    CL_EXPECTS(s.start >= 0);
    CL_EXPECTS(s.start >= prev_start);
    CL_EXPECTS(s.end() <= span.value() + 1e-6);
    prev_start = s.start;
  }
}

}  // namespace cl
