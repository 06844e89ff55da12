// trace_io.h — CSV serialisation of traces.
//
// The on-disk format is one session per row:
//   user,household,content,isp,exp,bitrate,start,duration
// with bitrate as a class name ("mobile"/"sd"/"hd"/"fullhd") and times in
// seconds from the trace epoch. A real (anonymised) platform trace mapped
// to these columns can be substituted for the synthetic workload.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/session.h"

namespace cl {

/// Writes a trace as CSV. The header row carries a `#span=<seconds>`
/// comment line first so the span round-trips. Throws
/// cl::InvalidArgument, before writing a byte, when the span or the
/// metro name could not be read back (valid_trace_span,
/// valid_trace_metro_name).
void write_trace(std::ostream& out, const Trace& trace);

/// Writes a trace to a file; throws cl::InvalidArgument like write_trace
/// before the file is created, and cl::IoError when the file cannot be
/// created.
void write_trace_file(const std::string& path, const Trace& trace);

/// Reads a trace produced by write_trace (or any CSV with the same
/// columns). Sessions are re-sorted by start time; the span is taken from
/// the `#span=` comment when present, otherwise from the latest session
/// end. Throws cl::ParseError on malformed input.
[[nodiscard]] Trace read_trace(std::istream& in);

/// Reads a trace from a file; throws cl::IoError when the file is missing.
[[nodiscard]] Trace read_trace_file(const std::string& path);

}  // namespace cl
