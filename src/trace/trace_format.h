// trace_format.h — format dispatch between the CSV (trace/trace_io.h)
// and binary columnar (trace/trace_binary.h, trace/trace_mmap.h) trace
// representations.
//
// Readers sniff the `.cltrace` magic bytes, so `--format auto` (the
// default everywhere) does the right thing regardless of file extension;
// writers fall back to the extension because a new file has no bytes to
// sniff.
#pragma once

#include <string>

#include "trace/session.h"

namespace cl {

/// On-disk trace representations.
enum class TraceFormat {
  kAuto,    ///< readers: sniff magic; writers: by `.cltrace` extension
  kCsv,     ///< row-oriented text (trace/trace_io.h)
  kBinary,  ///< columnar `.cltrace` (trace/trace_binary.h)
};

/// Parses a `--format` flag value ("auto" | "csv" | "binary"); throws
/// cl::ParseError on anything else.
[[nodiscard]] TraceFormat trace_format_from_string(const std::string& name);

/// True when the file at `path` starts with the `.cltrace` magic bytes.
/// Throws cl::IoError when the file cannot be opened.
[[nodiscard]] bool sniff_trace_binary(const std::string& path);

/// True when `path` ends in ".cltrace".
[[nodiscard]] bool has_binary_trace_extension(const std::string& path);

/// Reads a trace in the given (or sniffed) format. `threads` shards the
/// binary loader's materialization; the CSV path ignores it.
[[nodiscard]] Trace read_trace_any(const std::string& path,
                                   TraceFormat format = TraceFormat::kAuto,
                                   unsigned threads = 1);

/// Writes a trace in the given format (kAuto: binary when `path` ends in
/// ".cltrace", CSV otherwise). `threads` shards the binary writer (0 =
/// all hardware threads); the bytes are the same at every value, and the
/// CSV path ignores it.
void write_trace_any(const std::string& path, const Trace& trace,
                     TraceFormat format = TraceFormat::kAuto,
                     unsigned threads = 0);

}  // namespace cl
