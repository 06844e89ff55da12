#include "trace/trace_format.h"

#include <cstring>
#include <fstream>
#include <string_view>

#include "trace/trace_binary.h"
#include "trace/trace_io.h"
#include "trace/trace_view.h"
#include "util/error.h"

namespace cl {

TraceFormat trace_format_from_string(const std::string& name) {
  if (name == "auto") return TraceFormat::kAuto;
  if (name == "csv") return TraceFormat::kCsv;
  if (name == "binary" || name == "cltrace") return TraceFormat::kBinary;
  throw ParseError("unknown trace format '" + name + "' (auto|csv|binary)");
}

bool sniff_trace_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open trace file: " + path);
  char head[sizeof kTraceBinaryMagic] = {};
  in.read(head, sizeof head);
  return in.gcount() == static_cast<std::streamsize>(sizeof head) &&
         std::memcmp(head, kTraceBinaryMagic, sizeof head) == 0;
}

bool has_binary_trace_extension(const std::string& path) {
  constexpr std::string_view ext = ".cltrace";
  return path.size() >= ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

Trace read_trace_any(const std::string& path, TraceFormat format,
                     unsigned threads) {
  if (format == TraceFormat::kAuto) {
    format = sniff_trace_binary(path) ? TraceFormat::kBinary
                                      : TraceFormat::kCsv;
  }
  return format == TraceFormat::kBinary
             ? read_trace_binary_file(path, threads)
             : read_trace_file(path);
}

void write_trace_any(const std::string& path, const Trace& trace,
                     TraceFormat format, unsigned threads) {
  if (format == TraceFormat::kAuto) {
    format = has_binary_trace_extension(path) ? TraceFormat::kBinary
                                              : TraceFormat::kCsv;
  }
  if (format == TraceFormat::kBinary) {
    write_trace_binary_file(path, trace, threads);
  } else {
    write_trace_file(path, trace);
  }
}

}  // namespace cl
