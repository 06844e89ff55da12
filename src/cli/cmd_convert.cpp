// cmd_convert — convert traces between the CSV and binary columnar
// on-disk formats (the "generate once at full scale, reload in seconds"
// workflow: CSV for interchange, .cltrace for month-scale replay).
#include <chrono>
#include <iostream>

#include "cli/cli_common.h"
#include "cli/commands.h"
#include "trace/trace_format.h"
#include "util/error.h"

namespace cl::cli {

int cmd_convert(const Args& args) {
  const auto in_path = args.get("in");
  const auto out_path = args.get("out");
  if (!in_path || !out_path) {
    throw ParseError("convert requires --in PATH and --out PATH");
  }
  const TraceFormat from = trace_format_from(args, "from");
  const TraceFormat to = trace_format_from(args, "to");
  const unsigned threads = threads_from(args);

  const auto t0 = std::chrono::steady_clock::now();
  const Trace trace = read_trace_any(*in_path, from, threads);
  const auto t1 = std::chrono::steady_clock::now();
  write_trace_any(*out_path, trace, to, threads);
  const auto t2 = std::chrono::steady_clock::now();

  if (!args.has("quiet")) {
    const auto seconds = [](auto a, auto b) {
      return std::chrono::duration<double>(b - a).count();
    };
    std::cout << "converted " << trace.size() << " sessions ("
              << trace.span.value() / 86400.0 << " days): " << *in_path
              << " -> " << *out_path << "\n"
              << "  read " << seconds(t0, t1) << " s, write "
              << seconds(t1, t2) << " s\n";
  }
  return 0;
}

}  // namespace cl::cli
