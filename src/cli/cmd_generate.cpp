// cmd_generate — synthesise a workload trace and write it as CSV.
#include <iostream>
#include <limits>

#include "cli/cli_common.h"
#include "cli/commands.h"
#include "core/report.h"
#include "topology/placement.h"
#include "trace/synthetic.h"
#include "trace/trace_stats.h"
#include "util/error.h"

namespace cl::cli {

namespace {

TraceConfig preset_config(const Args& args) {
  const std::string preset = args.get_or("preset", "london");
  TraceConfig config;
  if (preset == "london") {
    config = TraceConfig::london_month_scaled(days_from(args, 30, 1));
  } else if (preset == "paper") {
    config = TraceConfig::london_month_paper(days_from(args, 30, 1));
  } else if (preset == "small") {
    config.days = days_from(args, 7, 1);
    config.users = 5000;
    config.exemplar_views = {20000, 2000};
    config.catalogue_tail = 300;
    config.tail_views = 20000;
  } else {
    throw ParseError("unknown preset '" + preset + "' (london|paper|small)");
  }
  config.metro = metro_flag(args);
  config.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(config.seed)));
  const std::int64_t users =
      args.get_int("users", static_cast<std::int64_t>(config.users));
  if (users < 1 || users > std::numeric_limits<std::uint32_t>::max()) {
    throw ParseError("--users must be in [1, 4294967295]");
  }
  config.users = static_cast<std::uint32_t>(users);
  config.threads = threads_from(args);
  return config;
}

}  // namespace

int cmd_generate(const Args& args) {
  const auto out_path = args.get("out");
  if (!out_path) throw ParseError("generate requires --out PATH");
  const TraceConfig config = preset_config(args);
  const Metro& metro = metro_by_name(config.metro);
  TraceGenerator generator(config, metro);
  const Trace trace = generator.generate();
  write_trace_any(*out_path, trace, trace_format_from(args), config.threads);
  if (!args.has("quiet")) {
    std::cout << "wrote " << trace.size() << " sessions ("
              << config.days << " days, seed " << config.seed << ", metro "
              << config.metro << ") to " << *out_path << "\n\n";
    print_trace_stats(std::cout, compute_stats(trace), trace.span);
  }
  return 0;
}

}  // namespace cl::cli
