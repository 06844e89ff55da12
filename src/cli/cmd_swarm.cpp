// cmd_swarm — one content swarm's simulation-vs-theory outcome
// (one dot of the paper's Fig. 2).
#include <cstdint>
#include <iostream>
#include <limits>

#include "cli/cli_common.h"
#include "cli/commands.h"
#include "core/analyzer.h"
#include "core/report.h"

namespace cl::cli {

int cmd_swarm(const Args& args) {
  const std::int64_t content_flag = args.get_int("content", 0);
  if (content_flag < 0 ||
      content_flag > std::numeric_limits<std::uint32_t>::max()) {
    throw ParseError("--content must be in [0, 4294967295]");
  }
  const auto content = static_cast<std::uint32_t>(content_flag);
  const TraceView view = load_trace(args);
  const Metro& metro = resolve_metro(args, view.metro_name());
  const std::int64_t isp_flag = args.get_int("isp", 0);
  if (isp_flag < 0 ||
      static_cast<std::uint64_t>(isp_flag) >= metro.isp_count()) {
    throw ParseError("--isp out of range (0.." +
                     std::to_string(metro.isp_count() - 1) + ")");
  }
  const auto isp = static_cast<std::uint32_t>(isp_flag);

  // The one swarm's sessions as rows, in start order and over the whole
  // trace's span (as trace/filter.h slices).
  Trace swarm;
  swarm.span = view.span();
  swarm.metro_name = view.metro_name();
  for (std::size_t t = 0; t < view.size(); ++t) {
    const SessionRecord s = view.session(t);
    if (s.content == content && s.isp == isp) swarm.sessions.push_back(s);
  }
  if (swarm.empty()) {
    std::cout << "no sessions for content " << content << " on "
              << metro.isp(isp).name() << "\n";
    return 1;
  }
  std::cout << "\ncontent " << content << " on " << metro.isp(isp).name()
            << ":\n";
  const Analyzer analyzer(metro, sim_config_from(args));
  print_swarm_experiment(
      std::cout,
      analyzer.analyze_swarm(
          TraceView::from_trace(swarm, analyzer.sim_config().threads), isp));
  return 0;
}

}  // namespace cl::cli
