// trace_analysis — full pipeline on a workload trace.
//
// Generates a scaled London month (or loads a trace given as argv[1] —
// CSV or binary .cltrace, sniffed automatically; see trace/trace_io.h
// and trace/trace_binary.h for the formats), runs the hybrid-CDN
// simulator, and prints dataset statistics, headline savings, and the
// simulation-vs-theory comparison per ISP.
//
// Usage:  ./build/examples/trace_analysis [trace.csv|trace.cltrace]
#include <iostream>

#include "core/pipeline.h"
#include "core/report.h"
#include "trace/filter.h"
#include "trace/synthetic.h"
#include "trace/trace_format.h"
#include "trace/trace_stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cl;
  const Metro metro = Metro::london_top5();

  Trace trace;
  if (argc > 1) {
    std::cout << "loading trace from " << argv[1] << "\n";
    trace = read_trace_any(argv[1]);
  } else {
    std::cout << "generating a scaled synthetic London month "
                 "(pass a trace path to analyse a real trace)\n";
    TraceGenerator gen(TraceConfig::london_month_scaled(/*days=*/10), metro);
    trace = gen.generate();
  }

  std::cout << "\n== dataset ==\n";
  print_trace_stats(std::cout, compute_stats(trace), trace.span);

  const Analyzer analyzer(metro, SimConfig{});

  std::cout << "\n== whole-system savings (hybrid vs pure CDN) ==\n";
  print_aggregate(
      std::cout,
      run_simulate(analyzer, TraceView::from_trace(trace), nullptr, false)
          .aggregate);

  std::cout << "\n== per-ISP savings, simulation vs closed form ==\n";
  TextTable table({"ISP", "sessions", "S sim (Val)", "S theo (Val)",
                   "S sim (Bal)", "S theo (Bal)"});
  for (std::uint32_t isp = 0; isp < metro.isp_count(); ++isp) {
    const Trace isp_trace = filter_by_isp(trace, isp);
    const auto agg = run_simulate(analyzer, TraceView::from_trace(isp_trace),
                                  nullptr, false)
                         .aggregate;
    table.add_row({metro.isp(isp).name(), std::to_string(isp_trace.size()),
                   fmt(agg[0].sim_savings, 4), fmt(agg[0].theory_savings, 4),
                   fmt(agg[1].sim_savings, 4), fmt(agg[1].theory_savings, 4)});
  }
  table.print(std::cout);

  std::cout << "\n== the three popularity tiers of Fig. 2 ==\n";
  const char* names[] = {"popular", "medium", "unpopular"};
  for (std::uint32_t content = 0; content < 3; ++content) {
    const Trace swarm = filter_by_isp(filter_by_content(trace, content), 0);
    if (swarm.empty()) continue;
    std::cout << names[content] << " exemplar on ISP-1:\n";
    print_swarm_experiment(
        std::cout, analyzer.analyze_swarm(TraceView::from_trace(swarm), 0));
  }
  return 0;
}
