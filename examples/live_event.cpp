// live_event — the paper's live-streaming future-work scenario
// (ref [32]): a single broadcast watched by thousands of concurrent
// viewers is the best case for peer assistance.
//
// Usage:  ./build/examples/live_event [viewers]
#include <cstdlib>
#include <iostream>

#include "core/pipeline.h"
#include "ext/live.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cl;
  const Metro metro = Metro::london_top5();

  LiveEventConfig config;
  config.viewers = argc > 1 ? static_cast<std::uint32_t>(
                                  std::strtoul(argv[1], nullptr, 10))
                            : 20000;
  std::cout << "simulating a live broadcast with " << config.viewers
            << " viewers joining within minutes of each other\n\n";

  const Trace trace = generate_live_event(metro, config, /*seed=*/2018);
  const Analyzer analyzer(metro, SimConfig{});
  const auto outcomes =
      run_simulate(analyzer, TraceView::from_trace(trace), nullptr, false)
          .aggregate;

  TextTable table({"model", "offload G", "savings S", "baseline (kWh)",
                   "hybrid (kWh)"});
  for (const auto& o : outcomes) {
    table.add_row({o.model, fmt_pct(o.offload), fmt_pct(o.sim_savings),
                   fmt(o.baseline_energy.kwh(), 3),
                   fmt(o.hybrid_energy.kwh(), 3)});
  }
  table.print(std::cout);

  std::cout << "\ncompare with the paper's on-demand numbers (24-48%): a "
               "live audience keeps every swarm at its capacity ceiling, "
               "so savings sit at the asymptote of Eq. 12 — the strongest "
               "argument for carbon-aware peer assistance in live "
               "distribution.\n";
  return 0;
}
