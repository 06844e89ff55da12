// ablation_preload — the paper's predictive-preloading future-work
// direction (ref [17] Take-Away TV): synchronising a fraction of sessions
// into a morning preload window concentrates swarms and raises offload.
#include <iostream>

#include "bench_common.h"
#include "bench_json.h"
#include "core/analyzer.h"
#include "ext/preload.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cl;
  bench::Runner run("ablation_preload", argc, argv);
  bench::banner("Ablation (extension) — predictive preloading",
                "a fraction of sessions moves into a 07:00-09:00 preload "
                "window (timing shift only, see ext/preload.h)");

  TraceConfig config = TraceConfig::london_month_scaled(/*days=*/10);
  config.threads = run.threads();
  bench::print_trace_scale(config);
  TraceGenerator gen(config, bench::metro());
  const Trace trace = gen.generate();
  run.set_items(static_cast<double>(trace.size()) * 5, "sessions");

  SimConfig sim_config;
  sim_config.threads = run.threads();
  sim_config.collect_hourly = false;
  sim_config.collect_per_user = false;
  sim_config.collect_swarms = false;
  HybridSimulator sim(bench::metro(), sim_config);

  TextTable table({"preload adoption", "offload G", "S (Valancius)",
                   "S (Baliga)"});
  for (double adoption : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const Trace shifted = apply_preload(trace, {.adoption = adoption},
                                        config.seed);
    const auto result = sim.run(TraceView::from_trace(shifted, run.threads()));
    std::vector<std::string> row{fmt_pct(adoption, 0)};
    row.push_back(fmt_pct(result.total.offload_fraction()));
    for (const auto& params : standard_params()) {
      const EnergyAccountant accountant{CostFunctions(params)};
      row.push_back(fmt_pct(accountant.savings(result.total)));
    }
    table.add_row(row);
    if (adoption == 0.0 || adoption == 1.0) {
      const std::string key =
          adoption == 0.0 ? "no_preload" : "full_preload";
      run.metrics().set(key + "_offload", result.total.offload_fraction());
      for (const auto& params : standard_params()) {
        const EnergyAccountant accountant{CostFunctions(params)};
        run.metrics().set(key + "_savings_" + params.name,
                          accountant.savings(result.total));
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nreading: demand synchronisation is a cheap lever — it "
               "raises instantaneous swarm sizes without adding a single "
               "byte of demand, exactly the effect the paper expects from "
               "predictive preloading.\n";
  return run.finish();
}
