// ablation_bitrate_split — cost of splitting swarms by bitrate class
// (a large-screen client cannot stream a phone's low-bitrate copy) versus
// hypothetical mixed-bitrate swarms.
#include <iostream>

#include "bench_common.h"
#include "bench_json.h"
#include "core/analyzer.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cl;
  bench::Runner run("ablation_bitrate_split", argc, argv);
  bench::banner("Ablation — bitrate-split vs mixed-bitrate swarms",
                "the paper splits swarms per bitrate; this quantifies what "
                "transcoding-capable peers could recover");

  TraceConfig config = TraceConfig::london_month_scaled(/*days=*/10);
  config.threads = run.threads();
  bench::print_trace_scale(config);
  TraceGenerator gen(config, bench::metro());
  const TraceView view =
      TraceView::from_trace(gen.generate(), run.threads());
  run.set_items(static_cast<double>(view.size()) * 2, "sessions");

  TextTable table({"setting", "offload G", "S (Valancius)", "S (Baliga)"});
  for (bool split : {true, false}) {
    SimConfig sim_config;
    sim_config.split_by_bitrate = split;
    sim_config.threads = run.threads();
    sim_config.collect_hourly = false;
    sim_config.collect_per_user = false;
    sim_config.collect_swarms = false;
    const auto result =
        HybridSimulator(bench::metro(), sim_config).run(view);
    const std::string setting = split ? "split" : "mixed";
    std::vector<std::string> row{split ? "split by bitrate (paper)"
                                       : "mixed-bitrate swarms"};
    row.push_back(fmt_pct(result.total.offload_fraction()));
    run.metrics().set("offload_" + setting, result.total.offload_fraction());
    for (const auto& params : standard_params()) {
      const EnergyAccountant accountant{CostFunctions(params)};
      row.push_back(fmt_pct(accountant.savings(result.total)));
      run.metrics().set("savings_" + setting + "_" + params.name,
                        accountant.savings(result.total));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\nreading: merging bitrate classes enlarges every swarm "
               "(sub-swarm capacities add), which mostly helps the medium "
               "popularity band where capacity sits near 1.\n";
  return run.finish();
}
