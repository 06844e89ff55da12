// ablation_isp_friendly — quantifies the cost of the paper's ISP-friendly
// restriction: swarms limited to one ISP (the paper's lower bound) versus
// swarms free to match peers across ISPs (cross-ISP bytes priced at the
// documented γcross, see energy_params.h).
#include <iostream>

#include "bench_common.h"
#include "bench_json.h"
#include "core/analyzer.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cl;
  bench::Runner run("ablation_isp_friendly", argc, argv);
  bench::banner("Ablation — ISP-friendly vs cross-ISP swarms",
                "the paper restricts swarms to one ISP as a lower bound; "
                "this measures what the restriction costs");

  TraceConfig config = TraceConfig::london_month_scaled(/*days=*/10);
  config.threads = run.threads();
  bench::print_trace_scale(config);
  TraceGenerator gen(config, bench::metro());
  const TraceView view =
      TraceView::from_trace(gen.generate(), run.threads());
  run.set_items(static_cast<double>(view.size()) * 2, "sessions");

  TextTable table({"setting", "offload G", "S (Valancius)", "S (Baliga)",
                   "cross-ISP share"});
  for (bool isp_friendly : {true, false}) {
    SimConfig sim_config;
    sim_config.isp_friendly = isp_friendly;
    sim_config.threads = run.threads();
    sim_config.collect_hourly = false;
    sim_config.collect_per_user = false;
    sim_config.collect_swarms = false;
    const auto result =
        HybridSimulator(bench::metro(), sim_config).run(view);
    const std::string setting = isp_friendly ? "isp_friendly" : "cross_isp";
    std::vector<std::string> row{
        isp_friendly ? "ISP-friendly (paper)" : "cross-ISP"};
    row.push_back(fmt_pct(result.total.offload_fraction()));
    run.metrics().set("offload_" + setting, result.total.offload_fraction());
    for (const auto& params : standard_params()) {
      const EnergyAccountant accountant{CostFunctions(params)};
      row.push_back(fmt_pct(accountant.savings(result.total)));
      run.metrics().set("savings_" + setting + "_" + params.name,
                        accountant.savings(result.total));
    }
    row.push_back(fmt_pct(result.total.cross_isp.value() /
                          result.total.total().value()));
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\nreading: cross-ISP matching recovers extra offload for "
               "small ISPs, but the longer peering paths dilute the per-bit "
               "benefit — the paper's ISP-friendly numbers are indeed a "
               "lower bound on G and a near-optimum on energy.\n";
  return run.finish();
}
