// fig6_user_cct_cdf — regenerates paper Fig. 6: the CDF across all users
// of the net per-user carbon footprint after carbon credit transfer, under
// both energy parameter sets.
//
// Paper headline: ~41 % of users become carbon positive under Valancius
// and >70 % under Baliga; the rest watch niche content with swarms too
// small to earn credits.
#include <iostream>

#include "bench_common.h"
#include "bench_json.h"
#include "core/carbon_ledger.h"
#include "core/report.h"
#include "sim/hybrid_sim.h"
#include "util/histogram.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cl;
  bench::Runner run("fig6", argc, argv);
  bench::banner("Fig. 6 — per-user carbon credit transfer CDF",
                "paper: ~41% carbon positive (Valancius), >70% (Baliga)");

  TraceConfig config = TraceConfig::london_month_scaled();
  config.threads = run.threads();
  bench::print_trace_scale(config);
  TraceGenerator gen(config, bench::metro());
  const Trace trace = gen.generate();
  run.set_items(static_cast<double>(trace.size()), "sessions");

  SimConfig sim_config;
  sim_config.threads = run.threads();
  const SimResult result =
      HybridSimulator(bench::metro(), sim_config)
          .run(TraceView::from_trace(trace, run.threads()));
  // The settled per-user column: one entry per user who streamed.
  std::cout << "users simulated: " << result.users.size() << "\n";
  run.metrics().set("users_simulated", result.users.size());

  // One ledger per model, in standard_params order.
  const CarbonLedger valancius(result, valancius_params());
  const CarbonLedger baliga(result, baliga_params());
  for (const CarbonLedger* ledger : {&valancius, &baliga}) {
    std::cout << "\nCDF of per-user CCT (" << ledger->params().name
              << "):\n";
    TextTable table({"per-user CCT", "CDF"});
    for (const auto& p : thin(empirical_cdf(ledger->cct_values()), 18)) {
      table.add_row({fmt(p.x, 3), fmt(p.y, 4)});
    }
    table.print(std::cout);
    print_ledger_summary(std::cout, *ledger);
  }

  std::cout << "\nheadline: carbon-free users — Valancius "
            << fmt_pct(valancius.fraction_carbon_free()) << " (paper ~41%), "
            << "Baliga " << fmt_pct(baliga.fraction_carbon_free())
            << " (paper >70%)\n";
  run.metrics().set("carbon_free_users_Valancius",
                    valancius.fraction_carbon_free());
  run.metrics().set("carbon_free_users_Baliga",
                    baliga.fraction_carbon_free());
  run.metrics().set("median_cct_Valancius", valancius.median_cct());
  run.metrics().set("median_cct_Baliga", baliga.median_cct());
  return run.finish();
}
