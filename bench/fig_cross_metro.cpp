// fig_cross_metro — the cross-metro experiment: replay the *same*
// catalogue/demand (the calibrated scaled London month, same seed, same
// users) through every metro preset of the topology registry and compare
// the resulting Valancius/Baliga daily-savings bands.
//
// The paper fixes one metro (london_top5); its model is parametric in the
// ISP tree shape, and related CDN-energy work (Valancius et al.'s
// nano-datacenter model, Baliga et al.'s energy accounting) shows savings
// are sensitive to the aggregation-tree fan-out. This bench makes that
// sensitivity measurable: per preset it reports the Table III-style
// localisation probabilities of the largest ISP and the per-day aggregate
// savings band (mean/min/max of ISP-1, plus the whole-system headline).
//
// Reading the bands: sparse-ExP trees (us_sparse, 40 ExPs) localise
// mid-size swarms at the exchange point quickly, even though their
// *sub-core* localisation — the chance two peers share any layer below
// the core, 1/n_pop — is lower than London's (1/12 vs 1/9); their band
// sits highest. Dense-ExP fiber trees (900 ExPs) pay the opposite tree
// effect (mid swarms stay PoP/core-bound; at equal capacity their
// per-bit peer cost is the highest of the three, pinned in
// tests/test_metro_registry.cpp), but the metro's concentrated 3-ISP
// market enlarges per-ISP swarms and roughly cancels it — the two
// fan-out knobs (ExPs per tree, ISPs per metro) pull the band in
// opposite directions.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/pipeline.h"
#include "topology/metro_registry.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cl;
  double days = 30;
  bench::Runner run("fig_cross_metro", argc, argv, [&](const Args& args) {
    days = args.get_double("days", days);
  });
  bench::banner("cross-metro experiment — savings bands per metro preset",
                "same catalogue/demand through every registry metro; "
                "savings depend on the aggregation-tree fan-out");

  const MetroRegistry& registry = MetroRegistry::instance();
  double total_sessions = 0;

  TextTable localisation({"metro", "ISPs", "ISP-1 ExPs", "ISP-1 PoPs",
                          "p_exp", "p_pop (sub-core)"});
  TextTable bands({"metro", "model", "ISP-1 mean", "ISP-1 min", "ISP-1 max",
                   "system"});

  for (const auto& preset : registry.presets()) {
    const Metro& metro = registry.get(preset.name);

    TraceConfig config = TraceConfig::london_month_scaled(days);
    config.metro = preset.name;
    config.threads = run.threads();
    const Trace trace = TraceGenerator(config, metro).generate();
    total_sessions += static_cast<double>(trace.size());

    SimConfig sim_config;
    sim_config.threads = run.threads();
    const Analyzer analyzer(metro, sim_config);
    const TraceView view = TraceView::from_trace(trace, run.threads());
    const auto report = analyzer.daily_report(view);
    const auto outcomes =
        run_simulate(analyzer, view, nullptr, false).aggregate;

    const auto& isp1 = metro.isp(0);
    const auto loc = isp1.localisation();
    localisation.add_row({preset.name, std::to_string(metro.isp_count()),
                          std::to_string(isp1.exchange_points()),
                          std::to_string(isp1.pops()), fmt_pct(loc.exp, 2),
                          fmt_pct(loc.pop, 2)});
    run.metrics().set(preset.name + "_isp_count", metro.isp_count());
    run.metrics().set(preset.name + "_isp1_exchange_points",
                      static_cast<std::int64_t>(isp1.exchange_points()));
    run.metrics().set(preset.name + "_isp1_pops",
                      static_cast<std::int64_t>(isp1.pops()));
    run.metrics().set(preset.name + "_p_exp", loc.exp);
    run.metrics().set(preset.name + "_p_pop", loc.pop);
    run.metrics().set(preset.name + "_subcore_localisation", loc.pop);
    run.metrics().set(preset.name + "_sessions",
                      static_cast<std::int64_t>(trace.size()));

    for (std::size_t m = 0; m < report.models.size(); ++m) {
      std::vector<double> isp1_series;
      for (std::size_t d = 0; d < report.sim[m].size(); ++d) {
        isp1_series.push_back(report.sim[m][d][0]);
      }
      const auto band = summarize(isp1_series);
      bands.add_row({preset.name, report.models[m], fmt_pct(band.mean),
                     fmt_pct(band.min), fmt_pct(band.max),
                     fmt_pct(outcomes[m].sim_savings)});
      const std::string key = preset.name + "_isp1_";
      run.metrics().set(key + "mean_sim_savings_" + report.models[m],
                        band.mean);
      run.metrics().set(key + "min_sim_savings_" + report.models[m],
                        band.min);
      run.metrics().set(key + "max_sim_savings_" + report.models[m],
                        band.max);
      run.metrics().set(
          preset.name + "_system_sim_savings_" + report.models[m],
          outcomes[m].sim_savings);
      run.metrics().set(
          preset.name + "_system_theory_savings_" + report.models[m],
          outcomes[m].theory_savings);
    }
  }
  run.set_items(total_sessions, "sessions");

  std::cout << "\nISP-1 tree shape and Table III localisation "
               "probabilities per metro:\n";
  localisation.print(std::cout);
  std::cout << "\ndaily aggregate savings bands over " << days
            << " days (simulated):\n";
  bands.print(std::cout);
  std::cout << "\nthe sub-core localisation column (1/n_pop) is what drops "
               "in the sparse-ExP metro relative to London while its "
               "per-ExP localisation (1/n_exp) rises — fast ExP-level "
               "localisation puts its band on top. The fiber metro's "
               "dense ExP layer is the costliest tree at equal swarm "
               "capacity, but its 3-ISP market concentration enlarges "
               "per-ISP swarms and roughly cancels the tree effect.\n";
  return run.finish();
}
