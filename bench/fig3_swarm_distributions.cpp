// fig3_swarm_distributions — regenerates paper Fig. 3: the CCDF of
// per-swarm capacities (left) and of per-swarm energy savings (right)
// across the whole content catalogue, plus the paper's headline skew
// numbers (median per-item savings ~2 %; the top-1 % of items contribute
// >21 % / >33 % of all saved energy under Baliga / Valancius).
#include <algorithm>
#include <iostream>
#include <map>
#include <numeric>

#include "bench_common.h"
#include "bench_json.h"
#include "core/analyzer.h"
#include "util/histogram.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cl;
  bench::Runner run("fig3", argc, argv);
  bench::banner("Fig. 3 — per-swarm capacity & savings distributions",
                "paper: few popular items, long unpopular tail; median "
                "per-item savings ~2%");

  TraceConfig config = TraceConfig::london_month_scaled();
  config.threads = run.threads();
  bench::print_trace_scale(config);
  TraceGenerator gen(config, bench::metro());
  const Trace trace = gen.generate();
  run.set_items(static_cast<double>(trace.size()), "sessions");

  // The paper's Fig. 3 is per *content item*: aggregate the simulator's
  // (content, ISP, bitrate) swarms back to content granularity.
  SimConfig sim_config;
  sim_config.threads = run.threads();
  const Analyzer analyzer(bench::metro(), sim_config);
  const SimResult result =
      HybridSimulator(bench::metro(), sim_config)
          .run(TraceView::from_trace(trace, run.threads()));
  std::map<std::uint32_t, TrafficBreakdown> per_content_traffic;
  std::map<std::uint32_t, double> per_content_capacity;
  for (const auto& swarm : result.swarms) {
    per_content_traffic[swarm.key.content] += swarm.traffic;
    per_content_capacity[swarm.key.content] += swarm.capacity;
  }
  std::cout << "content items observed: " << per_content_traffic.size()
            << " (sub-swarms simulated: " << result.swarms.size() << ")\n";
  run.metrics().set("content_items", per_content_traffic.size());
  run.metrics().set("sub_swarms", result.swarms.size());

  std::vector<double> capacities;
  capacities.reserve(per_content_capacity.size());
  for (const auto& [content, capacity] : per_content_capacity) {
    capacities.push_back(capacity);
  }
  std::cout << "\nCCDF of per-item swarm capacity (Fig. 3 left):\n";
  TextTable cap_table({"capacity", "CCDF"});
  for (const auto& p : thin(empirical_ccdf(capacities), 20)) {
    cap_table.add_row({fmt_sci(p.x, 2), fmt_sci(p.y, 3)});
  }
  cap_table.print(std::cout);

  for (const auto& params : analyzer.models()) {
    const EnergyAccountant accountant{CostFunctions(params)};
    std::vector<double> savings;
    std::vector<double> saved_energy;
    double total_saved = 0;
    savings.reserve(per_content_traffic.size());
    for (const auto& [content, traffic] : per_content_traffic) {
      savings.push_back(accountant.savings(traffic));
      const double saved =
          accountant.baseline(traffic.total()).total().value() -
          accountant.hybrid(traffic).total().value();
      saved_energy.push_back(saved);
      total_saved += saved;
    }

    std::cout << "\nCCDF of per-item energy savings (Fig. 3 right, "
              << params.name << "):\n";
    TextTable s_table({"savings", "CCDF"});
    for (const auto& p : thin(empirical_ccdf(savings), 16)) {
      s_table.add_row({fmt(p.x, 4), fmt_sci(p.y, 3)});
    }
    s_table.print(std::cout);

    std::sort(savings.begin(), savings.end());
    const double median_savings = quantile_sorted(savings, 0.5);
    std::cout << "median per-item savings (" << params.name
              << "): " << fmt_pct(median_savings) << "  (paper: ~2%)\n";

    // Top-1 % share of total saved energy (paper: top-1 % of items obtain
    // >33 % of savings under Valancius, >21 % under Baliga).
    std::sort(saved_energy.begin(), saved_energy.end(), std::greater<>());
    const auto top = std::max<std::size_t>(1, saved_energy.size() / 100);
    const double top_share =
        std::accumulate(saved_energy.begin(),
                        saved_energy.begin() + static_cast<long>(top), 0.0) /
        total_saved;
    std::cout << "top-1% items' share of all saved energy (" << params.name
              << "): " << fmt_pct(top_share)
              << "  (paper: >33% Valancius / >21% Baliga; concentration is "
                 "higher at our reduced catalogue scale)\n";
    run.metrics().set("median_item_savings_" + params.name, median_savings);
    run.metrics().set("top1pct_saved_energy_share_" + params.name, top_share);
  }
  return run.finish();
}
