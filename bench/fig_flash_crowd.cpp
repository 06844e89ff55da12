// fig_flash_crowd — the flash-crowd scenario experiment: a live-event
// spike (arrival burst, churn with rejoin, mid-event bitrate shift)
// simulated with the overload model on, emitting the CCT and savings
// trajectories through the spike — including the overload phase where
// swarm demand exceeds the warm members' upload capacity and the excess
// spills back to the CDN.
//
// The bench also pins the overload accounting's determinism contract:
// the run repeats at --threads 1/2/7/<requested> and every traffic lane,
// the total spill, and the per-hour spill grid must be bit-identical
// (metric `overload_threads_identical` = 1, gated in CI). A companion
// overload-off run checks conservation: the spill only *moves* bits from
// the peer lanes to the server lane, so total delivered volume matches
// to FP rounding (`total_bits_conserved` = 1).
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "ext/live.h"
#include "model/carbon_credit.h"
#include "sim/hybrid_sim.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cl;
  std::uint32_t viewers = 20000;
  std::string preset = "spike";
  double days = 1.0;
  double start_s = 7200.0;
  std::uint64_t seed = 42;
  bench::Runner run("fig_flash_crowd", argc, argv, [&](const Args& args) {
    viewers = static_cast<std::uint32_t>(
        args.get_int("viewers", static_cast<std::int64_t>(viewers)));
    preset = args.get_or("preset", preset);
    days = args.get_double("days", days);
    start_s = args.get_double("start", start_s);
    seed = static_cast<std::uint64_t>(
        args.get_int("seed", static_cast<std::int64_t>(seed)));
  });
  bench::banner(
      "flash crowd — savings/CCT trajectory through a live-event spike",
      "overload model on: peer demand above warm upload capacity spills "
      "back to the CDN, bit-identically at every thread count");

  const Metro& metro = bench::metro();
  const FlashCrowdConfig config =
      flash_crowd_preset(preset, viewers, start_s, days);
  const Trace trace = generate_flash_crowd(metro, config, seed);
  run.set_items(static_cast<double>(trace.size()), "sessions");
  std::cout << "scenario: preset '" << preset << "', " << viewers
            << " expected viewers, event at " << start_s << " s, "
            << trace.size() << " session segments (seed " << seed << ")\n";

  SimConfig sim_config;
  sim_config.collect_swarms = false;
  sim_config.collect_per_user = false;
  sim_config.collect_hourly = true;
  sim_config.overload = true;

  // The determinism contract: every thread count yields the same bits.
  const TraceView view = TraceView::from_trace(trace, run.threads());
  const std::vector<unsigned> thread_counts{1, 2, 7, run.threads()};
  std::vector<SimResult> results;
  for (unsigned threads : thread_counts) {
    sim_config.threads = threads;
    results.push_back(HybridSimulator(metro, sim_config).run(view));
  }
  const SimResult& result = results.front();
  bool identical = true;
  for (const SimResult& other : results) {
    identical = identical && other.total.server == result.total.server &&
                other.total.peer == result.total.peer &&
                other.total.cross_isp == result.total.cross_isp &&
                other.overload_spill == result.overload_spill &&
                other.hourly_spill == result.hourly_spill;
  }
  run.metrics().set("overload_threads_identical",
                    static_cast<std::int64_t>(identical ? 1 : 0));

  // Conservation: overload only moves bits between lanes, so total
  // delivered volume matches the uncapped run to FP rounding (the lane
  // redistribution rounds per peer, so bitwise equality is not expected).
  sim_config.overload = false;
  sim_config.threads = run.threads();
  const SimResult baseline = HybridSimulator(metro, sim_config).run(view);
  const double conservation_rel_error =
      std::abs(result.total.total().value() - baseline.total.total().value()) /
      baseline.total.total().value();
  run.metrics().set("conservation_rel_error", conservation_rel_error);
  run.metrics().set(
      "total_bits_conserved",
      static_cast<std::int64_t>(conservation_rel_error < 1e-9 ? 1 : 0));

  const double spill_gb = result.overload_spill.value() / 8e9;
  run.metrics().set("spill_gb", spill_gb);
  run.metrics().set("offload", result.offload());
  run.metrics().set("offload_no_overload", baseline.offload());
  std::cout << "\noverload spill: " << fmt(spill_gb, 3)
            << " GB bounced to the CDN; offload " << fmt_pct(result.offload())
            << " (vs " << fmt_pct(baseline.offload())
            << " with unlimited peer upload)\n";

  // The trajectory: per-hour volume, offload, spill, savings and CCT.
  const auto models = standard_params();
  std::vector<std::string> header{"hour", "GB", "offload", "spill GB"};
  for (const auto& params : models) {
    header.push_back("S " + params.name);
    header.push_back("CCT " + params.name);
  }
  TextTable table(header);
  std::vector<double> hourly_gb, hourly_offload, hourly_spill_gb;
  std::vector<std::vector<double>> hourly_savings(models.size());
  std::vector<std::vector<double>> hourly_cct(models.size());
  for (std::size_t h = 0; h < result.hourly.size(); ++h) {
    TrafficBreakdown hour_traffic;
    for (const auto& isp_traffic : result.hourly[h]) {
      hour_traffic += isp_traffic;
    }
    if (hour_traffic.total().value() <= 0) continue;
    const double gb = hour_traffic.total().value() / 8e9;
    const double offload = hour_traffic.offload_fraction();
    const double hour_spill = h < result.hourly_spill.size()
                                  ? result.hourly_spill[h].value() / 8e9
                                  : 0.0;
    hourly_gb.push_back(gb);
    hourly_offload.push_back(offload);
    hourly_spill_gb.push_back(hour_spill);
    std::vector<std::string> row{std::to_string(h), fmt(gb, 3),
                                 fmt_pct(offload), fmt(hour_spill, 3)};
    for (std::size_t m = 0; m < models.size(); ++m) {
      const EnergyAccountant accountant{CostFunctions(models[m])};
      const double savings = accountant.savings(hour_traffic);
      const double cct = cct_from_offload(offload, models[m]);
      hourly_savings[m].push_back(savings);
      hourly_cct[m].push_back(cct);
      row.push_back(fmt_pct(savings));
      row.push_back(fmt(cct, 3));
    }
    table.add_row(std::move(row));
  }
  std::cout << "\ntrajectory through the spike (non-empty hours):\n";
  table.print(std::cout);
  std::cout << "\nthe spike hour carries nearly all traffic at high "
               "offload, and is where the spill concentrates: the crowd's "
               "newest joiners demand before they can serve.\n";

  run.metrics().set("hourly_gb", hourly_gb);
  run.metrics().set("hourly_offload", hourly_offload);
  run.metrics().set("hourly_spill_gb", hourly_spill_gb);
  for (std::size_t m = 0; m < models.size(); ++m) {
    run.metrics().set("hourly_savings_" + models[m].name, hourly_savings[m]);
    run.metrics().set("hourly_cct_" + models[m].name, hourly_cct[m]);
    const EnergyAccountant accountant{CostFunctions(models[m])};
    run.metrics().set("savings_" + models[m].name,
                      accountant.savings(result.total));
  }
  return run.finish();
}
