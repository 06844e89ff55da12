// fig2_savings_vs_capacity — regenerates paper Fig. 2: energy savings
// estimated theoretically (Eq. 12 curve) and via simulation (dots), for
// exemplar highly popular / medium / unpopular content items, across the
// top-5 ISPs, for q/β ∈ {0.2, 0.4, 0.6, 0.8, 1.0}, under both energy
// parameter sets.
//
// The (tier, ISP, q/β) dot grid is 75 independent simulations, run in
// grid order with the simulator itself sharded across --threads workers
// (SimConfig::threads, replacing this bench's former bespoke grid
// sharding). Per-dot parallelism is bounded by the dot's sub-swarm count
// (bitrate split of one filtered content item), and the simulator's
// merge discipline keeps every dot bit-identical at any thread count.
#include <cmath>
#include <cstddef>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "core/analyzer.h"
#include "trace/filter.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cl;
  bench::Runner run("fig2", argc, argv);
  bench::banner("Fig. 2 — savings vs swarm capacity (theory curve + sim dots)",
                "paper: popular item saves 35-48% (Valancius) / 24-29% "
                "(Baliga); unpopular always < 10%");

  TraceConfig config = TraceConfig::london_month_scaled();
  config.threads = run.threads();
  bench::print_trace_scale(config);
  TraceGenerator gen(config, bench::metro());

  const char* tier_names[] = {"popular(100K)", "medium(10K)", "unpopular(1K)"};
  const std::vector<double> ratios{0.2, 0.4, 0.6, 0.8, 1.0};

  // Theory curves, printed once per model over a log capacity grid —
  // these are the black lines of Fig. 2.
  for (const auto& params : standard_params()) {
    std::cout << "\ntheory curve S(c) [" << params.name
              << ", ISP-1 tree], rows = q/b, cols = capacity:\n";
    std::vector<double> grid{0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100};
    std::vector<std::string> header{"q/b \\ c"};
    for (double c : grid) header.push_back(fmt(c, 2));
    TextTable curve(header);
    const SavingsModel model(params, bench::metro().isp(0));
    for (double r : ratios) {
      std::vector<double> row;
      for (double c : grid) row.push_back(model.savings(c, r));
      curve.add_row_numeric(fmt(r, 1), row, 3);
    }
    curve.print(std::cout);
  }

  // Simulation dots: one dot per (tier, ISP, q/β); compared against the
  // theory value at the measured capacity. Pre-filter the per-(tier, ISP)
  // traces; each dot's simulation is itself sharded across workers.
  const std::size_t isp_count = bench::metro().isp_count();
  std::vector<Trace> tier_traces;
  std::vector<std::vector<TraceView>> isp_views(3);
  for (std::uint32_t tier = 0; tier < 3; ++tier) {
    tier_traces.push_back(gen.generate_content(tier));
    isp_views[tier].reserve(isp_count);
    for (std::uint32_t isp = 0; isp < isp_count; ++isp) {
      isp_views[tier].push_back(TraceView::from_trace(
          filter_by_isp(tier_traces[tier], isp), run.threads()));
    }
  }

  struct Dot {
    std::uint32_t tier = 0;
    std::uint32_t isp = 0;
    double ratio = 0;
  };
  std::vector<Dot> jobs;
  for (std::uint32_t tier = 0; tier < 3; ++tier) {
    for (std::uint32_t isp = 0; isp < isp_count; ++isp) {
      for (double ratio : ratios) {
        jobs.push_back({tier, isp, ratio});
      }
    }
  }
  std::vector<SwarmExperiment> dots(jobs.size());
  double sessions_simulated = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Dot& dot = jobs[i];
    SimConfig sim_config;
    sim_config.q_over_beta = dot.ratio;
    sim_config.threads = run.threads();
    const Analyzer analyzer(bench::metro(), sim_config);
    dots[i] = analyzer.analyze_swarm(isp_views[dot.tier][dot.isp], dot.isp);
  }

  std::vector<double> sim_all, theo_all;
  std::size_t job = 0;
  for (std::uint32_t tier = 0; tier < 3; ++tier) {
    std::cout << "\n--- " << tier_names[tier] << ": "
              << tier_traces[tier].size() << " sessions/month ---\n";
    TextTable table({"ISP", "q/b", "capacity", "S sim (Val)", "S theo (Val)",
                     "S sim (Bal)", "S theo (Bal)"});
    for (std::uint32_t isp = 0; isp < isp_count; ++isp) {
      for (double ratio : ratios) {
        const SwarmExperiment& e = dots[job++];
        sessions_simulated += static_cast<double>(e.sessions);
        table.add_row({bench::metro().isp(isp).name(), fmt(ratio, 1),
                       fmt(e.capacity, 3), fmt(e.models[0].sim_savings, 4),
                       fmt(e.models[0].theory_savings, 4),
                       fmt(e.models[1].sim_savings, 4),
                       fmt(e.models[1].theory_savings, 4)});
        for (const auto& m : e.models) {
          sim_all.push_back(m.sim_savings);
          theo_all.push_back(m.theory_savings);
        }
      }
    }
    table.print(std::cout);
  }

  // Absolute gap statistics are more meaningful than relative ones here
  // (savings sit near zero for the unpopular tier).
  double abs_gap = 0;
  for (std::size_t i = 0; i < sim_all.size(); ++i) {
    abs_gap += std::abs(sim_all[i] - theo_all[i]);
  }
  abs_gap /= static_cast<double>(sim_all.size());
  const double r = pearson(sim_all, theo_all);
  std::cout << "\ntheory-vs-simulation agreement over all " << sim_all.size()
            << " dots:\n"
            << "  mean |S_sim - S_theo| = " << fmt(abs_gap, 4)
            << " (savings points); pearson r = " << fmt(r, 4) << "\n"
            << "paper's qualitative claim reproduced: theory curves are a "
               "good approximation of the simulated swarms.\n";

  // The dot of the paper's headline cell: popular tier, ISP-1, q/b = 1.
  const SwarmExperiment& headline = dots[ratios.size() - 1];
  run.metrics().set("dots", sim_all.size());
  run.metrics().set("mean_abs_gap", abs_gap);
  run.metrics().set("pearson_r", r);
  run.metrics().set("popular_isp1_capacity", headline.capacity);
  run.metrics().set("popular_isp1_sim_savings_valancius",
                    headline.models[0].sim_savings);
  run.metrics().set("popular_isp1_theory_savings_valancius",
                    headline.models[0].theory_savings);
  run.metrics().set("popular_isp1_sim_savings_baliga",
                    headline.models[1].sim_savings);
  run.metrics().set("popular_isp1_theory_savings_baliga",
                    headline.models[1].theory_savings);
  run.set_items(sessions_simulated, "sessions");
  return run.finish();
}
