// fig4_daily_savings — regenerates paper Fig. 4: aggregate daily energy
// savings across ISPs over a month, data-driven simulation (sim.) vs the
// analytical model (theo.), for both energy parameter sets.
//
// The paper plots ISP-1, ISP-4 and ISP-5 and reports ~30 % (Valancius) /
// ~18 % (Baliga) average savings for the biggest ISP.
//
// Paper-scale runs: --paper-scale generates the full 3.3 M-user /
// ~23.5 M-session month in-process, and --trace PATH replays a
// pregenerated trace instead (use `cl generate --preset paper --format
// binary` once, then reload the .cltrace in seconds per run).
#include <iostream>
#include <string>

#include "bench_common.h"
#include "bench_json.h"
#include "core/pipeline.h"
#include "trace/trace_format.h"
#include "trace/trace_view.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cl;
  std::string trace_path;
  bool paper_scale = false;
  bench::Runner run(
      "fig4", argc, argv,
      [&](const Args& args) {
        trace_path = args.get_or("trace", "");
        paper_scale = args.has("paper-scale");
      },
      {"paper-scale"});
  bench::banner("Fig. 4 — daily aggregate savings per ISP (sim vs theory)",
                "paper: ~30% (Valancius) / ~18% (Baliga) for the biggest "
                "ISP, stable across the month");

  // Pregenerated `.cltrace` input is consumed zero-copy: the analyzer
  // and simulator sweep the mmap'd column blocks directly, no
  // row materialization at any point. CSV and generated workloads
  // transpose into an owned SoA view once.
  TraceView view;
  if (!trace_path.empty()) {
    if (sniff_trace_binary(trace_path)) {
      view = TraceView::open_binary(trace_path, run.threads());
    } else {
      view = TraceView::from_trace(
          read_trace_any(trace_path, TraceFormat::kAuto, run.threads()),
          run.threads());
    }
    std::cout << "workload: " << view.size() << " sessions, "
              << view.span().value() / 86400.0 << " days, loaded from "
              << trace_path << (view.zero_copy() ? " (zero-copy)" : "")
              << "\n\n";
  } else {
    TraceConfig config = paper_scale ? TraceConfig::london_month_paper()
                                     : TraceConfig::london_month_scaled();
    config.threads = run.threads();
    bench::print_trace_scale(config);
    view = TraceView::from_trace(
        TraceGenerator(config, bench::metro()).generate(), run.threads());
  }
  run.set_items(static_cast<double>(view.size()), "sessions");

  SimConfig sim_config;
  sim_config.threads = run.threads();
  const Analyzer analyzer(bench::metro(), sim_config);
  const auto report = analyzer.daily_report(view);

  const std::size_t isps[] = {0, 3, 4};  // ISP-1, ISP-4, ISP-5 as in Fig. 4
  for (std::size_t m = 0; m < report.models.size(); ++m) {
    std::cout << "\n" << report.models[m]
              << " — daily savings (columns: sim. and theo. per ISP):\n";
    TextTable table({"day", "ISP-1 sim", "ISP-1 theo", "ISP-4 sim",
                     "ISP-4 theo", "ISP-5 sim", "ISP-5 theo"});
    for (std::size_t d = 0; d < report.sim[m].size(); ++d) {
      std::vector<std::string> row{std::to_string(d + 1)};
      for (std::size_t isp : isps) {
        row.push_back(fmt(report.sim[m][d][isp], 4));
        row.push_back(fmt(report.theory[m][d][isp], 4));
      }
      table.add_row(row);
    }
    table.print(std::cout);

    // Month averages + agreement, per ISP.
    std::cout << "month averages (" << report.models[m] << "):\n";
    for (std::size_t isp = 0; isp < bench::metro().isp_count(); ++isp) {
      std::vector<double> sim_series, theo_series;
      for (std::size_t d = 0; d < report.sim[m].size(); ++d) {
        sim_series.push_back(report.sim[m][d][isp]);
        theo_series.push_back(report.theory[m][d][isp]);
      }
      const auto sim_summary = summarize(sim_series);
      const auto theo_summary = summarize(theo_series);
      const double mare = mean_abs_relative_error(sim_series, theo_series);
      std::cout << "  " << bench::metro().isp(isp).name() << ": sim "
                << fmt_pct(sim_summary.mean) << " (min "
                << fmt_pct(sim_summary.min) << ", max "
                << fmt_pct(sim_summary.max) << "), theory "
                << fmt_pct(theo_summary.mean) << ", MARE "
                << fmt_pct(mare) << "\n";
      if (isp == 0) {
        run.metrics().set("isp1_mean_sim_savings_" + report.models[m],
                          sim_summary.mean);
        run.metrics().set("isp1_mean_theory_savings_" + report.models[m],
                          theo_summary.mean);
        run.metrics().set("isp1_mare_" + report.models[m], mare);
      }
    }
  }

  std::cout << "\nwhole-system headline (paper: 24-48% depending on model "
               "and factors):\n";
  const auto outcomes = run_simulate(analyzer, view, nullptr, false).aggregate;
  for (const auto& o : outcomes) {
    std::cout << "  " << o.model << ": sim " << fmt_pct(o.sim_savings)
              << ", theory " << fmt_pct(o.theory_savings) << ", offload G = "
              << fmt_pct(o.offload) << "\n";
    run.metrics().set("system_sim_savings_" + o.model, o.sim_savings);
    run.metrics().set("system_theory_savings_" + o.model, o.theory_savings);
    run.metrics().set("system_offload_" + o.model, o.offload);
  }
  return run.finish();
}
