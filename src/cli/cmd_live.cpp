// cmd_live — flash-crowd scenario engine: synthesise a live-event burst
// (spike/ramp preset with churn and mid-event bitrate shifts), simulate
// it with the overload model on, and print the savings trajectory
// through the spike — including the CDN-spill phase where swarm demand
// exceeds the warm peers' upload capacity.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>

#include "cli/cli_common.h"
#include "cli/commands.h"
#include "core/analyzer.h"
#include "core/report.h"
#include "ext/live.h"
#include "util/table.h"

namespace cl::cli {

int cmd_live(const Args& args) {
  validate_intensity_flag(args);

  // Either replay a saved trace (both formats, metro stamp honoured) or
  // synthesise a preset scenario — a saved trace loads as in
  // cmd_simulate, so `cl live --out x.cltrace` then
  // `cl live --trace x.cltrace` agree.
  TraceView view;
  std::string scenario;
  if (args.has("trace")) {
    view = load_trace(args);
    scenario = "replayed trace";
  } else {
    const std::string preset = args.get_or("preset", "spike");
    const auto names = flash_crowd_preset_names();
    if (std::find(names.begin(), names.end(), preset) == names.end()) {
      std::string joined;
      for (const auto& name : names) {
        if (!joined.empty()) joined += ", ";
        joined += name;
      }
      throw ParseError("unknown flash-crowd preset '" + preset +
                       "' (valid: " + joined + ")");
    }
    const double days = days_from(args, 1.0, 0);
    // from_chars accepts "nan" and "inf", which no comparison below
    // rejects on its own.
    const double start = args.get_double("start", 7200.0);
    if (!std::isfinite(start) || start < 1800 || start >= days * 86400.0) {
      throw ParseError("--start must be >= 1800 s and inside the span");
    }
    const std::int64_t viewers = args.get_int("viewers", 20000);
    if (viewers < 1 || viewers > std::numeric_limits<std::uint32_t>::max()) {
      throw ParseError("--viewers must be in [1, 4294967295]");
    }
    const Metro& gen_metro = metro_from_flag(args);
    const FlashCrowdConfig config = flash_crowd_preset(
        preset, static_cast<std::uint32_t>(viewers), start, days);
    const Trace rows = generate_flash_crowd(
        gen_metro, config, seed_from(args, TraceConfig{}.seed));
    if (const auto out = args.get("out")) {
      write_trace_any(*out, rows, trace_format_from(args),
                      threads_from(args));
      std::cout << "wrote " << rows.size() << " session segments to " << *out
                << "\n";
    }
    view = TraceView::from_trace(rows, threads_from(args));
    scenario = "preset '" + preset + "'";
  }

  const Metro& metro = resolve_metro(args, view.metro_name());
  const IntensityCurve* intensity = intensity_from(args, metro.name());
  const Analyzer analyzer(metro, sim_config_from(args));
  std::cout << "\nflash crowd (" << scenario << "): " << view.size()
            << " session segments, span " << view.span().value() / 86400.0
            << " days, metro " << metro.name() << "\n\n";

  // The scenario engine's point is the overload phase, so the model is
  // always on here (plain `cl simulate --overload` replays a saved trace
  // with the identical accounting). Hourly collection drives the
  // trajectory table and the carbon weighting.
  SimConfig config = analyzer.sim_config();
  config.collect_swarms = true;
  config.collect_hourly = true;
  config.collect_per_user = false;
  config.overload = true;
  const SimResult result = HybridSimulator(metro, config).run(view, nullptr);

  print_aggregate(std::cout, analyzer.aggregate(result));

  const double spill_gb = result.overload_spill.value() / 8e9;
  const double peer_gb = result.total.peer_total().value() / 8e9;
  std::cout << "\noverload: " << fmt(spill_gb, 3)
            << " GB of peer demand spilled back to the CDN (peers carried "
            << fmt(peer_gb, 3) << " GB)\n";

  // Savings trajectory through the spike: one row per non-empty hour.
  std::vector<std::string> header{"hour", "GB", "offload", "spill GB"};
  for (const auto& params : analyzer.models()) header.push_back(params.name);
  TextTable table(header);
  for (std::size_t h = 0; h < result.hourly.size(); ++h) {
    TrafficBreakdown hour_traffic;
    for (const auto& isp_traffic : result.hourly[h]) {
      hour_traffic += isp_traffic;
    }
    if (hour_traffic.total().value() <= 0) continue;
    const double hour_spill = h < result.hourly_spill.size()
                                  ? result.hourly_spill[h].value() / 8e9
                                  : 0.0;
    std::vector<std::string> row{
        std::to_string(h), fmt(hour_traffic.total().value() / 8e9, 3),
        fmt_pct(hour_traffic.offload_fraction()), fmt(hour_spill, 3)};
    for (const auto& params : analyzer.models()) {
      const EnergyAccountant accountant{CostFunctions(params)};
      row.push_back(fmt_pct(accountant.savings(hour_traffic)));
    }
    table.add_row(std::move(row));
  }
  std::cout << "\nhourly trajectory (savings per energy model):\n";
  table.print(std::cout);

  if (intensity) {
    std::cout << "\ncarbon under intensity " << intensity->name() << " (mean "
              << intensity->mean() << " gCO2/kWh, min " << intensity->min()
              << ", max " << intensity->max() << "):\n";
    print_carbon_report(std::cout, analyzer.carbon_report(result, *intensity));
  }
  return 0;
}

}  // namespace cl::cli
