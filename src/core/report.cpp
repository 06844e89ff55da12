#include "core/report.h"

#include "util/table.h"

namespace cl {

void print_trace_stats(std::ostream& out, const TraceStats& stats,
                       Seconds span) {
  TextTable table({"metric", "value"});
  table.add_row({"span (days)", fmt(span.value() / 86400.0, 1)});
  table.add_row({"sessions", fmt_count(stats.sessions)});
  table.add_row({"distinct users", fmt_count(stats.distinct_users)});
  table.add_row(
      {"distinct IP addresses", fmt_count(stats.distinct_households)});
  table.add_row({"distinct contents", fmt_count(stats.distinct_contents)});
  table.add_row({"total watch hours",
                 fmt_count(static_cast<std::uint64_t>(
                     stats.total_watch_time.hours()))});
  table.add_row(
      {"total volume (GB)", fmt(stats.total_volume.gigabytes(), 1)});
  table.add_row({"mean session (min)",
                 fmt(stats.mean_session_duration.minutes(), 1)});
  table.add_row({"mean concurrency", fmt(stats.mean_concurrency, 1)});
  table.print(out);
}

void print_swarm_experiment(std::ostream& out, const SwarmExperiment& e) {
  out << "sessions: " << e.sessions
      << "   measured capacity c = " << fmt(e.capacity, 3) << "\n";
  TextTable table({"model", "S (sim)", "S (theory)", "G (sim)", "G (theory)"});
  for (const auto& m : e.models) {
    table.add_row({m.model, fmt(m.sim_savings), fmt(m.theory_savings),
                   fmt(m.sim_offload), fmt(m.theory_offload)});
  }
  table.print(out);
}

void print_aggregate(std::ostream& out,
                     const std::vector<AggregateOutcome>& outcomes) {
  TextTable table({"model", "S (sim)", "S (theory)", "G", "baseline (kWh)",
                   "hybrid (kWh)"});
  for (const auto& o : outcomes) {
    table.add_row({o.model, fmt_pct(o.sim_savings), fmt_pct(o.theory_savings),
                   fmt_pct(o.offload), fmt(o.baseline_energy.kwh(), 2),
                   fmt(o.hybrid_energy.kwh(), 2)});
  }
  table.print(out);
}

void print_ledger_summary(std::ostream& out, const CarbonLedger& ledger) {
  TextTable table({"metric", "value"});
  table.add_row({"energy model", ledger.params().name});
  table.add_row({"users", fmt_count(ledger.entries().size())});
  table.add_row(
      {"carbon-free users", fmt_pct(ledger.fraction_carbon_free())});
  // CCT balances sit near the carbon-neutral point, where fixed 3-decimal
  // rounding would flatten them to 0.000 — shortest round-trip instead
  // (the trace writer's formatting policy).
  table.add_row({"median per-user CCT", fmt_shortest(ledger.median_cct())});
  table.add_row({"system CCT", fmt_shortest(ledger.system_cct())});
  table.add_row({"credits issued (kWh)",
                 fmt(ledger.total_credits().kwh(), 3)});
  table.add_row({"user energy (kWh)",
                 fmt(ledger.total_user_energy().kwh(), 3)});
  table.print(out);
}

void print_ledger_carbon(std::ostream& out, const CarbonLedger& ledger,
                         const IntensityCurve& curve) {
  TextTable table({"metric", "value"});
  table.add_row({"intensity preset",
                 curve.name() + " (mean " + fmt(curve.mean(), 1) +
                     " gCO2/kWh)"});
  table.add_row({"credits issued (kgCO2)",
                 fmt(ledger.total_credits_gco2(curve) / 1000.0, 3)});
  table.add_row({"user energy (kgCO2)",
                 fmt(ledger.total_user_gco2(curve) / 1000.0, 3)});
  table.add_row({"weighted system CCT",
                 fmt_shortest(ledger.weighted_system_cct(curve))});
  table.print(out);
}

void print_schedule_report(std::ostream& out, const CarbonScheduler& scheduler,
                           ScheduleMode mode, const SimResult& base,
                           const ScheduleRun& run) {
  const RoutingPlan& plan = run.plan;
  out << "schedule under intensity " << scheduler.user_curve().name() << ":\n";
  if (scheduler.inert()) {
    out << "  flat curve, no intensity signal: scheduler inert, results "
           "bit-identical to unscheduled\n";
  } else {
    if (schedule_preloads(mode)) {
      const PreloadConfig window = scheduler.trough_window();
      out << "  preload: trough window [" << fmt(window.window_start_hour, 0)
          << ":00, " << fmt(window.window_end_hour, 0) << ":00), adoption "
          << fmt_pct(window.adoption) << "\n";
    }
    if (schedule_routes(mode)) {
      out << "  routing: " << plan.hours_routed_away() << "/"
          << plan.hours.size() << " hours served off-home, mean added latency "
          << fmt(plan.mean_added_latency_ms(), 1) << " ms (bound "
          << fmt(scheduler.config().max_added_latency_ms, 0) << " ms)\n";
    }
  }
  out << "  offload G: " << fmt_pct(base.offload()) << " unscheduled -> "
      << fmt_pct(run.scheduled(base).offload()) << " scheduled\n";
  TextTable table({"model", "unscheduled (kgCO2)", "scheduled (kgCO2)",
                   "reduction"});
  for (const auto& o : run.outcomes) {
    table.add_row({o.model, fmt(o.unscheduled_g / 1000.0, 2),
                   fmt(o.scheduled_g / 1000.0, 2), fmt_pct(o.reduction)});
  }
  table.print(out);
}

void print_carbon_report(std::ostream& out,
                         const std::vector<CarbonOutcome>& outcomes) {
  TextTable table({"model", "baseline (kgCO2)", "hybrid (kgCO2)",
                   "saved (kgCO2)", "carbon savings", "energy savings"});
  for (const auto& o : outcomes) {
    table.add_row({o.model, fmt(o.baseline_g / 1000.0, 2),
                   fmt(o.hybrid_g / 1000.0, 2), fmt(o.saved_g / 1000.0, 2),
                   fmt_pct(o.carbon_savings), fmt_pct(o.energy_savings)});
  }
  table.print(out);
}

}  // namespace cl
