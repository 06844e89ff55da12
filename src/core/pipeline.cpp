#include "core/pipeline.h"

#include "energy/accounting.h"
#include "energy/cost_functions.h"

namespace cl {

SimulateRun run_simulate(const Analyzer& analyzer, const TraceView& view,
                         const IntensityCurve* intensity, bool overload,
                         SimPhaseTiming* timing) {
  SimulateRun run;
  run.config = analyzer.sim_config();
  run.config.collect_swarms = true;
  run.config.collect_hourly = intensity != nullptr;
  run.config.collect_per_user = false;
  run.config.overload = overload;
  run.result = HybridSimulator(analyzer.metro(), run.config).run(view, timing);
  run.aggregate = analyzer.aggregate(run.result);
  if (intensity) run.carbon = analyzer.carbon_report(run.result, *intensity);
  return run;
}

ScheduleRun run_schedule(const Analyzer& analyzer,
                         const CarbonScheduler& scheduler, ScheduleMode mode,
                         const SimResult& base, const Trace& rows,
                         std::uint64_t seed, const SimConfig& rerun) {
  ScheduleRun run;
  if (schedule_preloads(mode) && !scheduler.inert()) {
    run.preloaded = HybridSimulator(analyzer.metro(), rerun)
                        .run(TraceView::from_trace(
                            scheduler.schedule_preload(rows, seed),
                            rerun.threads));
  }
  const SimResult& scheduled = run.scheduled(base);
  const std::string& metro = analyzer.metro().name();
  const std::size_t home = metro_registry_index(metro);
  const std::size_t hours = scheduled.hourly.size();
  run.plan = schedule_routes(mode)
                 ? scheduler.plan_routes(
                       serving_curves(metro, scheduler.user_curve()), home,
                       hours)
                 : scheduler.home_plan(home, hours);
  for (const EnergyParams& params : analyzer.models()) {
    run.outcomes.push_back(scheduler.assess(
        base.hourly, scheduled.hourly,
        EnergyAccountant{CostFunctions(params)}, run.plan));
  }
  return run;
}

}  // namespace cl
