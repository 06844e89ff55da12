#include "experiment/cell_runner.h"

#include <cmath>
#include <optional>
#include <utility>

#include "carbon/intensity_curve.h"
#include "core/pipeline.h"
#include "energy/energy_params.h"
#include "ext/adoption.h"
#include "ext/edge_cache.h"
#include "ext/preload.h"
#include "topology/metro_registry.h"
#include "trace/synthetic.h"
#include "trace/trace_view.h"

namespace cl {

CellOutcome run_cell(const CellConfig& config, unsigned threads) {
  CellOutcome outcome;
  const Metro& metro = MetroRegistry::instance().get(config.metro);

  // The intensity curve, resolved exactly as the CLI's --intensity flag
  // (cli_common.h intensity_from) — except a CSV path loads into a local
  // curve, because cells run concurrently and must not share caches.
  std::optional<IntensityCurve> csv_curve;
  const IntensityCurve* intensity = nullptr;
  if (config.intensity == "metro") {
    intensity = &IntensityRegistry::instance().default_for_metro(config.metro);
  } else if (config.intensity != "none") {
    if (const IntensityCurve* preset =
            IntensityRegistry::instance().find(config.intensity)) {
      intensity = preset;
    } else {
      csv_curve = IntensityCurve::from_csv(config.intensity);
      intensity = &*csv_curve;
    }
  }

  // The trace: the same scaled synthetic month a no---trace `cl simulate`
  // generates (cli_common.h load_or_generate), with the population
  // multiplied by the cell's scale knob.
  Trace rows;
  if (config.simulate || config.edge_cache > 0) {
    TraceConfig trace_config = TraceConfig::london_month_scaled(config.days);
    trace_config.metro = config.metro;
    trace_config.seed = config.seed;
    trace_config.threads = threads;
    trace_config.users = static_cast<std::uint32_t>(
        std::llround(trace_config.users * config.scale));
    rows = TraceGenerator(trace_config, metro).generate();
    if (config.preload) {
      PreloadConfig preload;
      preload.adoption = config.preload_adoption;
      preload.window_start_hour = config.preload_start_hour;
      preload.window_end_hour = config.preload_end_hour;
      rows = apply_preload(rows, preload, config.seed);
    }
    outcome.sessions = static_cast<double>(rows.size());
    outcome.metrics.set("sessions", outcome.sessions);
  }

  if (config.simulate) {
    // The shared pipeline (core/pipeline.h) `cl simulate` calls: a cell
    // is bit-identical to the standalone CLI run by construction.
    SimConfig sim_config;
    sim_config.q_over_beta = config.qb;
    sim_config.threads = threads;
    const Analyzer analyzer(metro, sim_config);
    SimulateRun run =
        run_simulate(analyzer, TraceView::from_trace(rows, threads),
                     intensity, config.overload);

    outcome.metrics.set("offload", run.result.offload());
    for (const AggregateOutcome& aggregate : run.aggregate) {
      outcome.metrics.set("savings_" + aggregate.model,
                          aggregate.sim_savings);
      outcome.metrics.set("theory_savings_" + aggregate.model,
                          aggregate.theory_savings);
    }
    if (run.config.overload) {
      outcome.metrics.set("overload_spill_gb",
                          run.result.overload_spill.value() / 8e9);
    }
    for (const CarbonOutcome& carbon : run.carbon) {
      outcome.metrics.set("carbon_savings_" + carbon.model,
                          carbon.carbon_savings);
      outcome.metrics.set("carbon_saved_g_" + carbon.model, carbon.saved_g);
    }

    const ScheduleMode mode = parse_schedule_mode(config.schedule);
    if (mode != ScheduleMode::kOff) {
      const CarbonScheduler scheduler(*intensity, ScheduleConfig{});
      const ScheduleRun scheduling = run_schedule(
          analyzer, scheduler, mode, run.result, rows, config.seed, run.config);
      outcome.metrics.set(
          "schedule_hours_routed_away",
          static_cast<double>(scheduling.plan.hours_routed_away()));
      outcome.metrics.set("schedule_mean_added_latency_ms",
                          scheduling.plan.mean_added_latency_ms());
      outcome.metrics.set("schedule_scheduled_offload",
                          scheduling.scheduled(run.result).offload());
      for (const ScheduleOutcome& assessed : scheduling.outcomes) {
        outcome.metrics.set("schedule_reduction_" + assessed.model,
                            assessed.reduction);
        outcome.metrics.set("schedule_scheduled_g_" + assessed.model,
                            assessed.scheduled_g);
      }
    }
    outcome.sim = std::move(run.result);
  }

  if (config.adoption > 0) {
    // The incentive fixed point per energy model on ISP 0's tree
    // (experiments/ablation_adoption.json sweeps the tiers).
    for (const auto& params : standard_params()) {
      const AdoptionModel model(SavingsModel(params, metro.isp(0)));
      AdoptionConfig adoption;
      adoption.swarm_capacity = config.adoption;
      adoption.q_over_beta = config.qb;
      adoption.uniform_thresholds(2000, -0.5, 0.5);
      const AdoptionResult result = model.solve(adoption);
      outcome.metrics.set("participation_" + params.name,
                          result.participation);
      outcome.metrics.set("adoption_cct_" + params.name, result.cct);
      outcome.metrics.set("adoption_offload_" + params.name, result.offload);
      outcome.metrics.set("adoption_savings_" + params.name, result.savings);
    }
  }

  if (config.edge_cache > 0) {
    // ExP LRU caches (experiments/ablation_edge_cache.json sweeps the
    // sizes); the miss simulation collects no metrics.
    SimConfig cache_sim;
    cache_sim.q_over_beta = config.qb;
    cache_sim.threads = threads;
    cache_sim.collect_hourly = false;
    cache_sim.collect_per_user = false;
    cache_sim.collect_swarms = false;
    EdgeCacheConfig cache_config;
    cache_config.capacity_per_exp = config.edge_cache;
    cache_config.misses_use_p2p = config.edge_cache_p2p;
    const EdgeCacheOutcome cached =
        EdgeCacheSimulator(metro, cache_sim, cache_config).run(rows);
    outcome.metrics.set("cache_hit_rate", cached.hit_rate());
    for (const auto& params : standard_params()) {
      outcome.metrics.set("cache_savings_" + params.name,
                          EdgeCacheSimulator::savings(cached, params));
    }
  }

  return outcome;
}

}  // namespace cl
