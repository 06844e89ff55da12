#include "experiment/cell_runner.h"

#include <cmath>
#include <optional>

#include "carbon/intensity_curve.h"
#include "energy/energy_params.h"
#include "ext/adoption.h"
#include "ext/edge_cache.h"
#include "ext/preload.h"
#include "topology/metro_registry.h"
#include "trace/synthetic.h"
#include "trace/trace_view.h"

namespace cl {

namespace {

/// The intensity curve, resolved exactly as the CLI's --intensity flag
/// (cli_common.h intensity_from) — except a CSV path loads into `csv`,
/// because stages run concurrently and must not share caches.
[[nodiscard]] const IntensityCurve* cell_intensity(
    const CellConfig& config, std::optional<IntensityCurve>& csv) {
  if (config.intensity == "none") return nullptr;
  if (config.intensity == "metro") {
    return &IntensityRegistry::instance().default_for_metro(config.metro);
  }
  if (const IntensityCurve* preset =
          IntensityRegistry::instance().find(config.intensity)) {
    return preset;
  }
  csv = IntensityCurve::from_csv(config.intensity);
  return &*csv;
}

[[nodiscard]] Analyzer cell_analyzer(const CellConfig& config,
                                     unsigned threads) {
  SimConfig sim_config;
  sim_config.q_over_beta = config.qb;
  sim_config.threads = threads;
  return Analyzer(MetroRegistry::instance().get(config.metro), sim_config);
}

}  // namespace

TraceKey trace_key(const CellConfig& config) {
  return {config.metro,
          config.days,
          config.scale,
          config.seed,
          config.preload,
          config.preload ? config.preload_adoption : 0.0,
          config.preload ? config.preload_start_hour : 0.0,
          config.preload ? config.preload_end_hour : 0.0};
}

SimulationKey simulation_key(const CellConfig& config) {
  return {trace_key(config), config.qb, config.overload, config.intensity};
}

Trace make_cell_trace(const CellConfig& config, unsigned threads) {
  // The same scaled synthetic month a no---trace `cl simulate` generates
  // (cli_common.h load_trace), with the population multiplied by
  // the cell's scale knob.
  TraceConfig trace_config = TraceConfig::london_month_scaled(config.days);
  trace_config.metro = config.metro;
  trace_config.seed = config.seed;
  trace_config.threads = threads;
  trace_config.users = static_cast<std::uint32_t>(
      std::llround(trace_config.users * config.scale));
  Trace rows =
      TraceGenerator(trace_config, MetroRegistry::instance().get(config.metro))
          .generate();
  if (config.preload) {
    PreloadConfig preload;
    preload.adoption = config.preload_adoption;
    preload.window_start_hour = config.preload_start_hour;
    preload.window_end_hour = config.preload_end_hour;
    rows = apply_preload(rows, preload, config.seed);
  }
  return rows;
}

SimulateRun simulate_cell(const CellConfig& config, const Trace& rows,
                          unsigned threads) {
  // The shared pipeline (core/pipeline.h) `cl simulate` calls: a cell is
  // bit-identical to the standalone CLI run by construction. The
  // transpose lives only as long as this stage.
  std::optional<IntensityCurve> csv;
  return run_simulate(cell_analyzer(config, threads),
                      TraceView::from_trace(rows, threads),
                      cell_intensity(config, csv), config.overload);
}

CellOutcome finish_cell(const CellConfig& config, const Trace* rows,
                        const SimulateRun* run, unsigned threads) {
  CellOutcome outcome;
  const Metro& metro = MetroRegistry::instance().get(config.metro);

  if (rows != nullptr) {
    outcome.sessions = static_cast<double>(rows->size());
    outcome.metrics.set("sessions", outcome.sessions);
  }

  if (run != nullptr) {
    outcome.metrics.set("offload", run->result.offload());
    for (const AggregateOutcome& aggregate : run->aggregate) {
      outcome.metrics.set("savings_" + aggregate.model,
                          aggregate.sim_savings);
      outcome.metrics.set("theory_savings_" + aggregate.model,
                          aggregate.theory_savings);
    }
    if (run->config.overload) {
      outcome.metrics.set("overload_spill_gb",
                          run->result.overload_spill.value() / 8e9);
    }
    for (const CarbonOutcome& carbon : run->carbon) {
      outcome.metrics.set("carbon_savings_" + carbon.model,
                          carbon.carbon_savings);
      outcome.metrics.set("carbon_saved_g_" + carbon.model, carbon.saved_g);
    }

    const ScheduleMode mode = parse_schedule_mode(config.schedule);
    if (mode != ScheduleMode::kOff) {
      std::optional<IntensityCurve> csv;
      const CarbonScheduler scheduler(*cell_intensity(config, csv),
                                      ScheduleConfig{});
      SimConfig rerun = run->config;
      rerun.threads = threads;
      const ScheduleRun scheduling =
          run_schedule(cell_analyzer(config, threads), scheduler, mode,
                       run->result, *rows, config.seed, rerun);
      outcome.metrics.set(
          "schedule_hours_routed_away",
          static_cast<double>(scheduling.plan.hours_routed_away()));
      outcome.metrics.set("schedule_mean_added_latency_ms",
                          scheduling.plan.mean_added_latency_ms());
      outcome.metrics.set("schedule_scheduled_offload",
                          scheduling.scheduled(run->result).offload());
      for (const ScheduleOutcome& assessed : scheduling.outcomes) {
        outcome.metrics.set("schedule_reduction_" + assessed.model,
                            assessed.reduction);
        outcome.metrics.set("schedule_scheduled_g_" + assessed.model,
                            assessed.scheduled_g);
      }
    }
    outcome.sim = run->result;
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
        EdgeCacheSimulator(metro, cache_sim, cache_config).run(*rows);
    outcome.metrics.set("cache_hit_rate", cached.hit_rate());
    for (const auto& params : standard_params()) {
      outcome.metrics.set("cache_savings_" + params.name,
                          EdgeCacheSimulator::savings(cached, params));
    }
  }

  return outcome;
}

CellOutcome run_cell(const CellConfig& config, unsigned threads) {
  Trace rows;
  std::optional<SimulateRun> run;
  if (config.generates_trace()) rows = make_cell_trace(config, threads);
  if (config.simulate) run = simulate_cell(config, rows, threads);
  return finish_cell(config, config.generates_trace() ? &rows : nullptr,
                     run ? &*run : nullptr, threads);
}

}  // namespace cl
