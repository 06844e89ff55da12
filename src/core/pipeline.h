// pipeline.h — the paper's results in one composition: simulate the
// trace, aggregate per energy model (Eq. 1 vs Eq. 12), weight by grid
// intensity, then let the carbon scheduler act on the same curve. `cl
// simulate`, `cl ledger` and every experiment cell call these functions
// and only load, print or record around them, so they agree by
// construction.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "carbon/schedule.h"
#include "core/analyzer.h"

namespace cl {

/// One simulator run and the reports it feeds.
struct SimulateRun {
  SimConfig config;  ///< what the simulator ran with
  SimResult result;
  std::vector<AggregateOutcome> aggregate;  ///< one per analyzer model
  std::vector<CarbonOutcome> carbon;  ///< one per model; empty without a curve
};

/// Simulates `view` once, collecting swarms (the aggregate's theory
/// column), hourly grids iff `intensity` is given (the carbon weighting)
/// and no per-user bytes. `timing` passes through to HybridSimulator::run.
[[nodiscard]] SimulateRun run_simulate(const Analyzer& analyzer,
                                       const TraceView& view,
                                       const IntensityCurve* intensity,
                                       bool overload,
                                       SimPhaseTiming* timing = nullptr);

/// What the carbon scheduler did to one run.
struct ScheduleRun {
  /// The preload re-simulation; absent when the mode does not preload or
  /// the scheduler is inert (the flat no-op contract, DESIGN.md §11).
  std::optional<SimResult> preloaded;
  RoutingPlan plan;  ///< green routes, or all-home when the mode does not route
  std::vector<ScheduleOutcome> outcomes;  ///< one per analyzer model

  /// The run the schedule is priced on: the re-simulation, else `base`.
  [[nodiscard]] const SimResult& scheduled(const SimResult& base) const {
    return preloaded ? *preloaded : base;
  }
};

/// Schedules `base`, the unscheduled run of `rows`. A preloading mode
/// re-simulates the trough-shifted rows (drawn from `seed`) with `rerun`,
/// the caller's collect flags, so a ledger's re-run keeps per-user bytes.
[[nodiscard]] ScheduleRun run_schedule(const Analyzer& analyzer,
                                       const CarbonScheduler& scheduler,
                                       ScheduleMode mode,
                                       const SimResult& base,
                                       const Trace& rows, std::uint64_t seed,
                                       const SimConfig& rerun);

}  // namespace cl
