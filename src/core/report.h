// report.h — human-readable rendering of analyzer results.
//
// Shared by the examples and the bench harness so the library's outputs
// look the same everywhere.
#pragma once

#include <ostream>
#include <vector>

#include "core/carbon_ledger.h"
#include "core/pipeline.h"
#include "trace/trace_stats.h"

namespace cl {

/// Prints a Table-I-style description of a trace.
void print_trace_stats(std::ostream& out, const TraceStats& stats,
                       Seconds span);

/// Prints one swarm's simulation-vs-theory outcome.
void print_swarm_experiment(std::ostream& out, const SwarmExperiment& e);

/// Prints the whole-trace headline numbers.
void print_aggregate(std::ostream& out,
                     const std::vector<AggregateOutcome>& outcomes);

/// Prints the carbon ledger summary (not the full per-user list).
void print_ledger_summary(std::ostream& out, const CarbonLedger& ledger);

/// Prints the ledger's intensity-weighted totals: absolute gCO₂ credits
/// and consumption plus the weighted system CCT under `curve`.
void print_ledger_carbon(std::ostream& out, const CarbonLedger& ledger,
                         const IntensityCurve& curve);

/// Prints the per-model gCO₂ outcomes of a run under one intensity curve
/// (Analyzer::carbon_report).
void print_carbon_report(std::ostream& out,
                         const std::vector<CarbonOutcome>& outcomes);

/// Prints the scheduling section of `run` over the unscheduled `base`: the
/// active levers (trough preload window, routing plan stats), the offload
/// shift, and the per-model scheduled-vs-unscheduled gram outcomes. An
/// inert (flat) scheduler prints its no-op note instead of decisions.
void print_schedule_report(std::ostream& out, const CarbonScheduler& scheduler,
                           ScheduleMode mode, const SimResult& base,
                           const ScheduleRun& run);

}  // namespace cl
