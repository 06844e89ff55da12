// analyzer.h — the top-level facade of the library.
//
// An Analyzer owns a metro topology, a simulator configuration and a list
// of energy-parameter columns, and answers the paper's questions about a
// workload trace's columns (trace/trace_view.h) or a finished run:
//
//  * analyze_swarm — one swarm's measured capacity and savings, simulation
//    vs closed form (the dots and curves of Fig. 2);
//  * daily_report  — per-day, per-ISP aggregate savings, simulation vs
//    closed form (Fig. 4);
//  * aggregate     — whole-run headline numbers (the 24–48 % claim);
//  * carbon_report — absolute gCO₂ under a grid-intensity curve.
//
// The last two read a SimResult: core/pipeline.h's run_simulate is the
// one simulate-then-report composition. Fig. 3's per-swarm samples are
// the run's `swarms` rows, priced with swarm_savings (sim/metrics.h).
// Row-structured traces are transposed once by the caller
// (TraceView::from_trace).
#pragma once

#include <string>
#include <vector>

#include "carbon/carbon_accountant.h"
#include "energy/energy_params.h"
#include "model/savings.h"
#include "sim/hybrid_sim.h"
#include "sim/metrics.h"
#include "topology/placement.h"
#include "trace/trace_view.h"

namespace cl {

/// Simulation-vs-theory outcome under one energy model.
struct ModelOutcome {
  std::string model;         ///< energy parameter column name
  double sim_savings = 0;    ///< Eq. 1 on simulated byte flows
  double theory_savings = 0; ///< Eq. 12 at the measured capacity
  double sim_offload = 0;    ///< G from simulated byte flows
  double theory_offload = 0; ///< G from Eq. 3
};

/// Result of analyzing one swarm (one content item within one ISP).
struct SwarmExperiment {
  double capacity = 0;       ///< measured Σ watch-time / span
  std::size_t sessions = 0;
  std::vector<ModelOutcome> models;
};

/// Per-day aggregate savings series (Fig. 4): series[model][day][isp].
struct DailyReport {
  std::vector<std::string> models;
  std::vector<std::vector<std::vector<double>>> sim;     ///< [model][day][isp]
  std::vector<std::vector<std::vector<double>>> theory;  ///< [model][day][isp]
};

/// Whole-trace headline numbers under one energy model.
struct AggregateOutcome {
  std::string model;
  double sim_savings = 0;
  double theory_savings = 0;  ///< capacity-weighted Eq. 12 across swarms
  double offload = 0;         ///< simulated G
  Energy baseline_energy;     ///< pure-CDN energy of the same volume
  Energy hybrid_energy;       ///< hybrid energy
};

/// Top-level facade combining simulator and analytical model.
class Analyzer {
 public:
  /// `metro` must outlive the analyzer. `models` defaults to the paper's
  /// two columns (Valancius, Baliga).
  Analyzer(const Metro& metro, SimConfig sim_config,
           std::vector<EnergyParams> models = standard_params());

  [[nodiscard]] const Metro& metro() const { return *metro_; }
  [[nodiscard]] const SimConfig& sim_config() const { return sim_config_; }
  [[nodiscard]] const std::vector<EnergyParams>& models() const {
    return models_;
  }

  /// Analyzes one swarm (the trace should be pre-filtered to one content
  /// item, and to one ISP when the theory comparison should use that ISP's
  /// tree — `isp_for_theory` selects which tree the closed form uses).
  [[nodiscard]] SwarmExperiment analyze_swarm(const TraceView& view,
                                              std::size_t isp_for_theory) const;

  /// Fig. 4 series: per-day, per-ISP savings, simulation vs theory.
  [[nodiscard]] DailyReport daily_report(const TraceView& view) const;

  /// Whole-run headline numbers per energy model, on a simulation result
  /// produced with collect_swarms (the theory column aggregates per
  /// swarm; throws cl::InvalidArgument when traffic moved but no swarms
  /// were collected).
  [[nodiscard]] std::vector<AggregateOutcome> aggregate(
      const SimResult& result) const;

  /// Absolute gCO₂ per energy model under one grid-intensity curve: each
  /// hour's energy weighted by the intensity at consumption time
  /// (src/carbon/). `result` must have been produced with collect_hourly;
  /// throws cl::InvalidArgument otherwise.
  [[nodiscard]] std::vector<CarbonOutcome> carbon_report(
      const SimResult& result, const IntensityCurve& curve) const;

  /// The closed-form model for one energy column and one ISP tree.
  [[nodiscard]] SavingsModel savings_model(std::size_t model_index,
                                           std::size_t isp_index) const;

 private:
  /// Theory daily aggregation: capacity-weighted Eq. 12 per (day, isp),
  /// computed column-wise from the view.
  [[nodiscard]] std::vector<std::vector<std::vector<double>>> theory_daily(
      const TraceView& view) const;

  const Metro* metro_;
  SimConfig sim_config_;
  std::vector<EnergyParams> models_;
};

}  // namespace cl
