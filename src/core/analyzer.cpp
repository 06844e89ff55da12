#include "core/analyzer.h"

#include <cmath>
#include <unordered_map>
#include <utility>

#include "util/error.h"
#include "util/parallel.h"

namespace cl {

namespace {

/// Accumulation key for per-(swarm, day) theory aggregation.
struct KeyDay {
  std::uint64_t packed = 0;
  std::uint32_t day = 0;
  friend bool operator==(const KeyDay&, const KeyDay&) = default;
};

struct KeyDayHash {
  std::size_t operator()(const KeyDay& k) const noexcept {
    std::uint64_t z = k.packed ^ (static_cast<std::uint64_t>(k.day) << 40);
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

/// Column-wise swarm_key_for: same key the simulator groups by, read from
/// the view's columns instead of a SessionRecord.
SwarmKey swarm_key_at(const TraceView& view, std::size_t i,
                      const SimConfig& config) {
  SwarmKey key;
  key.content = view.content()[i];
  if (config.isp_friendly) key.isp = view.isp()[i];
  if (config.split_by_bitrate) key.bitrate = view.bitrate()[i];
  return key;
}

}  // namespace

Analyzer::Analyzer(const Metro& metro, SimConfig sim_config,
                   std::vector<EnergyParams> models)
    : metro_(&metro), sim_config_(sim_config), models_(std::move(models)) {
  CL_EXPECTS(!models_.empty());
  for (const auto& m : models_) m.validate();
}

SavingsModel Analyzer::savings_model(std::size_t model_index,
                                     std::size_t isp_index) const {
  CL_EXPECTS(model_index < models_.size());
  return SavingsModel(models_[model_index], metro_->isp(isp_index));
}

SwarmExperiment Analyzer::analyze_swarm(const TraceView& view,
                                        std::size_t isp_for_theory) const {
  SimConfig config = sim_config_;
  config.collect_hourly = false;
  config.collect_per_user = false;
  config.collect_swarms = false;
  const SimResult result = HybridSimulator(*metro_, config).run(view);

  SwarmExperiment experiment;
  experiment.sessions = view.size();
  // Summed in start order, whatever the storage order, so the capacity
  // has the same bits on every data path.
  const std::span<const double> duration = view.duration();
  double watch = 0;
  for (std::size_t t = 0; t < view.size(); ++t) {
    watch += duration[view.position_of(t)];
  }
  experiment.capacity = view.span().value() > 0 ? watch / view.span().value()
                                                : 0;

  for (std::size_t m = 0; m < models_.size(); ++m) {
    const SavingsModel model = savings_model(m, isp_for_theory);
    const EnergyAccountant accountant{CostFunctions(models_[m])};
    ModelOutcome outcome;
    outcome.model = models_[m].name;
    outcome.sim_savings = accountant.savings(result.total);
    outcome.sim_offload = result.total.offload_fraction();
    outcome.theory_savings =
        model.savings(experiment.capacity, sim_config_.q_over_beta);
    outcome.theory_offload =
        model.offload(experiment.capacity, sim_config_.q_over_beta);
    experiment.models.push_back(std::move(outcome));
  }
  return experiment;
}

std::vector<std::vector<std::vector<double>>> Analyzer::theory_daily(
    const TraceView& view) const {
  const auto days = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(view.span().value() / 86400.0)));
  const std::size_t isps = metro_->isp_count();
  const std::span<const std::uint32_t> isp = view.isp();
  const std::span<const std::uint8_t> bitrate = view.bitrate();
  const std::span<const double> start = view.start();
  const std::span<const double> duration = view.duration();

  // Both passes walk the sessions in start order (view.position_of), so
  // a swarm-major view sums in the same order as a start-order one.
  //
  // Pass 1: watch-seconds per (swarm, day) -> per-swarm daily capacity.
  // Sharded fixed-chunk reduction: each chunk builds a private map, chunks
  // merge in chunk order, so every key's sum sees its contributions in the
  // same order regardless of SimConfig::threads.
  using WatchMap = std::unordered_map<KeyDay, double, KeyDayHash>;
  const WatchMap watch = parallel_chunked_reduce(
      view.size(), sim_config_.threads, [] { return WatchMap{}; },
      [&](WatchMap& acc, std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          const std::size_t i = view.position_of(t);
          const SwarmKey key = swarm_key_at(view, i, sim_config_);
          const auto day = static_cast<std::uint32_t>(start[i] / 86400.0);
          acc[KeyDay{key.packed(), day}] += duration[i];
        }
      },
      [](WatchMap& total, const WatchMap& chunk) {
        for (const auto& [key, seconds] : chunk) total[key] += seconds;
      });

  // Pre-built closed-form models per (energy column, ISP tree).
  std::vector<std::vector<SavingsModel>> model_grid;
  model_grid.reserve(models_.size());
  for (const auto& params : models_) {
    std::vector<SavingsModel> row;
    row.reserve(isps);
    for (std::size_t i = 0; i < isps; ++i) {
      row.emplace_back(params, metro_->isp(i));
    }
    model_grid.push_back(std::move(row));
  }

  // Pass 2: volume-weighted Eq. 12 per (model, day, isp), sharded with the
  // same deterministic chunk-order merge as pass 1.
  struct DailyGrid {
    std::vector<std::vector<std::vector<double>>> num;
    std::vector<std::vector<double>> den;
  };
  auto [num, den] = parallel_chunked_reduce(
      view.size(), sim_config_.threads,
      [&] {
        return DailyGrid{
            std::vector(models_.size(),
                        std::vector(days, std::vector<double>(isps, 0.0))),
            std::vector(days, std::vector<double>(isps, 0.0))};
      },
      [&](DailyGrid& acc, std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) {
          const std::size_t i = view.position_of(t);
          const SwarmKey key = swarm_key_at(view, i, sim_config_);
          const auto day = static_cast<std::uint32_t>(start[i] / 86400.0);
          const double capacity =
              watch.at(KeyDay{key.packed(), day}) / 86400.0;
          // β · duration — the same operand order as SessionRecord::volume.
          const double volume =
              (bitrate_of(static_cast<BitrateClass>(bitrate[i])) *
               Seconds{duration[i]})
                  .value();
          acc.den[day][isp[i]] += volume;
          for (std::size_t m = 0; m < models_.size(); ++m) {
            const double savings = model_grid[m][isp[i]].savings(
                capacity, sim_config_.q_over_beta);
            acc.num[m][day][isp[i]] += savings * volume;
          }
        }
      },
      [&](DailyGrid& total, const DailyGrid& chunk) {
        for (std::size_t m = 0; m < models_.size(); ++m) {
          for (std::size_t d = 0; d < days; ++d) {
            for (std::size_t i = 0; i < isps; ++i) {
              total.num[m][d][i] += chunk.num[m][d][i];
            }
          }
        }
        for (std::size_t d = 0; d < days; ++d) {
          for (std::size_t i = 0; i < isps; ++i) {
            total.den[d][i] += chunk.den[d][i];
          }
        }
      });
  for (std::size_t m = 0; m < models_.size(); ++m) {
    for (std::size_t d = 0; d < days; ++d) {
      for (std::size_t i = 0; i < isps; ++i) {
        num[m][d][i] = den[d][i] > 0 ? num[m][d][i] / den[d][i] : 0.0;
      }
    }
  }
  return num;
}

DailyReport Analyzer::daily_report(const TraceView& view) const {
  SimConfig config = sim_config_;
  config.collect_hourly = true;
  config.collect_per_user = false;
  config.collect_swarms = false;
  const SimResult result = HybridSimulator(*metro_, config).run(view);

  DailyReport report;
  report.theory = theory_daily(view);
  for (const auto& params : models_) {
    report.models.push_back(params.name);
    const EnergyAccountant accountant{CostFunctions(params)};
    report.sim.push_back(daily_savings(result, accountant));
  }
  return report;
}

std::vector<CarbonOutcome> Analyzer::carbon_report(
    const SimResult& result, const IntensityCurve& curve) const {
  // run() pads the grid to at least one row whenever collect_hourly was
  // set, so an empty grid means the precondition was not met — fail as
  // loudly as CarbonLedger's require_hourly_flows does.
  if (result.hourly.empty()) {
    throw InvalidArgument(
        "carbon_report needs the hourly grid: run the simulation with "
        "SimConfig::collect_hourly");
  }
  std::vector<CarbonOutcome> outcomes;
  outcomes.reserve(models_.size());
  for (const auto& params : models_) {
    const CarbonAccountant accountant{EnergyAccountant{CostFunctions(params)},
                                      curve};
    outcomes.push_back(accountant.assess(result.hourly));
  }
  return outcomes;
}

std::vector<AggregateOutcome> Analyzer::aggregate(
    const SimResult& result) const {
  // Swarms empty despite traffic having moved means collect_swarms was
  // off — the theory column would silently report 0 (a genuinely empty
  // trace is fine: everything is legitimately zero then).
  if (result.swarms.empty() && result.total.total().value() > 0) {
    throw InvalidArgument(
        "aggregate needs per-swarm results: run the simulation with "
        "SimConfig::collect_swarms");
  }
  // Volume-weighted Eq. 12 across swarms, every model in one sharded
  // pass with a deterministic fixed-chunk merge: each model's numerator
  // and the shared volume denominator sum over the same chunks, in the
  // same order, as a pass of their own would.
  std::vector<std::vector<SavingsModel>> per_isp(models_.size());
  for (std::size_t m = 0; m < models_.size(); ++m) {
    for (std::size_t i = 0; i < metro_->isp_count(); ++i) {
      per_isp[m].emplace_back(models_[m], metro_->isp(i));
    }
  }
  struct Sums {
    std::vector<double> num;  // per model
    double den = 0;
  };
  const Sums sums = parallel_chunked_reduce(
      result.swarms.size(), sim_config_.threads,
      [&] { return Sums{std::vector<double>(models_.size(), 0.0), 0.0}; },
      [&](Sums& acc, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto& swarm = result.swarms[i];
          const double volume = swarm.traffic.total().value();
          if (volume <= 0) continue;
          const std::size_t isp = swarm.key.has_isp() ? swarm.key.isp : 0;
          for (std::size_t m = 0; m < models_.size(); ++m) {
            acc.num[m] += per_isp[m][isp].savings(swarm.capacity,
                                                  sim_config_.q_over_beta) *
                          volume;
          }
          acc.den += volume;
        }
      },
      [](Sums& total, const Sums& chunk) {
        for (std::size_t m = 0; m < total.num.size(); ++m) {
          total.num[m] += chunk.num[m];
        }
        total.den += chunk.den;
      });

  std::vector<AggregateOutcome> outcomes;
  for (std::size_t m = 0; m < models_.size(); ++m) {
    const EnergyAccountant accountant{CostFunctions(models_[m])};
    AggregateOutcome outcome;
    outcome.model = models_[m].name;
    outcome.sim_savings = accountant.savings(result.total);
    outcome.offload = result.total.offload_fraction();
    outcome.baseline_energy = accountant.baseline(result.total.total()).total();
    outcome.hybrid_energy = accountant.hybrid(result.total).total();
    outcome.theory_savings = sums.den > 0 ? sums.num[m] / sums.den : 0.0;
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace cl
