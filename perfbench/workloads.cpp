#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "carbon/intensity_curve.h"
#include "carbon/schedule.h"
#include "core/analyzer.h"
#include "core/carbon_ledger.h"
#include "energy/cost_functions.h"
#include "experiment/cell_runner.h"
#include "experiment/experiment_runner.h"
#include "ext/edge_cache.h"
#include "ext/live.h"
#include "ext/preload.h"
#include "topology/metro_registry.h"
#include "trace/swarm_index.h"
#include "trace/synthetic.h"
#include "trace/trace_binary.h"
#include "trace/trace_view.h"
#include "util/error.h"

namespace perfbench {

// The trace generator needs at least one day.
Scale Scale::full() { return {1.25, 1.0, 40000, 1.0, 1.0}; }
Scale Scale::tiny() { return {1.0, 1.0, 2000, 1.0, 0.05}; }

namespace {

constexpr const char* kMetro = "london_top5";
constexpr const char* kCurve = "uk_2018";

[[nodiscard]] const cl::Metro& metro() {
  return cl::MetroRegistry::instance().get(kMetro);
}

[[nodiscard]] const cl::IntensityCurve& curve() {
  return cl::IntensityRegistry::instance().get(kCurve);
}

[[nodiscard]] double file_mb(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / (1 << 20);
}

/// HybridSimulator::run inside a "sim.run" span, adding its phase split
/// to the context's sink (run() overwrites the sink it is given).
[[nodiscard]] cl::SimResult run_sim(const Context& ctx,
                                    const cl::SimConfig& config,
                                    const cl::TraceView& view) {
  cl::SimPhaseTiming timing;
  cl::SimResult result = traced(ctx.scope, "sim.run", [&] {
    return cl::HybridSimulator(metro(), config)
        .run(view, ctx.timing != nullptr ? &timing : nullptr);
  });
  if (ctx.timing != nullptr) {
    cl::SimPhaseTiming& sum = *ctx.timing;
    sum.group_seconds += timing.group_seconds;
    sum.sweep_seconds += timing.sweep_seconds;
    sum.merge_seconds += timing.merge_seconds;
    sum.sweep_gather1_seconds += timing.sweep_gather1_seconds;
    sum.sweep_gather2_seconds += timing.sweep_gather2_seconds;
    sum.sweep_events_seconds += timing.sweep_events_seconds;
    sum.sweep_allocate_seconds += timing.sweep_allocate_seconds;
  }
  return result;
}

void add_aggregate(Output& out,
                   const std::vector<cl::AggregateOutcome>& aggregate) {
  for (const cl::AggregateOutcome& a : aggregate) {
    out.values.emplace_back("savings." + a.model, a.sim_savings);
    out.values.emplace_back("theory_savings." + a.model, a.theory_savings);
    out.values.emplace_back("offload." + a.model, a.offload);
    out.values.emplace_back("baseline_energy." + a.model,
                            a.baseline_energy.value());
    out.values.emplace_back("hybrid_energy." + a.model,
                            a.hybrid_energy.value());
  }
}

/// Sessions, swarms and the largest swarm of an indexed trace.
void record_swarms(Shape& shape, const cl::SwarmIndex& index,
                   std::size_t sessions) {
  shape.sessions = static_cast<double>(sessions);
  shape.swarms = static_cast<double>(index.groups.size());
  std::uint64_t largest = 0;
  for (const cl::SwarmIndexGroup& group : index.groups) {
    largest = std::max(largest, group.count);
  }
  shape.max_swarm_sessions = static_cast<double>(largest);
}

/// The Fig. 4 band: the paper workloads' aggregate savings stay within
/// ±2 points of 25.0 % (Valancius) and 16.3 % (Baliga).
[[nodiscard]] std::vector<Band> fig4_band() {
  return {{"savings.Valancius", 0.230, 0.270}, {"savings.Baliga", 0.143, 0.183}};
}

[[nodiscard]] std::string days_label(double days) {
  std::ostringstream label;
  label << days << " paper-days";
  return label.str();
}

// ------------------------------------------------------------ paper_replay

class PaperReplay final : public Workload {
 public:
  explicit PaperReplay(const WorkloadParams& params)
      : seed_(params.seed),
        days_(params.scale.replay_days),
        path_(params.work_dir + "/paper_replay.cltrace") {}

  void prepare(const Context& ctx) override {
    cl::TraceConfig config = cl::TraceConfig::london_month_paper(days_);
    config.metro = kMetro;
    config.seed = seed_;
    config.threads = ctx.threads;
    cl::TraceGenerator generator = traced(ctx.scope, "trace.users", [&] {
      return cl::TraceGenerator(config, metro());
    });
    cl::Trace trace = traced(ctx.scope, "trace.generate",
                             [&] { return generator.generate(); });
    trace.swarm_index = traced(ctx.scope, "trace.index",
                               [&] { return cl::build_swarm_index(trace); });
    traced(ctx.scope, "trace.write",
           [&] { cl::write_trace_binary_file(path_, trace); });
    shape_.input = days_label(days_);
    record_swarms(shape_, trace.swarm_index, trace.size());
    shape_.file_mb = file_mb(path_);
  }

  Output iterate(const Context& ctx) override {
    const cl::TraceView view = traced(ctx.scope, "trace.open", [&] {
      return cl::TraceView::open_binary(path_, ctx.threads);
    });
    cl::SimConfig base;
    base.threads = ctx.threads;
    const cl::Analyzer analyzer(metro(), base);
    cl::SimConfig config = analyzer.sim_config();
    config.collect_swarms = true;
    config.collect_hourly = true;
    config.collect_per_user = false;
    cl::SimResult result = run_sim(ctx, config, view);
    const auto aggregate = traced(ctx.scope, "core.aggregate",
                                  [&] { return analyzer.aggregate(result); });
    const auto carbon = traced(ctx.scope, "core.carbon_report", [&] {
      return analyzer.carbon_report(result, curve());
    });

    Output out;
    add_aggregate(out, aggregate);
    for (const cl::CarbonOutcome& c : carbon) {
      out.values.emplace_back("hybrid_g." + c.model, c.hybrid_g);
      out.values.emplace_back("baseline_g." + c.model, c.baseline_g);
    }
    out.sims.emplace_back("run", std::move(result));
    return out;
  }

  std::vector<Band> bands() const override { return fig4_band(); }

 private:
  std::uint64_t seed_;
  double days_;
  std::string path_;
};

// ---------------------------------------------------------- paper_generate

class PaperGenerate final : public Workload {
 public:
  explicit PaperGenerate(const WorkloadParams& params)
      : seed_(params.seed),
        days_(params.scale.generate_days),
        path_(params.work_dir + "/paper_generate.cltrace") {}

  void prepare(const Context&) override { shape_.input = days_label(days_); }

  Output iterate(const Context& ctx) override {
    {
      cl::TraceConfig config = cl::TraceConfig::london_month_paper(days_);
      config.metro = kMetro;
      config.seed = seed_;
      config.threads = ctx.threads;
      cl::TraceGenerator generator = traced(ctx.scope, "trace.users", [&] {
        return cl::TraceGenerator(config, metro());
      });
      cl::Trace trace = traced(ctx.scope, "trace.generate",
                               [&] { return generator.generate(); });
      trace.swarm_index = traced(ctx.scope, "trace.index",
                                 [&] { return cl::build_swarm_index(trace); });
      traced(ctx.scope, "trace.write",
             [&] { cl::write_trace_binary_file(path_, trace); });
      record_swarms(shape_, trace.swarm_index, trace.size());
    }
    const cl::TraceView view = traced(ctx.scope, "trace.open", [&] {
      return cl::TraceView::open_binary(path_, ctx.threads);
    });
    cl::SimConfig base;
    base.threads = ctx.threads;
    const cl::Analyzer analyzer(metro(), base);
    cl::SimConfig config = analyzer.sim_config();
    config.collect_swarms = true;
    config.collect_hourly = false;
    config.collect_per_user = false;
    cl::SimResult result = run_sim(ctx, config, view);
    const auto aggregate = traced(ctx.scope, "core.aggregate",
                                  [&] { return analyzer.aggregate(result); });

    Output out;
    add_aggregate(out, aggregate);
    out.sims.emplace_back("run", std::move(result));
    out.file = path_;
    shape_.file_mb = file_mb(path_);
    return out;
  }

  std::vector<Band> bands() const override { return fig4_band(); }

 private:
  std::uint64_t seed_;
  double days_;
  std::string path_;
};

// ------------------------------------------------------------ flash_ledger

class FlashLedger final : public Workload {
 public:
  explicit FlashLedger(const WorkloadParams& params)
      : seed_(params.seed), viewers_(params.scale.flash_viewers) {}

  void prepare(const Context& ctx) override {
    const cl::FlashCrowdConfig config =
        cl::flash_crowd_preset("spike", viewers_, 7200.0, 1.0);
    rows_ = traced(ctx.scope, "ext.flash_crowd", [&] {
      return cl::generate_flash_crowd(metro(), config, seed_);
    });
    shape_.input = std::to_string(viewers_) + " spike viewers";
    record_swarms(shape_, cl::build_swarm_index(rows_), rows_.size());
    shape_.counts["ext.flash_segments"] = static_cast<double>(rows_.size());
  }

  Output iterate(const Context& ctx) override {
    const cl::TraceView view = traced(ctx.scope, "trace.transpose", [&] {
      return cl::TraceView::from_trace(rows_, ctx.threads);
    });
    cl::SimConfig base;
    base.threads = ctx.threads;
    const cl::Analyzer analyzer(metro(), base);
    cl::SimConfig config = analyzer.sim_config();
    config.collect_swarms = true;
    config.collect_hourly = true;
    config.collect_per_user = true;
    config.overload = true;
    cl::SimResult result = run_sim(ctx, config, view);
    const auto aggregate = traced(ctx.scope, "core.aggregate",
                                  [&] { return analyzer.aggregate(result); });

    Output out;
    add_aggregate(out, aggregate);
    for (const cl::EnergyParams& params : analyzer.models()) {
      traced(ctx.scope, "core.ledger", [&] {
        const cl::CarbonLedger ledger(result, params);
        out.values.emplace_back("median_cct." + params.name,
                                ledger.median_cct());
        out.values.emplace_back("carbon_free." + params.name,
                                ledger.fraction_carbon_free());
        shape_.counts["core.ledger_users"] =
            static_cast<double>(ledger.entries().size());
      });
    }

    const cl::CarbonScheduler scheduler(curve());
    const cl::Trace shifted = traced(ctx.scope, "carbon.preload", [&] {
      return scheduler.schedule_preload(rows_, seed_);
    });
    const cl::TraceView shifted_view = traced(
        ctx.scope, "trace.transpose",
        [&] { return cl::TraceView::from_trace(shifted, ctx.threads); });
    cl::SimResult preloaded = run_sim(ctx, config, shifted_view);
    traced(ctx.scope, "carbon.route", [&] {
      const std::size_t home = cl::metro_registry_index(kMetro);
      const cl::RoutingPlan plan = scheduler.plan_routes(
          cl::serving_curves(kMetro, curve()), home, preloaded.hourly.size());
      out.values.emplace_back("hours_routed_away",
                              static_cast<double>(plan.hours_routed_away()));
      for (const cl::EnergyParams& params : analyzer.models()) {
        const cl::EnergyAccountant accountant{cl::CostFunctions(params)};
        const cl::ScheduleOutcome outcome = scheduler.assess(
            result.hourly, preloaded.hourly, accountant, plan);
        out.values.emplace_back("unscheduled_g." + params.name,
                                outcome.unscheduled_g);
        out.values.emplace_back("scheduled_g." + params.name,
                                outcome.scheduled_g);
      }
    });
    out.sims.emplace_back("run", std::move(result));
    out.sims.emplace_back("preloaded", std::move(preloaded));
    return out;
  }

 private:
  std::uint64_t seed_;
  std::uint32_t viewers_;
  cl::Trace rows_;
};

// ------------------------------------------------------------- spec_matrix

/// Reads the spec and sets its base `seed`, `days` and `scale`: the spec
/// file leaves them out, and they are spliced in after the base's
/// opening brace.
[[nodiscard]] cl::ExperimentSpec load_spec(const std::string& path,
                                           std::uint64_t seed, double days,
                                           double scale) {
  std::ifstream in(path);
  if (!in) throw cl::IoError("cannot read spec " + path);
  std::stringstream text;
  text << in.rdbuf();
  std::string spec = text.str();
  const std::size_t base = spec.find("\"base\"");
  const std::size_t brace =
      base == std::string::npos ? base : spec.find('{', base);
  if (brace == std::string::npos) {
    throw cl::ParseError("spec " + path + " has no \"base\" object");
  }
  std::ostringstream fields;
  fields.precision(17);
  fields << " \"seed\": " << seed << ", \"days\": " << days
         << ", \"scale\": " << scale << ",";
  spec.insert(brace + 1, fields.str());
  return cl::ExperimentSpec::parse(spec, "spec_matrix");
}

/// A cell's trace, generated as run_cell generates it.
[[nodiscard]] cl::Trace cell_trace(const cl::CellConfig& cell,
                                   unsigned threads) {
  cl::TraceConfig config = cl::TraceConfig::london_month_scaled(cell.days);
  config.metro = cell.metro;
  config.seed = cell.seed;
  config.threads = threads;
  config.users =
      static_cast<std::uint32_t>(std::llround(config.users * cell.scale));
  cl::Trace rows =
      cl::TraceGenerator(config, cl::MetroRegistry::instance().get(cell.metro))
          .generate();
  if (cell.preload) {
    cl::PreloadConfig preload;
    preload.adoption = cell.preload_adoption;
    preload.window_start_hour = cell.preload_start_hour;
    preload.window_end_hour = cell.preload_end_hour;
    rows = cl::apply_preload(rows, preload, cell.seed);
  }
  return rows;
}

class SpecMatrix final : public Workload {
 public:
  explicit SpecMatrix(const WorkloadParams& params)
      : seed_(params.seed),
        days_(params.scale.spec_days),
        scale_(params.scale.spec_scale),
        spec_path_(params.spec_path),
        out_dir_(params.work_dir + "/spec_matrix") {}

  void prepare(const Context&) override {
    spec_ = load_spec(spec_path_, seed_, days_, scale_);
    cells_ = spec_.cells();
    std::ostringstream input;
    input << cells_.size() << " cells x " << days_ << " scaled days";
    shape_.input = input.str();
    shape_.counts["experiment.cells"] = static_cast<double>(cells_.size());
  }

  Output iterate(const Context& ctx) override {
    cl::ExperimentRunConfig config;
    config.out_dir = out_dir_;
    config.threads = ctx.threads;
    const cl::ExperimentRunResult run =
        traced(ctx.scope, "experiment.run",
               [&] { return cl::run_experiment(spec_, config); });

    Output out;
    shape_.sessions = shape_.swarms = shape_.max_swarm_sessions = 0;
    for (const cl::CellRunRecord& record : run.cells) {
      const cl::CellOutcome& outcome = record.outcome;
      shape_.sessions += outcome.sessions;
      shape_.swarms += static_cast<double>(outcome.sim.swarms.size());
      for (const cl::SwarmResult& swarm : outcome.sim.swarms) {
        shape_.max_swarm_sessions = std::max(
            shape_.max_swarm_sessions, static_cast<double>(swarm.sessions));
      }
      if (ctx.cell_seconds != nullptr) {
        ctx.cell_seconds->push_back(record.wall_seconds);
      }
      out.sims.emplace_back(record.cell.slug, outcome.sim);
      out.texts.emplace_back(record.cell.slug + " metrics",
                             outcome.metrics.render());
    }
    return out;
  }

  void probe(const Context& ctx, const Output& last) override {
    // run_cell calls the edge-cache simulator and the scheduler inside
    // run_experiment, on `inner` threads (the runner's split). Repeat
    // those calls on the same cells' traces at that thread count.
    const unsigned outer = static_cast<unsigned>(
        std::min<std::size_t>(std::max(1u, ctx.threads), cells_.size()));
    const unsigned inner = std::max(1u, ctx.threads / outer);
    const auto find_cell = [&](auto&& pred) -> const cl::ExperimentCell* {
      const auto it = std::find_if(cells_.begin(), cells_.end(), pred);
      return it == cells_.end() ? nullptr : &*it;
    };

    if (const cl::ExperimentCell* edge = find_cell([](const auto& cell) {
          return cell.config.edge_cache > 0;
        })) {
      const cl::CellConfig& cell = edge->config;
      if (edge_rows_.empty()) edge_rows_ = cell_trace(cell, inner);
      cl::SimConfig sim;
      sim.q_over_beta = cell.qb;
      sim.threads = inner;
      sim.collect_hourly = sim.collect_per_user = sim.collect_swarms = false;
      cl::EdgeCacheConfig cache;
      cache.capacity_per_exp = cell.edge_cache;
      cache.misses_use_p2p = cell.edge_cache_p2p;
      traced(ctx.scope, "ext.edge_cache", [&] {
        return cl::EdgeCacheSimulator(
                   cl::MetroRegistry::instance().get(cell.metro), sim, cache)
            .run(edge_rows_);
      });
    }

    const cl::ExperimentCell* scheduled = find_cell([](const auto& cell) {
      return cell.config.simulate && cell.config.schedule == "all";
    });
    const auto sim_of = [&](const cl::ExperimentCell* cell) {
      return std::find_if(last.sims.begin(), last.sims.end(),
                          [&](const auto& named) {
                            return cell != nullptr && named.first == cell->slug;
                          });
    };
    if (sim_of(scheduled) == last.sims.end()) return;
    const cl::CellConfig& cell = scheduled->config;
    // The spec's intensities are "metro" or a preset (a CSV path would
    // need its own curve here).
    const cl::IntensityCurve& user_curve =
        cell.intensity == "metro"
            ? cl::IntensityRegistry::instance().default_for_metro(cell.metro)
            : cl::IntensityRegistry::instance().get(cell.intensity);
    const cl::CarbonScheduler scheduler(user_curve, cl::ScheduleConfig{});
    if (scheduled_rows_.empty()) scheduled_rows_ = cell_trace(cell, inner);
    traced(ctx.scope, "carbon.preload", [&] {
      return scheduler.schedule_preload(scheduled_rows_, cell.seed);
    });
    // assess prices the unscheduled and scheduled grids hour by hour; the
    // cell's own grid stands in for both (same hours, same cost).
    const cl::HourlyTrafficGrid& hourly = sim_of(scheduled)->second.hourly;
    traced(ctx.scope, "carbon.route", [&] {
      const std::size_t home = cl::metro_registry_index(cell.metro);
      const cl::RoutingPlan plan = scheduler.plan_routes(
          cl::serving_curves(cell.metro, user_curve), home, hourly.size());
      for (const cl::EnergyParams& params : cl::standard_params()) {
        const cl::EnergyAccountant accountant{cl::CostFunctions(params)};
        (void)scheduler.assess(hourly, hourly, accountant, plan);
      }
    });
  }

 private:
  std::uint64_t seed_;
  double days_;
  double scale_;
  std::string spec_path_;
  std::string out_dir_;
  cl::ExperimentSpec spec_;
  std::vector<cl::ExperimentCell> cells_;
  cl::Trace edge_rows_;       ///< probe input, made on the first probe
  cl::Trace scheduled_rows_;  ///< probe input, made on the first probe
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_replay", "paper_generate",
                                              "flash_ledger", "spec_matrix"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadParams& params) {
  if (name == "paper_replay") return std::make_unique<PaperReplay>(params);
  if (name == "paper_generate") return std::make_unique<PaperGenerate>(params);
  if (name == "flash_ledger") return std::make_unique<FlashLedger>(params);
  if (name == "spec_matrix") return std::make_unique<SpecMatrix>(params);
  throw cl::InvalidArgument("unknown workload '" + name + "'");
}

}  // namespace perfbench
