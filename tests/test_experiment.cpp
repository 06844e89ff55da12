// Tests of the experiment subsystem (src/experiment/): the spec loader's
// reject matrix (every malformed spec is a distinct, actionable
// ParseError), the matrix expansion semantics (order, pinning,
// exclusion, canonical value forms), the parity contracts — a cell
// run is bit-identical to a standalone `cl simulate` composition at
// every thread count, and the checked-in ablation specs reproduce the
// adoption and edge-cache models' numbers exactly — and the runner's
// shared work: a matrix shares exactly the traces and simulations whose
// inputs are equal, and every shared cell equals its standalone run.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "experiment/cell_runner.h"
#include "experiment/experiment_runner.h"
#include "experiment/experiment_spec.h"
#include "ext/adoption.h"
#include "ext/edge_cache.h"
#include "sim/hybrid_sim.h"
#include "topology/metro_registry.h"
#include "trace/synthetic.h"
#include "trace/trace_view.h"
#include "util/error.h"
#include "util/json.h"

#include "fnv1a.h"
#include "sim_equal.h"
#include "temp_path.h"

#ifndef CL_TEST_DATA_DIR
#error "CMake must define CL_TEST_DATA_DIR"
#endif
#ifndef CL_EXPERIMENTS_DIR
#error "CMake must define CL_EXPERIMENTS_DIR (the checked-in specs)"
#endif

namespace {

using namespace cl;

// --- reject matrix ------------------------------------------------------

/// Asserts that `text` is rejected with a message containing `expected`.
void expect_reject(const std::string& text, const std::string& expected) {
  try {
    (void)ExperimentSpec::parse(text, "t");
    FAIL() << "spec was accepted; expected error containing: " << expected;
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(ExperimentSpecReject, MalformedJson) {
  expect_reject("{ \"axes\": ", "JSON parse error at line 1");
  expect_reject("[1, 2]", "spec root must be a JSON object");
}

TEST(ExperimentSpecReject, UnknownAxisName) {
  expect_reject(R"({"axes": {"bogus": [1]}})", "unknown axis 'bogus'");
}

TEST(ExperimentSpecReject, UnknownSpecKey) {
  expect_reject(R"({"cells": []})", "unknown spec key 'cells'");
}

TEST(ExperimentSpecReject, EmptyAxisValueList) {
  expect_reject(R"({"axes": {"adoption": []}})",
                "axis 'adoption' has an empty value list");
}

TEST(ExperimentSpecReject, DuplicateAxis) {
  expect_reject(R"({"axes": {"adoption": [50], "adoption": [5]}})",
                "duplicate axis 'adoption'");
}

TEST(ExperimentSpecReject, DuplicateBaseParameter) {
  expect_reject(R"({"base": {"days": 1, "days": 2},
                    "axes": {"adoption": [50]}})",
                "duplicate base parameter 'days'");
}

TEST(ExperimentSpecReject, BaseAndAxisConflict) {
  expect_reject(R"({"base": {"adoption": 50, "simulate": "off"},
                    "axes": {"adoption": [5]}})",
                "declared both in base and as an axis");
}

TEST(ExperimentSpecReject, NonExistentIntensityCsvPath) {
  expect_reject(
      R"({"base": {"intensity": "/nonexistent/curve.csv"}})",
      "no 24-hour intensity CSV exists at that path");
}

TEST(ExperimentSpecReject, OutOfRangeAdoption) {
  expect_reject(R"({"axes": {"adoption": [-1]}})",
                "adoption value '-1' is out of range");
  expect_reject(R"({"axes": {"adoption": [0]}})",
                "adoption value '0' is out of range");
}

TEST(ExperimentSpecReject, OutOfRangePreloadAdoption) {
  expect_reject(R"({"base": {"preload_adoption": 1.5}})",
                "preload_adoption value '1.5' is out of range [0, 1]");
}

TEST(ExperimentSpecReject, BadPreloadWindow) {
  expect_reject(R"({"base": {"preload": "9"}})",
                "must be \"START-END\" hours");
  expect_reject(R"({"base": {"preload": "9-7"}})",
                "out of range (need 0 <= START < END <= 24)");
}

TEST(ExperimentSpecReject, UnknownMetroAndScheduleMode) {
  expect_reject(R"({"axes": {"metro": ["atlantis"]}})", "unknown metro");
  expect_reject(R"({"base": {"schedule": "sometimes"}})",
                "unknown schedule mode 'sometimes'");
}

TEST(ExperimentSpecReject, NonIntegerSeedAndEdgeCache) {
  expect_reject(R"({"base": {"seed": 1.5}})",
                "seed '1.5' must be a non-negative integer");
  expect_reject(R"({"axes": {"edge_cache": [2.5]}})",
                "whole number of items");
}

TEST(ExperimentSpecReject, ScheduleNeedsIntensity) {
  expect_reject(R"({"base": {"schedule": "all"}})", "needs an intensity");
}

TEST(ExperimentSpecReject, CellRunsNothing) {
  expect_reject(R"({"base": {"simulate": "off"}})", "would run nothing");
}

// schedule, overload and intensity only act on the simulated run: a
// cell that skips the simulator must not be labelled with one of them.
TEST(ExperimentSpecReject, ScheduleWithSimulateOff) {
  expect_reject(R"({"base": {"simulate": "off", "adoption": 50,
                             "schedule": "all", "intensity": "uk_2018"}})",
                "only act on the simulated run, but simulate is off");
}

TEST(ExperimentSpecReject, OverloadWithSimulateOff) {
  expect_reject(R"({"base": {"simulate": "off", "adoption": 50,
                             "overload": "on"}})",
                "only act on the simulated run, but simulate is off");
}

TEST(ExperimentSpecReject, IntensityWithSimulateOff) {
  expect_reject(R"({"base": {"simulate": "off", "edge_cache": 10},
                    "axes": {"intensity": ["none", "uk_2018"]}})",
                "cell 'intensity-uk_2018' sets schedule, overload or "
                "intensity");
}

TEST(ExperimentSpecReject, PinNamesUndeclaredAxisOrValue) {
  expect_reject(R"({"axes": {"adoption": [50]}, "pin": {"days": 1}})",
                "pin names 'days' which is not a declared axis");
  expect_reject(R"({"axes": {"adoption": [50]}, "pin": {"adoption": 5}})",
                "not among the axis's declared values");
}

TEST(ExperimentSpecReject, ExcludeNamesUndeclaredAxis) {
  expect_reject(R"({"axes": {"adoption": [50]},
                    "exclude": [{"days": 1}]})",
                "exclude names 'days' which is not a declared axis");
}

TEST(ExperimentSpecReject, ZeroCellsAfterExclusion) {
  expect_reject(R"({"axes": {"adoption": [50]},
                    "exclude": [{"adoption": 50}]})",
                "zero cells");
}

// The trace generator needs a whole day and at least one user. A spec
// asking for less fails at parse time, before any cell has run or shared
// its trace; cells that generate no trace are not held to it.
TEST(ExperimentSpecReject, DaysUnderOneDay) {
  expect_reject(R"({"base": {"days": 0.5}})",
                "cell 'base': days 0.5 is under the generated trace's "
                "1-day minimum");
  expect_reject(R"({"base": {"simulate": "off", "edge_cache": 10},
                    "axes": {"days": [1, 0.5]}})",
                "cell 'days-0.5': days 0.5");
  EXPECT_EQ(ExperimentSpec::parse(R"({"base": {"simulate": "off",
                                   "adoption": 50, "days": 0.5}})",
                                  "t")
                .cell_count(),
            1u);
}

TEST(ExperimentSpecReject, ScaleLeavesNoUsers) {
  expect_reject(R"({"base": {"days": 1, "scale": 0.00001}})",
                "cell 'base': scale 1e-05 leaves no users (30000 x scale "
                "rounds to 0)");
  expect_reject(R"({"base": {"days": 1, "scale": 0.00001,
                             "simulate": "off", "edge_cache": 10}})",
                "leaves no users");
  EXPECT_EQ(ExperimentSpec::parse(R"({"base": {"scale": 0.00002}})", "t")
                .cell_count(),
            1u);  // 0.6 users round to 1
  EXPECT_EQ(ExperimentSpec::parse(R"({"base": {"simulate": "off",
                                   "adoption": 50, "scale": 0.00001}})",
                                  "t")
                .cell_count(),
            1u);
}

TEST(ExperimentSpecReject, MissingSpecFile) {
  EXPECT_THROW((void)ExperimentSpec::parse_file("/nonexistent/spec.json"),
               ParseError);
}

// --- expansion semantics ------------------------------------------------

TEST(ExperimentSpecExpand, CrossProductDeclarationOrderLastAxisFastest) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      R"({"base": {"simulate": "off"},
          "axes": {"adoption": [50, 5], "edge_cache": [2, 10]}})",
      "t");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].slug, "adoption-50_edge_cache-2");
  EXPECT_EQ(cells[1].slug, "adoption-50_edge_cache-10");
  EXPECT_EQ(cells[2].slug, "adoption-5_edge_cache-2");
  EXPECT_EQ(cells[3].slug, "adoption-5_edge_cache-10");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
  EXPECT_EQ(cells[1].config.adoption, 50.0);
  EXPECT_EQ(cells[1].config.edge_cache, 10u);
  EXPECT_FALSE(cells[1].config.simulate);
}

TEST(ExperimentSpecExpand, CanonicalValueForms) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      R"({"base": {"days": 2.50},
          "axes": {"adoption": [0.50], "overload": [true, "no"]}})",
      "t");
  ASSERT_EQ(spec.axes().size(), 2u);
  EXPECT_EQ(spec.axes()[0].values, std::vector<std::string>{"0.5"});
  EXPECT_EQ(spec.axes()[1].values,
            (std::vector<std::string>{"on", "off"}));
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].slug, "adoption-0.5_overload-on");
  EXPECT_EQ(cells[0].config.days, 2.5);
  EXPECT_TRUE(cells[0].config.overload);
  EXPECT_FALSE(cells[1].config.overload);
}

TEST(ExperimentSpecExpand, PinRestrictsAxisToSubset) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      R"({"base": {"simulate": "off"},
          "axes": {"adoption": [50, 5, 0.5]},
          "pin": {"adoption": [5, 0.5]}})",
      "t");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].slug, "adoption-5");
  EXPECT_EQ(cells[1].slug, "adoption-0.5");
}

TEST(ExperimentSpecExpand, ExcludeDropsMatchingCellsAndReindexes) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      R"({"base": {"simulate": "off"},
          "axes": {"adoption": [50, 5], "edge_cache": [2, 10]},
          "exclude": [{"adoption": 50, "edge_cache": 2}]})",
      "t");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].slug, "adoption-50_edge_cache-10");
  EXPECT_EQ(cells[0].index, 0u);
  EXPECT_EQ(cells[2].slug, "adoption-5_edge_cache-10");
  EXPECT_EQ(cells[2].index, 2u);
}

TEST(ExperimentSpecExpand, NoAxesYieldsOneBaseCell) {
  const ExperimentSpec spec =
      ExperimentSpec::parse(R"({"base": {"days": 1}})", "fallback_name");
  EXPECT_EQ(spec.name(), "fallback_name");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].slug, "base");
  EXPECT_EQ(cells[0].config.days, 1.0);
  EXPECT_TRUE(cells[0].config.simulate);
}

// --- parity contracts ---------------------------------------------------

/// Reads one metric back out of the deterministic JSON rendering (the
/// writer is %.17g round-trip, so the parsed double is bit-exact).
double metric(const JsonObject& metrics, const std::string& key) {
  const JsonValue parsed = JsonValue::parse(metrics.render());
  const JsonValue* value = parsed.find(key);
  EXPECT_NE(value, nullptr) << "missing metric " << key << " in "
                            << metrics.render();
  return value == nullptr ? 0 : value->as_number();
}

/// The golden cell (tests/data/golden_spec.json) against a hand-composed
/// standalone simulate run — the exact call sequence of cmd_simulate.cpp
/// — at --threads 1, 2, 7 and hw (0). SimResult fields must be
/// bit-identical and the rendered metrics byte-identical at every count.
TEST(ExperimentParity, GoldenCellMatchesStandaloneSimulateAtEveryThreads) {
  const ExperimentSpec spec = ExperimentSpec::parse_file(
      std::string(CL_TEST_DATA_DIR) + "/golden_spec.json");
  EXPECT_EQ(spec.name(), "golden_spec");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 1u);
  const CellConfig& config = cells[0].config;

  // The standalone path: what `cl simulate --intensity uk_2018
  // --overload --days 1` executes (cli_common.h load_trace +
  // cmd_simulate.cpp).
  const Metro& metro = MetroRegistry::instance().get(config.metro);
  TraceConfig trace_config = TraceConfig::london_month_scaled(config.days);
  trace_config.metro = config.metro;
  trace_config.seed = config.seed;
  trace_config.threads = 1;
  const Trace trace = TraceGenerator(trace_config, metro).generate();
  SimConfig sim_config;
  sim_config.threads = 1;
  const Analyzer analyzer(metro, sim_config);
  SimConfig run_config = analyzer.sim_config();
  run_config.collect_swarms = true;
  run_config.collect_hourly = true;  // --intensity present
  run_config.collect_per_user = false;
  run_config.overload = true;
  const SimResult expected = HybridSimulator(metro, run_config)
                                 .run(TraceView::from_trace(trace, 1), nullptr);

  std::string reference_render;
  for (const unsigned threads : {1u, 2u, 7u, 0u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const CellOutcome outcome = run_cell(config, threads);
    EXPECT_EQ(outcome.sim.total.server.value(),
              expected.total.server.value());
    EXPECT_EQ(outcome.sim.total.cross_isp.value(),
              expected.total.cross_isp.value());
    for (std::size_t level = 0; level < expected.total.peer.size();
         ++level) {
      EXPECT_EQ(outcome.sim.total.peer[level].value(),
                expected.total.peer[level].value());
    }
    EXPECT_EQ(outcome.sim.offload(), expected.offload());
    EXPECT_EQ(outcome.sim.overload_spill.value(),
              expected.overload_spill.value());
    EXPECT_EQ(outcome.sim.hourly.size(), expected.hourly.size());
    EXPECT_EQ(outcome.sim.swarms.size(), expected.swarms.size());
    EXPECT_EQ(outcome.sessions, static_cast<double>(trace.size()));
    const std::string render = outcome.metrics.render();
    if (reference_render.empty()) {
      reference_render = render;
    } else {
      EXPECT_EQ(render, reference_render);  // byte-identical JSON payload
    }
  }

  // Cross-check two rendered metrics against the standalone numbers.
  const CellOutcome outcome = run_cell(config, 1);
  EXPECT_EQ(metric(outcome.metrics, "offload"), expected.offload());
  EXPECT_EQ(metric(outcome.metrics, "overload_spill_gb"),
            expected.overload_spill.value() / 8e9);
}

/// Every scheduled cell's rendered metrics — offload, savings, carbon,
/// spill and the schedule section — pinned by digest at threads 1 and
/// hw, over both schedule levers on two metros with different grids.
/// Five cells moved once, when the sweep's chunks became
/// session-balanced (sweep_chunk_bounds): every rendered value within
/// 1.4e-15 relative of the old.
TEST(ExperimentParity, ScheduleCellsPinned) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      R"({"base": {"days": 1, "overload": "on", "intensity": "metro"},
          "axes": {"metro": ["london_top5", "us_sparse"],
                   "schedule": ["off", "preload", "route", "all"]}})",
      "schedule_pins");
  const std::map<std::string, std::uint64_t> pins = {
      {"metro-london_top5_schedule-off", 0xab87ac086109d5d8ULL},
      {"metro-london_top5_schedule-preload", 0x2615faa3822219c1ULL},
      {"metro-london_top5_schedule-route", 0x0c7d6b4b9caaea89ULL},
      {"metro-london_top5_schedule-all", 0xeef45a3fadc961bfULL},
      {"metro-us_sparse_schedule-off", 0x30a5398516fcc5d1ULL},
      {"metro-us_sparse_schedule-preload", 0x34601e5276ab5b11ULL},
      {"metro-us_sparse_schedule-route", 0xef6a287ded1bdef4ULL},
      {"metro-us_sparse_schedule-all", 0x3ad25d72ec3bfa46ULL},
  };
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), pins.size());
  for (const ExperimentCell& cell : cells) {
    ASSERT_EQ(pins.count(cell.slug), 1u) << cell.slug;
    for (const unsigned threads : {1u, 0u}) {
      SCOPED_TRACE(cell.slug + " threads " + std::to_string(threads));
      const std::string render =
          run_cell(cell.config, threads).metrics.render();
      EXPECT_EQ(test::fnv1a(render), pins.at(cell.slug)) << render;
    }
  }
}

/// experiments/ablation_adoption.json reproduces the adoption fixed
/// point solved directly from ext/adoption.h, bit-identically.
TEST(ExperimentParity, AdoptionSpecMatchesBenchComputation) {
  const ExperimentSpec spec = ExperimentSpec::parse_file(
      std::string(CL_EXPERIMENTS_DIR) + "/ablation_adoption.json");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 3u);
  const Metro& metro = MetroRegistry::instance().get(kDefaultMetroName);
  for (const ExperimentCell& cell : cells) {
    SCOPED_TRACE(cell.slug);
    const CellOutcome outcome = run_cell(cell.config, 1);
    for (const auto& params : standard_params()) {
      const AdoptionModel model(SavingsModel(params, metro.isp(0)));
      AdoptionConfig adoption;
      adoption.swarm_capacity = cell.config.adoption;
      adoption.uniform_thresholds(2000, -0.5, 0.5);
      const AdoptionResult expected = model.solve(adoption);
      EXPECT_EQ(metric(outcome.metrics, "participation_" + params.name),
                expected.participation);
      EXPECT_EQ(metric(outcome.metrics, "adoption_savings_" + params.name),
                expected.savings);
      EXPECT_EQ(metric(outcome.metrics, "adoption_cct_" + params.name),
                expected.cct);
    }
  }
}

/// One cell of experiments/ablation_edge_cache.json (capacity 50, P2P
/// on) reproduces the cache simulator run directly from ext/edge_cache.h,
/// bit-identically.
TEST(ExperimentParity, EdgeCacheSpecMatchesBenchComputation) {
  const ExperimentSpec spec = ExperimentSpec::parse_file(
      std::string(CL_EXPERIMENTS_DIR) + "/ablation_edge_cache.json");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 8u);
  const ExperimentCell* cell = nullptr;
  for (const ExperimentCell& candidate : cells) {
    if (candidate.slug == "edge_cache-50_edge_cache_p2p-on") {
      cell = &candidate;
    }
  }
  ASSERT_NE(cell, nullptr);

  // The edge-cache ablation composed by hand: a 10-day London month and
  // a miss simulation that collects no metrics.
  const Metro& metro = MetroRegistry::instance().get(kDefaultMetroName);
  TraceConfig trace_config = TraceConfig::london_month_scaled(10);
  trace_config.threads = 1;
  const Trace trace = TraceGenerator(trace_config, metro).generate();
  SimConfig sim_config;
  sim_config.threads = 1;
  sim_config.collect_hourly = false;
  sim_config.collect_per_user = false;
  sim_config.collect_swarms = false;
  EdgeCacheConfig cache_config;
  cache_config.capacity_per_exp = 50;
  cache_config.misses_use_p2p = true;
  const EdgeCacheOutcome expected =
      EdgeCacheSimulator(metro, sim_config, cache_config).run(trace);

  const CellOutcome outcome = run_cell(cell->config, 1);
  EXPECT_EQ(metric(outcome.metrics, "cache_hit_rate"),
            expected.hit_rate());
  for (const auto& params : standard_params()) {
    EXPECT_EQ(metric(outcome.metrics, "cache_savings_" + params.name),
              EdgeCacheSimulator::savings(expected, params));
  }
}

// --- shared work --------------------------------------------------------

/// Runs `spec` through run_experiment into this test's temp directory.
ExperimentRunResult run_matrix(const ExperimentSpec& spec, unsigned threads) {
  ExperimentRunConfig config;
  config.out_dir = test::unique_temp_path(spec.name() + "_threads_" +
                                          std::to_string(threads));
  config.threads = threads;
  return run_experiment(spec, config);
}

/// Two metros x overload x schedule {off, all}, plus four London cells:
/// one with an edge cache (shares a trace and a simulation), one
/// preloaded (its own trace), one at qb 0.5 (shares the trace only) and
/// one adoption cell that runs no simulator. Every cell also solves the
/// adoption fixed point.
TEST(ExperimentRunner, SharedWorkEqualsStandaloneCells) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      R"({"base": {"days": 1, "scale": 0.05, "adoption": 50},
          "axes": {"metro": ["london_top5", "us_sparse"],
                   "overload": ["off", "on"],
                   "schedule": ["off", "all"],
                   "edge_cache": ["off", 10],
                   "preload": ["off", "7-9"],
                   "qb": [1, 0.5],
                   "simulate": ["on", "off"],
                   "intensity": ["metro", "none"]},
          "exclude": [
            {"edge_cache": 10, "preload": "7-9"},
            {"edge_cache": 10, "qb": 0.5},
            {"edge_cache": 10, "simulate": "off"},
            {"preload": "7-9", "qb": 0.5},
            {"preload": "7-9", "simulate": "off"},
            {"qb": 0.5, "simulate": "off"},
            {"edge_cache": 10, "metro": "us_sparse"},
            {"edge_cache": 10, "overload": "on"},
            {"edge_cache": 10, "schedule": "all"},
            {"preload": "7-9", "metro": "us_sparse"},
            {"preload": "7-9", "overload": "on"},
            {"preload": "7-9", "schedule": "all"},
            {"qb": 0.5, "metro": "us_sparse"}, {"qb": 0.5, "overload": "on"},
            {"qb": 0.5, "schedule": "all"},
            {"simulate": "off", "metro": "us_sparse"},
            {"simulate": "off", "overload": "on"},
            {"simulate": "off", "schedule": "all"},
            {"intensity": "none", "simulate": "on"},
            {"intensity": "metro", "simulate": "off"}]})",
      "shared");
  const std::vector<ExperimentCell> cells = spec.cells();
  ASSERT_EQ(cells.size(), 12u);
  std::vector<CellOutcome> standalone;
  for (const ExperimentCell& cell : cells) {
    standalone.push_back(run_cell(cell.config, 1));
  }

  for (const unsigned threads : {1u, 2u, 7u, 0u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const ExperimentRunResult run = run_matrix(spec, threads);
    // London, US and the preloaded London trace; four base simulations
    // plus the preloaded and the qb 0.5 ones.
    EXPECT_EQ(run.traces, 3u);
    EXPECT_EQ(run.simulations, 6u);
    ASSERT_EQ(run.cells.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      SCOPED_TRACE(cells[i].slug);
      const CellOutcome& shared = run.cells[i].outcome;
      EXPECT_EQ(run.cells[i].cell.slug, cells[i].slug);
      EXPECT_EQ(shared.metrics.render(), standalone[i].metrics.render());
      EXPECT_EQ(shared.sessions, standalone[i].sessions);
      test::expect_sim_identical(shared.sim, standalone[i].sim);
    }
  }
}

/// The manifest's distinct-trace and distinct-simulation counts for a
/// two-cell matrix over `base` and `axis`.
std::pair<double, double> shared_counts(const std::string& base,
                                        const std::string& axis) {
  const ExperimentSpec spec = ExperimentSpec::parse(
      "{\"base\": {" + base + "}, \"axes\": {" + axis + "}}", "plan");
  const JsonValue manifest =
      JsonValue::parse_file(run_matrix(spec, 0).manifest_path);
  const JsonValue& metrics = *manifest.find("metrics");
  EXPECT_EQ(metrics.find("cells")->as_number(), 2);
  return {metrics.find("traces")->as_number(),
          metrics.find("simulations")->as_number()};
}

TEST(ExperimentRunner, PlanSharesOnlyIdenticalInputs) {
  using Counts = std::pair<double, double>;
  const std::string day = R"("days": 1, )";
  const std::string scale = R"("scale": 0.01, )";
  const std::string small = day + scale + R"("intensity": "metro")";
  // Tail-only parameters share both the trace and the simulation.
  EXPECT_EQ(shared_counts(small, R"("schedule": ["off", "all"])"),
            Counts(1, 1));
  EXPECT_EQ(shared_counts(small, R"("edge_cache": ["off", 10])"),
            Counts(1, 1));
  EXPECT_EQ(shared_counts(small, R"("adoption": ["off", 50])"),
            Counts(1, 1));
  // A preload setting is no trace input while preload is off.
  EXPECT_EQ(shared_counts(small, R"("preload_adoption": [0.5, 0.25])"),
            Counts(1, 1));
  // Simulation inputs share the trace only.
  EXPECT_EQ(shared_counts(small, R"("qb": [1, 0.5])"), Counts(1, 2));
  EXPECT_EQ(shared_counts(small, R"("overload": ["off", "on"])"),
            Counts(1, 2));
  EXPECT_EQ(shared_counts(day + R"("scale": 0.01)",
                          R"("intensity": ["none", "uk_2018"])"),
            Counts(1, 2));
  // Trace inputs share nothing.
  EXPECT_EQ(shared_counts(small, R"("metro": ["london_top5", "us_sparse"])"),
            Counts(2, 2));
  EXPECT_EQ(shared_counts(small, R"("seed": [1, 2])"), Counts(2, 2));
  EXPECT_EQ(shared_counts(scale + R"("intensity": "metro")",
                          R"("days": [1, 2])"),
            Counts(2, 2));
  EXPECT_EQ(shared_counts(day + R"("intensity": "metro")",
                          R"("scale": [0.01, 0.02])"),
            Counts(2, 2));
  EXPECT_EQ(shared_counts(small, R"("preload": ["7-9", "8-9"])"),
            Counts(2, 2));
  EXPECT_EQ(shared_counts(small, R"("preload": ["7-9", "7-10"])"),
            Counts(2, 2));
  EXPECT_EQ(shared_counts(small + R"(, "preload": "7-9")",
                          R"("preload_adoption": [0.5, 0.25])"),
            Counts(2, 2));
  // Cells that simulate nothing generate nothing.
  EXPECT_EQ(shared_counts(R"("simulate": "off")", R"("adoption": [50, 5])"),
            Counts(0, 0));

  const ExperimentRunResult smoke = run_matrix(
      ExperimentSpec::parse_file(std::string(CL_EXPERIMENTS_DIR) +
                                 "/smoke_2x2.json"),
      0);
  EXPECT_EQ(smoke.traces, 2u);
  EXPECT_EQ(smoke.simulations, 4u);
}

}  // namespace
