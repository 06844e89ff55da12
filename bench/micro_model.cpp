// micro_model — google-benchmark microbenchmarks of the hot paths: the
// closed-form model evaluation, the workload generator and the simulator
// sweep (throughput in sessions/second).
#include <benchmark/benchmark.h>

#include "core/analyzer.h"
#include "model/localisation.h"
#include "model/offload.h"
#include "model/savings.h"
#include "topology/placement.h"
#include "trace/synthetic.h"
#include "util/rng.h"

namespace {

using namespace cl;

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

void BM_OffloadFraction(benchmark::State& state) {
  double c = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(offload_fraction(c, 1.0));
    c = c < 1e4 ? c * 1.1 : 0.01;
  }
}
BENCHMARK(BM_OffloadFraction);

void BM_SavingsEquation12(benchmark::State& state) {
  const SavingsModel model(valancius_params(), metro().isp(0));
  double c = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.savings(c, 1.0));
    c = c < 1e4 ? c * 1.1 : 0.01;
  }
}
BENCHMARK(BM_SavingsEquation12);

void BM_ExpectedWeightedGammaClosedForm(benchmark::State& state) {
  const auto params = baliga_params();
  const auto loc = metro().isp(0).localisation();
  double c = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(expected_weighted_gamma(params, loc, c));
    c = c < 1e4 ? c * 1.1 : 0.01;
  }
}
BENCHMARK(BM_ExpectedWeightedGammaClosedForm);

void BM_ExpectedWeightedGammaSeries(benchmark::State& state) {
  const auto params = baliga_params();
  const auto loc = metro().isp(0).localisation();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        expected_weighted_gamma_series(params, loc, 50.0));
  }
}
BENCHMARK(BM_ExpectedWeightedGammaSeries);

void BM_RngPoisson(benchmark::State& state) {
  Rng rng(1);
  const double mean = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.poisson(mean));
  }
}
BENCHMARK(BM_RngPoisson)->Arg(3)->Arg(300);

void BM_TraceGeneration(benchmark::State& state) {
  TraceConfig config;
  config.days = 2;
  config.users = 5000;
  config.exemplar_views = {20000};
  config.catalogue_tail = 200;
  config.tail_views = 10000;
  for (auto _ : state) {
    TraceGenerator gen(config, metro());
    const Trace trace = gen.generate();
    benchmark::DoNotOptimize(trace.size());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(trace.size()));
  }
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

void BM_HybridSimulatorSweep(benchmark::State& state) {
  TraceConfig config;
  config.days = 2;
  config.users = 5000;
  config.exemplar_views = {20000};
  config.catalogue_tail = 200;
  config.tail_views = 10000;
  TraceGenerator gen(config, metro());
  const Trace trace = gen.generate();
  SimConfig sim_config;
  sim_config.collect_hourly = false;
  sim_config.collect_per_user = false;
  sim_config.collect_swarms = false;
  const HybridSimulator sim(metro(), sim_config);
  for (auto _ : state) {
    const auto result = sim.run(TraceView::from_trace(trace));
    benchmark::DoNotOptimize(result.total.total().value());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(trace.size()));
  }
}
BENCHMARK(BM_HybridSimulatorSweep)->Unit(benchmark::kMillisecond);

void BM_HybridSimulatorFullMetrics(benchmark::State& state) {
  TraceConfig config;
  config.days = 2;
  config.users = 5000;
  config.exemplar_views = {20000};
  config.catalogue_tail = 200;
  config.tail_views = 10000;
  TraceGenerator gen(config, metro());
  const Trace trace = gen.generate();
  const HybridSimulator sim(metro(), SimConfig{});
  for (auto _ : state) {
    const auto result = sim.run(TraceView::from_trace(trace));
    benchmark::DoNotOptimize(result.users.size());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(trace.size()));
  }
}
BENCHMARK(BM_HybridSimulatorFullMetrics)->Unit(benchmark::kMillisecond);

}  // namespace
