// cmd_ledger — per-user carbon credit accounting over a trace.
#include <chrono>
#include <iostream>
#include <optional>

#include "cli/cli_common.h"
#include "cli/commands.h"
#include "core/carbon_ledger.h"
#include "core/pipeline.h"
#include "core/report.h"

namespace cl::cli {

int cmd_ledger(const Args& args) {
  validate_intensity_flag(args);
  const ScheduleMode schedule = schedule_from(args);
  const bool want_timing = args.has("timing");
  using Clock = std::chrono::steady_clock;

  // The same load as `cl simulate`: `.cltrace` input maps zero-copy, and
  // only a preload schedule, which transforms session rows, loads rows
  // and transposes them once (cli_common.h load_trace).
  const auto load_start = Clock::now();
  Trace rows;
  const TraceView view =
      load_trace(args, schedule_preloads(schedule) ? &rows : nullptr);
  const double load_seconds =
      std::chrono::duration<double>(Clock::now() - load_start).count();

  const Metro& metro = resolve_metro(args, view.metro_name());
  const IntensityCurve* intensity = intensity_from(args, metro.name());
  // --overload caps peer transfers in both the base run and a preload
  // re-run: both use the analyzer's config.
  SimConfig config = sim_config_from(args);
  config.overload = args.has("overload");
  const Analyzer analyzer(metro, config);
  SimPhaseTiming timing;
  const SimResult base = HybridSimulator(metro, analyzer.sim_config())
                             .run(view, want_timing ? &timing : nullptr);
  if (want_timing) print_sim_timing(std::cout, load_seconds, timing);

  // Under a preload schedule the ledgers account the *scheduled* run —
  // credits should reflect the traffic users actually carried. A flat
  // curve leaves the scheduler inert and the output byte-identical.
  std::optional<CarbonScheduler> scheduler;
  std::optional<ScheduleRun> scheduling;
  if (schedule != ScheduleMode::kOff) {
    scheduler.emplace(*intensity, schedule_config_from(args));
    scheduling = run_schedule(analyzer, *scheduler, schedule, base, rows,
                              seed_from(args, TraceConfig{}.seed),
                              analyzer.sim_config());
  }
  const SimResult& result = scheduling ? scheduling->scheduled(base) : base;

  for (const auto& params : analyzer.models()) {
    const CarbonLedger ledger(result, params);
    std::cout << "\n";
    print_ledger_summary(std::cout, ledger);
    if (intensity) {
      std::cout << "\n";
      print_ledger_carbon(std::cout, ledger, *intensity);
    }
  }

  if (scheduling) {
    std::cout << "\n";
    print_schedule_report(std::cout, *scheduler, schedule, base, *scheduling);
  }
  return 0;
}

int usage(int exit_code) {
  std::cout <<
      R"(consumelocal — carbon-aware hybrid CDN analysis
(reproduction of "Consume Local: Towards Carbon Free Content Delivery",
 ICDCS 2018)

usage: consumelocal COMMAND [flags]

commands:
  generate  --out PATH [--preset london|paper|small] [--metro NAME]
            [--days N] [--seed S] [--users N]
            [--format auto|csv|binary] [--threads N]
                                  write a synthetic workload trace
  convert   --in PATH --out PATH [--from auto|csv|binary]
            [--to auto|csv|binary] [--threads N]
                                  convert between CSV and binary .cltrace
  simulate  [--trace PATH] [--metro NAME] [--format auto|csv|binary]
            [--qb R] [--cross-isp] [--mixed-bitrate] [--overload]
            [--matcher existence|capacity] [--intensity NAME] [--threads N]
            [--schedule off|preload|route|all] [--latency-bound MS]
            [--timing]
                                  aggregate hybrid-vs-CDN savings report
                                  (--timing adds load/group/sweep/merge
                                   wall-time lines; --overload caps peer
                                   transfers at warm upload capacity)
  live      [--preset ramp|spike] [--viewers N] [--start S] [--days D]
            [--seed S] [--metro NAME] [--out PATH] [--trace PATH]
            [--format auto|csv|binary] [--qb R] [--intensity NAME]
            [--threads N]
                                  flash-crowd scenario: burst + churn +
                                  bitrate shift, simulated with the
                                  overload (CDN-spill) model on
  swarm     [--trace PATH] --content ID [--isp I] [--metro NAME] [--qb R]
                                  one swarm, simulation vs closed form
  model     [--capacity C] [--qb R] [--metro NAME] [--intensity NAME]
                                  evaluate Eqs. 3/12/13 (no simulation)
  plan      [--target S] [--qb R] [--minutes M] [--metro NAME]
                                  capacities & popularity for targets
  ledger    [--trace PATH] [--metro NAME] [--qb R] [--intensity NAME]
            [--schedule off|preload|route|all] [--latency-bound MS]
            [--overload] [--timing]
                                  per-user carbon credit ledger
                                  (--overload caps peer transfers as in
                                   simulate; --timing adds the same
                                   wall-time lines as simulate, the
                                   per-user settle counted in merge)
  experiment SPEC.json [--out-dir D] [--threads N] [--dry-run]
                                  expand a JSON experiment spec into its
                                  cell matrix and run every cell in
                                  parallel (one BENCH_<spec>_<cell>.json
                                  per cell + a manifest; --dry-run lists
                                  the matrix without running)

Full flag-by-flag reference with examples: docs/CLI.md (kept in lockstep
with this help text by tools/check_cli_docs.py).

Commands that accept --trace generate a scaled synthetic London month when
the flag is omitted, and read both trace formats: CSV for interchange and
the binary columnar `.cltrace` (mmap-loaded, no parsing — use it for
month-scale traces; "auto" sniffs the format). --threads N shards trace
generation, binary trace loading, the simulator's per-swarm sweep, and
analysis across N workers (0 = all cores); results are bit-identical at
any N.

--metro NAME picks the ISP tree topology preset (trace headers record it;
trace-consuming commands default to the trace's own metro):
)";
  for (const auto& preset : MetroRegistry::instance().presets()) {
    std::cout << "  " << preset.name;
    for (std::size_t pad = preset.name.size(); pad < 14; ++pad) {
      std::cout << ' ';
    }
    std::cout << preset.description << "\n";
  }
  std::cout <<
      R"(
--intensity NAME weights energy by a 24-hour grid carbon-intensity curve
(gCO2/kWh) and adds absolute-gCO2 / weighted-CCT output; "metro" picks
the grid registered alongside the selected metro, and a CSV file path
loads a measured ElectricityMap-style 24-hour export. Presets:
)";
  for (const auto& preset : IntensityRegistry::instance().presets()) {
    std::cout << "  " << preset.name;
    for (std::size_t pad = preset.name.size(); pad < 14; ++pad) {
      std::cout << ' ';
    }
    std::cout << preset.description << "\n";
  }
  std::cout <<
      R"(
--schedule MODE acts on the intensity curve (requires --intensity):
"preload" shifts sessions into the grid's daily trough, "route" serves
each hour from the cleanest metro within the --latency-bound MS added
latency budget (default 30, 25 ms per hop), "all" does both. Under a
flat curve the scheduler is inert and results stay bit-identical to
unscheduled.
)";
  return exit_code;
}

}  // namespace cl::cli
