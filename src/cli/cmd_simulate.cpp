// cmd_simulate — loads a trace, runs the shared pipeline and prints it.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "cli/cli_common.h"
#include "cli/commands.h"
#include "core/pipeline.h"
#include "core/report.h"

namespace cl::cli {

namespace {

void print_timing(std::ostream& out, const char* label, double seconds) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "timing: %-10s %9.3f s", label,
                seconds);
  out << buffer << "\n";
}

}  // namespace

int cmd_simulate(const Args& args) {
  validate_intensity_flag(args);
  const ScheduleMode schedule = schedule_from(args);
  const bool want_timing = args.has("timing");
  using Clock = std::chrono::steady_clock;

  // `.cltrace` input maps zero-copy — the simulator consumes the file's
  // column blocks directly, so "load" is just mmap + column validation.
  // The one exception: a preload schedule transforms session rows, so
  // that path loads rows and transposes once (the transform's input
  // rows stay alive alongside the view).
  const auto load_start = Clock::now();
  Trace rows;
  TraceView view;
  if (schedule_preloads(schedule)) {
    rows = load_or_generate(args);
    view = TraceView::from_trace(rows, threads_from(args));
  } else {
    view = load_view_or_generate(args);
  }
  const double load_seconds =
      std::chrono::duration<double>(Clock::now() - load_start).count();

  const Metro& metro = resolve_metro(args, view.metro_name());
  const IntensityCurve* intensity = intensity_from(args, metro.name());
  const Analyzer analyzer(metro, sim_config_from(args));
  std::cout << "\nsessions: " << view.size() << ", span "
            << view.span().value() / 86400.0 << " days, metro "
            << metro.name() << "\n\n";

  // One simulator run feeds every report flavour (core/pipeline.h).
  SimPhaseTiming timing;
  const SimulateRun run = run_simulate(analyzer, view, intensity,
                                       args.has("overload"),
                                       want_timing ? &timing : nullptr);

  if (want_timing) {
    print_timing(std::cout, "load", load_seconds);
    print_timing(std::cout, "group", timing.group_seconds);
    print_timing(std::cout, "sweep", timing.sweep_seconds);
    // Per-kernel split of the sweep (sim/sweep_kernels.h) — CPU seconds
    // summed across workers, so the four can exceed the sweep wall time
    // when --threads > 1.
    print_timing(std::cout, "  gather1", timing.sweep_gather1_seconds);
    print_timing(std::cout, "  gather2", timing.sweep_gather2_seconds);
    print_timing(std::cout, "  events", timing.sweep_events_seconds);
    print_timing(std::cout, "  allocate", timing.sweep_allocate_seconds);
    // Which route swept each stretch: the count route (existence
    // matcher, single-ISP swarm) or the per-peer one; `allocate` times
    // only the latter.
    std::cout << "timing:   stretches  count " << timing.count_stretches
              << ", per-peer " << timing.per_peer_stretches
              << ", overload-split " << timing.overload_split_stretches
              << "\n";
    print_timing(std::cout, "merge", timing.merge_seconds);
    std::cout << "\n";
  }

  print_aggregate(std::cout, run.aggregate);
  if (run.config.overload) {
    std::cout << "\noverload: "
              << run.result.overload_spill.value() / 8e9
              << " GB of peer demand spilled back to the CDN\n";
  }
  if (intensity) {
    std::cout << "\ncarbon under intensity " << intensity->name() << " (mean "
              << intensity->mean() << " gCO2/kWh, min " << intensity->min()
              << ", max " << intensity->max() << "):\n";
    print_carbon_report(std::cout, run.carbon);
  }

  if (schedule != ScheduleMode::kOff) {
    // Everything above is byte-identical to the unscheduled run — the
    // schedule section only *appends*, and under a flat curve the
    // scheduler is inert so the appended numbers repeat the unscheduled
    // ones exactly (the flat no-op contract, DESIGN.md §11).
    const CarbonScheduler scheduler(*intensity, schedule_config_from(args));
    const ScheduleRun scheduling =
        run_schedule(analyzer, scheduler, schedule, run.result, rows,
                     seed_from(args, TraceConfig{}.seed), run.config);
    std::cout << "\n";
    print_schedule_report(std::cout, scheduler, schedule, run.result,
                          scheduling);
  }
  return 0;
}

}  // namespace cl::cli
