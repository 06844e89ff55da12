// cli_common.h — helpers shared by the CLI subcommands.
#pragma once

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "carbon/intensity_curve.h"
#include "carbon/schedule.h"
#include "sim/hybrid_sim.h"
#include "sim/sim_config.h"
#include "topology/metro_registry.h"
#include "topology/placement.h"
#include "trace/synthetic.h"
#include "trace/trace_format.h"
#include "trace/trace_view.h"
#include "util/args.h"
#include "util/error.h"

namespace cl::cli {

/// The --metro flag value ("london_top5" when absent).
inline std::string metro_flag(const Args& args) {
  return args.get_or("metro", kDefaultMetroName);
}

/// Registry lookup with a CLI-grade error: an unknown name is a hard
/// argument error (exit 2) listing every valid preset.
inline const Metro& metro_by_name(const std::string& name) {
  const MetroRegistry& registry = MetroRegistry::instance();
  if (const Metro* metro = registry.find(name)) return *metro;
  throw ParseError("unknown metro '" + name +
                   "' (valid: " + registry.names_joined() + ")");
}

/// The metro selected by --metro (commands without a trace: generate,
/// model, plan).
inline const Metro& metro_from_flag(const Args& args) {
  return metro_by_name(metro_flag(args));
}

/// The metro a trace-consuming command should analyze with: an explicit
/// --metro wins (with a warning when it contradicts the trace header),
/// then the metro recorded in the trace (`trace_metro`, empty when
/// unknown), then the default. A trace stamped with a metro this build
/// does not know is an error — analyzing it against the wrong tree would
/// be silently wrong.
inline const Metro& resolve_metro(const Args& args,
                                  const std::string& trace_metro) {
  if (args.has("metro")) {
    const std::string name = metro_flag(args);
    if (!trace_metro.empty() && trace_metro != name) {
      std::cerr << "warning: trace was generated for metro '" << trace_metro
                << "'; analyzing with --metro " << name << "\n";
    }
    return metro_by_name(name);
  }
  const MetroRegistry& registry = MetroRegistry::instance();
  if (!trace_metro.empty()) {
    if (const Metro* metro = registry.find(trace_metro)) return *metro;
    throw InvalidArgument("trace was generated for unknown metro '" +
                          trace_metro + "' (valid: " +
                          registry.names_joined() +
                          "); pass --metro to pick the analysis topology");
  }
  return registry.get(kDefaultMetroName);
}

/// The --intensity flag: absent → nullptr (no carbon section is
/// printed, exactly the pre-intensity output). The special value
/// "metro" resolves to the grid registered alongside the selected metro
/// preset (IntensityRegistry::default_for_metro); any other value is a
/// registry preset name or the path of an ElectricityMap-style 24-hour
/// CSV export (IntensityCurve::from_csv — a *measured* curve), and an
/// unknown name that is not a file is a hard argument error listing
/// every valid preset.
inline const IntensityCurve* intensity_from(const Args& args,
                                            const std::string& metro_name) {
  const auto name = args.get("intensity");
  if (!name) return nullptr;
  const IntensityRegistry& registry = IntensityRegistry::instance();
  if (*name == "metro") return &registry.default_for_metro(metro_name);
  if (const IntensityCurve* curve = registry.find(*name)) return curve;
  if (std::filesystem::exists(*name)) {
    // Measured curves load once per path and live for the process, so
    // callers hold long-lived pointers exactly as with registry presets
    // (intensity_from runs twice per command: validate, then resolve).
    static std::map<std::string, IntensityCurve> loaded;
    auto it = loaded.find(*name);
    if (it == loaded.end()) {
      it = loaded.emplace(*name, IntensityCurve::from_csv(*name)).first;
    }
    return &it->second;
  }
  throw ParseError("unknown intensity preset '" + *name +
                   "' (valid: metro, " + registry.names_joined() +
                   ", or the path of a 24-hour intensity CSV)");
}

/// Rejects an unknown --intensity name *before* any expensive trace
/// load/generation (the actual curve resolves after the metro is known —
/// intensity_from). A typo should fail in milliseconds, not minutes.
inline void validate_intensity_flag(const Args& args) {
  (void)intensity_from(args, kDefaultMetroName);
}

/// Parses --schedule; any active mode requires --intensity (a scheduler
/// without a curve has nothing to act on, and guessing one would break
/// the "absent --intensity → pre-intensity output" contract).
inline ScheduleMode schedule_from(const Args& args) {
  const ScheduleMode mode =
      parse_schedule_mode(args.get_or("schedule", "off"));
  if (mode != ScheduleMode::kOff && !args.has("intensity")) {
    throw ParseError(
        "--schedule needs --intensity (the curve the scheduler acts on)");
  }
  return mode;
}

/// Scheduler tunables from the shared flags (--latency-bound overrides
/// the default 30 ms GreenStream-style budget).
inline ScheduleConfig schedule_config_from(const Args& args) {
  ScheduleConfig config;
  config.max_added_latency_ms =
      args.get_double("latency-bound", config.max_added_latency_ms);
  if (config.max_added_latency_ms < 0) {
    throw ParseError("--latency-bound must be >= 0 ms");
  }
  return config;
}

/// Shared --threads knob: worker threads for sharded generation, the
/// simulator's per-swarm sweep, and analysis (0 = all hardware threads;
/// results are bit-identical at any value).
inline unsigned threads_from(const Args& args) {
  const std::int64_t threads = args.get_int("threads", 1);
  if (threads < 0) throw ParseError("--threads must be >= 0");
  return static_cast<unsigned>(threads);
}

/// The --days knob of a command that makes its own trace: finite, at
/// least `min_days` (and above 0) and at most kMaxTraceDays, or an
/// argument error. from_chars accepts "nan" and "inf", which no
/// comparison below rejects on its own.
inline double days_from(const Args& args, double fallback, double min_days) {
  const double days = args.get_double("days", fallback);
  if (!std::isfinite(days) || days <= 0 || days < min_days) {
    std::ostringstream message;
    message << "--days must be finite and ";
    if (min_days > 0) {
      message << ">= " << min_days;
    } else {
      message << "> 0";
    }
    throw ParseError(message.str());
  }
  if (days > kMaxTraceDays) {
    throw ParseError("--days must be <= " + std::to_string(kMaxTraceDays));
  }
  return days;
}

/// Shared --format / --from / --to knobs: "auto" (default) sniffs the
/// `.cltrace` magic when reading and goes by extension when writing.
inline TraceFormat trace_format_from(const Args& args,
                                     const std::string& flag = "format") {
  return trace_format_from_string(args.get_or(flag, "auto"));
}

/// The --seed knob, defaulting to the synthetic generator's master seed:
/// it steers both the no---trace generation fallback and the scheduler's
/// preload draws, so one flag pins a whole run.
inline std::uint64_t seed_from(const Args& args, std::uint64_t fallback) {
  return static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(fallback)));
}

/// The CLI's one trace loader: --trace PATH (CSV or binary, per --format
/// / sniffing), or a scaled synthetic month when the flag is absent
/// (--days / --seed / --metro apply to the generated fallback). Returns
/// the simulator's columns. `.cltrace` input maps zero-copy
/// (TraceView::open_binary), with no row materialization at all; CSV
/// and generated rows are transposed once. Only a caller that
/// transforms sessions (a preload schedule) passes `rows`: the sessions
/// then load as rows into it, and the view is their transpose.
inline TraceView load_trace(const Args& args, Trace* rows = nullptr) {
  const unsigned threads = threads_from(args);
  Trace loaded;
  if (const auto path = args.get("trace")) {
    TraceFormat format = trace_format_from(args);
    if (format == TraceFormat::kAuto) {
      format = sniff_trace_binary(*path) ? TraceFormat::kBinary
                                         : TraceFormat::kCsv;
    }
    if (format == TraceFormat::kBinary && rows == nullptr) {
      return TraceView::open_binary(*path, threads);
    }
    loaded = read_trace_any(*path, format, threads);
  } else {
    TraceConfig config =
        TraceConfig::london_month_scaled(days_from(args, 10, 1));
    config.metro = metro_flag(args);
    config.seed = seed_from(args, config.seed);
    config.threads = threads;
    std::cout << "(no --trace given: generating a scaled synthetic month, "
              << config.days << " days, seed " << config.seed << ", metro "
              << config.metro << ")\n";
    loaded = TraceGenerator(config, metro_by_name(config.metro)).generate();
  }
  if (rows == nullptr) return TraceView::from_trace(loaded, threads);
  *rows = std::move(loaded);
  return TraceView::from_trace(*rows, threads);
}

/// Builds the simulator configuration from the shared flags.
inline SimConfig sim_config_from(const Args& args) {
  SimConfig config;
  config.q_over_beta = args.get_double("qb", 1.0);
  config.threads = threads_from(args);
  config.isp_friendly = !args.has("cross-isp");
  config.split_by_bitrate = !args.has("mixed-bitrate");
  const std::string matcher = args.get_or("matcher", "existence");
  if (matcher == "existence") {
    config.matcher = MatcherKind::kExistence;
  } else if (matcher == "capacity") {
    config.matcher = MatcherKind::kCapacity;
  } else {
    throw ParseError("unknown matcher '" + matcher +
                     "' (existence|capacity)");
  }
  return config;
}

/// One `timing:` line of --timing output.
inline void print_timing(std::ostream& out, const char* label,
                         double seconds) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "timing: %-10s %9.3f s", label,
                seconds);
  out << buffer << "\n";
}

/// The --timing block of `cl simulate` and `cl ledger`: load, then the
/// simulator's phases (docs/CLI.md), then a blank line.
inline void print_sim_timing(std::ostream& out, double load_seconds,
                             const SimPhaseTiming& timing) {
  print_timing(out, "load", load_seconds);
  print_timing(out, "group", timing.group_seconds);
  print_timing(out, "sweep", timing.sweep_seconds);
  // Per-kernel split of the sweep (sim/sweep_kernels.h) — CPU seconds
  // summed across workers, so the four can exceed the sweep wall time
  // when --threads > 1.
  print_timing(out, "  gather1", timing.sweep_gather1_seconds);
  print_timing(out, "  gather2", timing.sweep_gather2_seconds);
  print_timing(out, "  events", timing.sweep_events_seconds);
  print_timing(out, "  allocate", timing.sweep_allocate_seconds);
  // Which route swept each stretch: the count route (existence matcher,
  // single-ISP swarm) or the per-peer one; `allocate` times only the
  // latter.
  out << "timing:   stretches  count " << timing.count_stretches
      << ", per-peer " << timing.per_peer_stretches << ", overload-split "
      << timing.overload_split_stretches << "\n";
  // The fold of the chunk partials on the calling thread, most of it
  // while the sweep still runs, plus the settle after it.
  print_timing(out, "merge", timing.merge_seconds);
  out << "\n";
}

}  // namespace cl::cli
