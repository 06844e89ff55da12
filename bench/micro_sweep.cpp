// micro_sweep — simulator sweep throughput: the per-peer row path
// (SessionRecord loads + a virtual matcher allocation of every stretch,
// run_rows) vs the columnar SoA path (mmap'd TraceView columns +
// gathered scratch + the count route, run).
//
// This is the bench behind the ROADMAP "zero-materialization sweep"
// item: the acceptance bar is a >= 4x single-thread sessions/s speedup
// for the SoA path on a >= 1M-session trace (CI pins it via
// compare_bench_json.py --min; runs measured 4.8-5.5x, so the floor
// sits clear of run-to-run noise).
// Both paths must produce bit-identical SimResult totals — the bench
// fails hard on divergence. The count route sums lanes in a different
// order than the per-peer fold, so identity holds only because of this
// bench's config: at q/β = 1, Δτ = 10 s and no overload, every per-window
// lane is an integer number of bits (β·Δτ with integer β), and every
// partial and total sum stays an integer below 2^53, so both orders add
// exactly.
//
// Flags beyond the standard --json/--threads:
//   --sessions N   trace size (default 1,000,000)
//   --reps R       timed repetitions per path; best rep wins (default 3)
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <random>
#include <string>

#include "bench_common.h"
#include "bench_json.h"
#include "sim/hybrid_sim.h"
#include "topology/metro_registry.h"
#include "trace/swarm_index.h"
#include "trace/trace_binary.h"
#include "trace/trace_view.h"
#include "util/rng.h"
#include "util/simd.h"

namespace {

using namespace cl;

/// A dense two-day workload with metro-valid ids (not TraceGenerator —
/// this bench times the sweep, not generation): ascending fractional
/// start times, Zipf-ish content skew, ISP/ExP ids drawn from the
/// metro's real trees. Two days rather than a month so swarm concurrency
/// matches the paper-scale workload's — a 1M-session month is so sparse
/// that per-event matching (the thing the SoA path accelerates) barely
/// registers. Deterministic in the seed.
Trace make_sweep_trace(std::size_t sessions, const Metro& metro) {
  Rng rng(20180702);
  Trace trace;
  trace.span = Seconds::from_days(2);
  trace.metro_name = metro.name();
  trace.sessions.reserve(sessions);
  const double mean_gap =
      trace.span.value() / (static_cast<double>(sessions) + 1);
  double start = 0;
  double max_end = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    start += rng.exponential(1.0 / mean_gap);
    SessionRecord s;
    s.user = static_cast<std::uint32_t>(rng.uniform_index(3300000));
    s.household = s.user / 2;
    const double u = rng.uniform();
    s.content = static_cast<std::uint32_t>(u * u * 2000);
    s.isp = static_cast<std::uint32_t>(rng.uniform_index(metro.isp_count()));
    s.exp = static_cast<std::uint32_t>(
        rng.uniform_index(metro.isp(s.isp).exchange_points()));
    s.bitrate = static_cast<BitrateClass>(rng.uniform_index(kBitrateClasses));
    s.start = start;
    s.duration = rng.uniform(60.0, 5400.0);
    max_end = std::max(max_end, s.end());
    trace.sessions.push_back(s);
  }
  if (max_end > trace.span.value()) trace.span = Seconds{max_end};
  trace.swarm_index = build_swarm_index(trace);
  return trace;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// FNV-1a over the bit patterns of the result's headline doubles — equal
/// digests mean the two paths agreed bit-for-bit on every total (exact
/// integer sums in this config; see the header).
std::uint64_t result_digest(const SimResult& result) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](double x) {
    h ^= std::bit_cast<std::uint64_t>(x);
    h *= 1099511628211ULL;
  };
  mix(result.total.server.value());
  for (const Bits& level : result.total.peer) mix(level.value());
  mix(result.total.cross_isp.value());
  mix(result.span.value());
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cl;
  std::int64_t sessions = 1000000;
  std::int64_t reps = 3;
  bench::Runner run("micro_sweep", argc, argv, [&](const Args& args) {
    sessions = args.get_int("sessions", sessions);
    reps = args.get_int("reps", reps);
    if (sessions < 0) throw ParseError("--sessions must be >= 0");
    if (reps < 1) throw ParseError("--reps must be >= 1");
  });
  bench::banner("micro — simulator sweep throughput (row vs SoA columns)",
                "acceptance bar: >= 4x single-thread sessions/s for the "
                "SoA sweep on a >= 1M-session trace");

  const Metro& metro = MetroRegistry::instance().get(kDefaultMetroName);
  const Trace trace =
      make_sweep_trace(static_cast<std::size_t>(sessions), metro);
  run.set_items(static_cast<double>(trace.size()), "sessions");
  std::cout << "trace: " << trace.size() << " sessions, "
            << trace.span.value() / 86400.0 << " days, "
            << trace.swarm_index.groups.size() << " swarms, metro "
            << metro.name() << ", threads " << run.resolved_threads()
            << ", best of " << reps << " reps\n\n";

  // The SoA path sweeps the mmap'd columns of a real `.cltrace` file —
  // the deployment shape — while the row path replays the in-memory
  // row-structured Trace. Load/mmap time is *excluded* from both (that
  // is micro_trace_io's subject); only the simulate call is timed.
  namespace fs = std::filesystem;
  const std::string bin_path =
      (fs::temp_directory_path() /
       ("cl_micro_sweep_" + std::to_string(std::random_device{}()) +
        ".cltrace"))
          .string();
  write_trace_binary_file(bin_path, trace);
  const TraceView view = TraceView::open_binary(bin_path, run.threads());

  // Pure sweep: the metric-collection toggles (per-user sums, hourly
  // grids, per-swarm rows) cost the same on both paths and would only
  // dilute the row-vs-SoA contrast this bench exists to measure.
  SimConfig config;
  config.threads = run.threads();
  config.collect_swarms = false;
  config.collect_per_user = false;
  config.collect_hourly = false;
  const HybridSimulator sim(metro, config);

  double row_best = -1;
  double soa_best = -1;
  std::uint64_t row_digest = 0;
  std::uint64_t soa_digest = 0;
  for (std::int64_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const SimResult result = sim.run_rows(trace);
    const double wall = seconds_since(t0);
    row_digest = result_digest(result);
    if (row_best < 0 || wall < row_best) row_best = wall;
  }
  for (std::int64_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const SimResult result = sim.run(view);
    const double wall = seconds_since(t0);
    soa_digest = result_digest(result);
    if (soa_best < 0 || wall < soa_best) soa_best = wall;
  }
  // One extra instrumented rep for the per-kernel split (the timing sink
  // adds clock reads to the sweep hot path, so it stays out of the timed
  // reps above; regressions still localize to a kernel from this rep).
  SimPhaseTiming phases;
  (void)sim.run(view, &phases);
  fs::remove(bin_path);

  if (row_digest != soa_digest) {
    std::cerr << "error: row and SoA paths diverged (digest "
              << row_digest << " vs " << soa_digest
              << ") — both sum exact integers here and must agree\n";
    return 1;
  }

  const double n = static_cast<double>(trace.size());
  const double row_rate = row_best > 0 ? n / row_best : 0;
  const double soa_rate = soa_best > 0 ? n / soa_best : 0;
  const double speedup = row_rate > 0 ? soa_rate / row_rate : 0;

  std::cout << "  path          simulate s   sessions/s\n";
  std::printf("  rows (AoS)    %9.3f   %11.0f\n", row_best, row_rate);
  std::printf("  columns (SoA) %9.3f   %11.0f\n", soa_best, soa_rate);
  std::printf("\n  sweep speedup (SoA/rows): %.1fx  (results bit-identical)\n",
              speedup);
  std::printf(
      "\n  SoA per-kernel split (instrumented rep, simd backend: %s)\n"
      "    gather1  %7.3f s   gather2  %7.3f s\n"
      "    events   %7.3f s   allocate %7.3f s\n",
      cl::simd::kBackendName, phases.sweep_gather1_seconds,
      phases.sweep_gather2_seconds, phases.sweep_events_seconds,
      phases.sweep_allocate_seconds);
  if (speedup < 4.0 && trace.size() >= 1000000 && run.resolved_threads() == 1) {
    std::cout << "  WARNING: below the 4x acceptance bar (SoA sweep)\n";
  }

  run.metrics().set("row_sessions_per_second", row_rate);
  run.metrics().set("soa_sessions_per_second", soa_rate);
  run.metrics().set("soa_over_row_speedup", speedup);
  run.metrics().set("row_simulate_seconds", row_best);
  run.metrics().set("soa_simulate_seconds", soa_best);
  run.metrics().set("soa_gather1_seconds", phases.sweep_gather1_seconds);
  run.metrics().set("soa_gather2_seconds", phases.sweep_gather2_seconds);
  run.metrics().set("soa_events_seconds", phases.sweep_events_seconds);
  run.metrics().set("soa_allocate_seconds", phases.sweep_allocate_seconds);
  return run.finish();
}
