// micro_trace_io — trace load/store throughput: CSV (iostream parsing)
// vs the binary columnar `.cltrace` format (mmap, no parsing).
//
// This is the bench behind the ROADMAP "Trace mmap I/O" item: after PR 2
// parallelized the simulator, *loading* a month-scale trace dominated
// end-to-end wall time. The binary format's acceptance bar is a >= 10x
// session-load speedup over CSV on a >= 1M-session trace.
//
// Flags beyond the standard --json/--threads:
//   --sessions N   trace size (default 1,000,000)
//   --reps R       timed repetitions per reader; best rep wins (default 3)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <random>
#include <string>

#include "bench_common.h"
#include "bench_json.h"
#include "trace/trace_binary.h"
#include "trace/trace_io.h"
#include "trace/trace_view.h"
#include "util/rng.h"

namespace {

using namespace cl;

/// A month-shaped trace built directly (not via TraceGenerator — this
/// bench times I/O, not generation): ascending fractional start times,
/// skewed content popularity, full-range ids. Deterministic in the seed.
Trace make_io_trace(std::size_t sessions) {
  Rng rng(20130901);
  Trace trace;
  trace.span = Seconds::from_days(30);
  trace.sessions.reserve(sessions);
  const double mean_gap = trace.span.value() / (static_cast<double>(sessions) + 1);
  double start = 0;
  double max_end = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    start += rng.exponential(1.0 / mean_gap);
    SessionRecord s;
    s.user = static_cast<std::uint32_t>(rng.uniform_index(3300000));
    s.household = s.user / 2;
    // Zipf-ish: squaring a uniform skews toward the popular head.
    const double u = rng.uniform();
    s.content = static_cast<std::uint32_t>(u * u * 2000);
    s.isp = static_cast<std::uint32_t>(rng.uniform_index(5));
    s.exp = static_cast<std::uint32_t>(rng.uniform_index(30));
    s.bitrate = static_cast<BitrateClass>(rng.uniform_index(kBitrateClasses));
    s.start = start;
    s.duration = rng.uniform(60.0, 5400.0);
    max_end = std::max(max_end, s.end());
    trace.sessions.push_back(s);
  }
  // Grow the span over the random walk's overhang (validate() requires
  // every session to end inside it).
  if (max_end > trace.span.value()) trace.span = Seconds{max_end};
  return trace;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cl;
  std::int64_t sessions = 1000000;
  std::int64_t reps = 3;
  bench::Runner run("micro_trace_io", argc, argv, [&](const Args& args) {
    sessions = args.get_int("sessions", sessions);
    reps = args.get_int("reps", reps);
    if (sessions < 0) throw ParseError("--sessions must be >= 0");
    if (reps < 1) throw ParseError("--reps must be >= 1");
  });
  bench::banner("micro — trace I/O throughput (CSV vs binary .cltrace)",
                "acceptance bar: >= 10x session-load throughput for the "
                "mmap binary reader on a >= 1M-session trace");

  const Trace trace = make_io_trace(static_cast<std::size_t>(sessions));
  run.set_items(static_cast<double>(trace.size()), "sessions");
  std::cout << "trace: " << trace.size() << " sessions, "
            << trace.span.value() / 86400.0 << " days, threads "
            << run.resolved_threads() << ", best of " << reps << " reps\n\n";

  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path();
  // Portable unique suffix (no <unistd.h>): concurrent runs must not
  // clobber each other's temp files.
  const std::string tag = std::to_string(std::random_device{}());
  const std::string csv_path =
      (dir / ("cl_micro_trace_io_" + tag + ".csv")).string();
  const std::string bin_path =
      (dir / ("cl_micro_trace_io_" + tag + ".cltrace")).string();

  const auto w0 = std::chrono::steady_clock::now();
  write_trace_file(csv_path, trace);
  const double csv_write = seconds_since(w0);
  const auto w1 = std::chrono::steady_clock::now();
  write_trace_binary_file(bin_path, trace);
  const double bin_write = seconds_since(w1);

  const double csv_bytes = static_cast<double>(fs::file_size(csv_path));
  const double bin_bytes = static_cast<double>(fs::file_size(bin_path));

  double csv_read = -1;
  double bin_read = -1;
  std::size_t csv_loaded = 0;
  std::size_t bin_loaded = 0;
  for (std::int64_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const Trace loaded = read_trace_file(csv_path);
    const double wall = seconds_since(t0);
    csv_loaded = loaded.size();
    if (csv_read < 0 || wall < csv_read) csv_read = wall;
  }
  for (std::int64_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const Trace loaded = read_trace_binary_file(bin_path, run.threads());
    const double wall = seconds_since(t0);
    bin_loaded = loaded.size();
    if (bin_read < 0 || wall < bin_read) bin_read = wall;
  }
  fs::remove(csv_path);
  fs::remove(bin_path);
  if (csv_loaded != trace.size() || bin_loaded != trace.size()) {
    std::cerr << "error: round-trip lost sessions (csv " << csv_loaded
              << ", binary " << bin_loaded << ", expected " << trace.size()
              << ")\n";
    return 1;
  }

  const double n = static_cast<double>(trace.size());
  const double csv_rate = csv_read > 0 ? n / csv_read : 0;
  const double bin_rate = bin_read > 0 ? n / bin_read : 0;
  const double speedup = csv_rate > 0 ? bin_rate / csv_rate : 0;

  std::cout << "  format   size/session   write s   load s   sessions/s\n";
  std::printf("  csv      %8.1f B   %9.3f  %8.3f   %11.0f\n",
              csv_bytes / n, csv_write, csv_read, csv_rate);
  std::printf("  binary   %8.1f B   %9.3f  %8.3f   %11.0f\n",
              bin_bytes / n, bin_write, bin_read, bin_rate);
  std::printf("\n  load speedup (binary/csv): %.1fx\n", speedup);
  if (speedup < 10.0 && trace.size() >= 1000000) {
    std::cout << "  WARNING: below the 10x acceptance bar\n";
  }

  run.metrics().set("csv_load_sessions_per_second", csv_rate);
  run.metrics().set("binary_load_sessions_per_second", bin_rate);
  run.metrics().set("binary_over_csv_load_speedup", speedup);
  run.metrics().set("csv_write_seconds", csv_write);
  run.metrics().set("binary_write_seconds", bin_write);
  run.metrics().set("csv_bytes_per_session", csv_bytes / n);
  run.metrics().set("binary_bytes_per_session", bin_bytes / n);
  return run.finish();
}
