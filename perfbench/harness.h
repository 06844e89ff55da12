// harness.h — set-up, the timed loop, the traced run and the metrics.
//
// An untraced run (trace = false) sets the workload up `setups` times,
// then repeats the pipeline for `seconds`, and reports the end-to-end
// metrics: pipeline_s (median iteration), pipeline_tail_s, setup_s
// (median set-up) and peak_rss_mb (VmHWM, reset after the last set-up,
// so it is the iterations' peak).
//
// A traced run sets up once with spans on, times half of `seconds`
// untraced and half traced (spans plus the simulator's phase sink), then
// probes, several times, the layers an iteration only reaches inside
// another call. It
// reports the per-layer metrics: span times, the sim phase split, counts,
// per-layer scaling (1-thread reference ÷ workload thread count), the
// share of the iteration the layer spans cover, and the tracing overhead
// (traced minus untraced pipeline median).
#pragma once

#include <string>
#include <vector>

#include "check.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  WorkloadParams params;
  double seconds = 10;
  bool trace = false;
  unsigned threads = 1;   ///< the workload's thread count
  int setups = 3;         ///< untraced runs: set-ups whose median is setup_s
  std::string spans_path;  ///< traced runs: where spans go ("" = nowhere)
};

struct RunReport {
  bool correct = true;
  int attempted = 0;
  int failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;  ///< human-readable record
};

/// One timed iteration: its wall time and the check's verdict.
struct IterationResult {
  double seconds = 0;
  std::vector<std::string> failures;  ///< empty when the iteration passed
  Output output;
};

/// Runs and checks one iteration. A thrown exception fails the iteration
/// (it is reported, not propagated). With a tracer, the iteration gets a
/// root span with id `iteration`.
[[nodiscard]] IterationResult run_iteration(Workload& workload, Context ctx,
                                            const Output& reference,
                                            Tracer* tracer = nullptr,
                                            int iteration = -1);

/// Median of the samples (0 when empty).
[[nodiscard]] double median(std::vector<double> samples);

/// The highest percentile with at least 10 samples beyond it, and that
/// percentile. Below 21 samples that percentile would lie under the
/// median, and the maximum (percentile 100) is returned instead.
struct Tail {
  double value = 0;
  double percentile = 100;
};
[[nodiscard]] Tail tail(std::vector<double> samples);

/// Resets VmHWM (/proc/self/clear_refs), so a workload's peak does not
/// include an earlier workload's. Returns false when the kernel refuses.
bool reset_peak_rss();
/// VmHWM in MiB (0 when /proc/self/status is unreadable).
[[nodiscard]] double peak_rss_mb();

/// The per-layer metrics (name, unit) a traced run reports, in order. A
/// layer that does not run on a workload reports 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

[[nodiscard]] RunReport run_benchmark(const RunConfig& config);

}  // namespace perfbench
