#include "harness.h"

#include <algorithm>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Span names whose time is a per-layer metric ("<span>_s").
const std::vector<std::string>& timed_spans() {
  static const std::vector<std::string> names{
      "trace.users",     "trace.generate", "trace.index",
      "trace.write",     "trace.open",     "trace.transpose",
      "sim.run",         "core.aggregate", "core.carbon_report",
      "core.ledger",     "carbon.preload", "carbon.route",
      "ext.flash_crowd", "ext.edge_cache"};
  return names;
}

/// Layers whose 1-thread ÷ N-thread time is reported as "<layer>.scaling".
const std::vector<std::string>& scaled_layers() {
  static const std::vector<std::string> names{"trace", "sim", "core",
                                              "carbon", "experiment"};
  return names;
}

constexpr int kSetupIteration = -1;
constexpr int kReferenceIteration = 0;
/// Probe repeats get ids kFirstProbe, kFirstProbe - 1, ...
constexpr int kFirstProbe = -2;
constexpr int kProbeRepeats = 5;

/// A workload with its inputs generated and its 1-thread reference.
struct Prepared {
  std::unique_ptr<Workload> workload;
  Output reference;
  double seconds = 0;
};

/// One full set-up: generate and persist the inputs at the workload's
/// thread count, then compute the 1-thread reference the check needs.
/// The reference must itself satisfy the invariants and bands.
Prepared set_up(const RunConfig& config, Tracer* tracer) {
  const auto start = Clock::now();
  Prepared prepared;
  prepared.workload = make_workload(config.workload, config.params);
  Context ctx;
  ctx.threads = config.threads;
  Context reference_ctx;
  reference_ctx.threads = 1;
  if (tracer != nullptr) {
    const int root = tracer->open("setup", -1, kSetupIteration);
    ctx.scope = {tracer, root, kSetupIteration};
    prepared.workload->prepare(ctx);
    tracer->close(root);
    const int reference_root =
        tracer->open("reference", -1, kReferenceIteration);
    reference_ctx.scope = {tracer, reference_root, kReferenceIteration};
    prepared.reference = prepared.workload->iterate(reference_ctx);
    tracer->close(reference_root);
  } else {
    prepared.workload->prepare(ctx);
    prepared.reference = prepared.workload->iterate(reference_ctx);
  }
  if (!prepared.reference.file.empty()) {
    prepared.reference.file_hash = hash_file(prepared.reference.file);
  }
  // Checked against itself, the reference faces only the invariants and
  // the bands.
  Output copy = prepared.reference;
  const std::vector<std::string> failures =
      check_output(copy, prepared.reference, prepared.workload->bands());
  if (!failures.empty()) {
    throw std::runtime_error("the 1-thread reference fails its check: " +
                             failures.front());
  }
  prepared.seconds = seconds_between(start, Clock::now());
  return prepared;
}

/// Where a timed loop puts what it measured.
struct Samples {
  std::vector<double> seconds;             ///< passing iterations only
  std::vector<int> iterations;             ///< their ids
  std::vector<cl::SimPhaseTiming> phases;  ///< traced loops only
  std::vector<std::vector<double>> cells;  ///< traced loops: per-cell times
  Output last;                             ///< the last passing output
};

/// Times iterations until `seconds` have passed (and at least 3 ran).
void timed_loop(Prepared& prepared, const RunConfig& config, double seconds,
                Tracer* tracer, int& next_iteration, RunReport& report,
                Samples& samples) {
  const auto start = Clock::now();
  for (int count = 0;
       count < 3 || seconds_between(start, Clock::now()) < seconds; ++count) {
    cl::SimPhaseTiming timing;
    std::vector<double> cells;
    Context ctx;
    ctx.threads = config.threads;
    if (tracer != nullptr) {
      ctx.timing = &timing;
      ctx.cell_seconds = &cells;
    }
    const int iteration = next_iteration++;
    IterationResult result = run_iteration(
        *prepared.workload, ctx, prepared.reference, tracer, iteration);
    ++report.attempted;
    if (!result.failures.empty()) {
      ++report.failed;
      report.correct = false;
      report.lines.push_back("iteration " + std::to_string(iteration) +
                             " failed: " + result.failures.front());
      continue;
    }
    samples.seconds.push_back(result.seconds);
    samples.iterations.push_back(iteration);
    samples.phases.push_back(timing);
    samples.cells.push_back(std::move(cells));
    samples.last = std::move(result.output);
  }
}

std::string fixed(double value, int digits = 4) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(digits);
  out << value;
  return out.str();
}

/// Iterations that failed the check or threw, over iterations attempted.
std::string failed_share_line(const RunReport& report) {
  const double share =
      static_cast<double>(report.failed) / std::max(1, report.attempted);
  return "failed_share " + fixed(share) + " (" +
         std::to_string(report.failed) + " of " +
         std::to_string(report.attempted) + " iterations)";
}

std::string shape_line(const RunConfig& config, const Shape& shape) {
  std::ostringstream line;
  line << "workload " << config.workload << ": seed " << config.params.seed
       << ", threads " << config.threads << ", input " << shape.input
       << ", sessions " << fixed(shape.sessions, 0) << ", swarms "
       << fixed(shape.swarms, 0) << ", largest swarm "
       << fixed(shape.max_swarm_sessions, 0) << ", cltrace "
       << fixed(shape.file_mb, 2) << " MB";
  return line.str();
}

/// Per-layer metrics from the traced run's spans and phase sinks.
std::map<std::string, double> layer_values(const Tracer& tracer,
                                           const Samples& traced,
                                           const Shape& shape,
                                           double untraced_median) {
  const std::vector<Span> spans = tracer.spans();
  std::map<int, std::size_t> slot;  // traced iteration id → sample slot
  for (std::size_t i = 0; i < traced.iterations.size(); ++i) {
    slot[traced.iterations[i]] = i;
  }
  std::map<std::string, double> values;

  // A layer call's time: its median per-iteration total when iterations
  // make the call, else its median per-probe total when probes make it,
  // else its total in set-up.
  for (const std::string& name : timed_spans()) {
    std::vector<double> per_iteration(traced.iterations.size(), 0.0);
    std::vector<double> per_probe(kProbeRepeats, 0.0);
    bool in_iterations = false, in_probes = false;
    double in_setup = 0;
    for (const Span& span : spans) {
      if (span.name != name) continue;
      const int probe = kFirstProbe - span.iteration;
      if (const auto it = slot.find(span.iteration); it != slot.end()) {
        per_iteration[it->second] += span.seconds();
        in_iterations = true;
      } else if (probe >= 0 && probe < kProbeRepeats) {
        per_probe[static_cast<std::size_t>(probe)] += span.seconds();
        in_probes = true;
      } else if (span.iteration == kSetupIteration) {
        in_setup += span.seconds();
      }
    }
    values[name + "_s"] = in_iterations ? median(per_iteration)
                          : in_probes   ? median(per_probe)
                                        : in_setup;
  }

  std::vector<double> cell_p50, cell_max;
  for (const std::vector<double>& cells : traced.cells) {
    if (cells.empty()) continue;
    cell_p50.push_back(median(cells));
    cell_max.push_back(*std::max_element(cells.begin(), cells.end()));
  }
  values["experiment.cell_p50_s"] = median(cell_p50);
  values["experiment.cell_max_s"] = median(cell_max);

  auto phase = [&](double cl::SimPhaseTiming::*field) {
    std::vector<double> samples;
    for (const cl::SimPhaseTiming& timing : traced.phases) {
      samples.push_back(timing.*field);
    }
    return median(samples);
  };
  values["sim.group_s"] = phase(&cl::SimPhaseTiming::group_seconds);
  values["sim.sweep_s"] = phase(&cl::SimPhaseTiming::sweep_seconds);
  values["sim.merge_s"] = phase(&cl::SimPhaseTiming::merge_seconds);
  values["sim.gather1_cpu_s"] =
      phase(&cl::SimPhaseTiming::sweep_gather1_seconds);
  values["sim.gather2_cpu_s"] =
      phase(&cl::SimPhaseTiming::sweep_gather2_seconds);
  values["sim.events_cpu_s"] = phase(&cl::SimPhaseTiming::sweep_events_seconds);
  values["sim.allocate_cpu_s"] =
      phase(&cl::SimPhaseTiming::sweep_allocate_seconds);

  // Scaling: the layer's total in the 1-thread reference over the time
  // its spans cover in a workload-thread-count iteration.
  for (const std::string& layer : scaled_layers()) {
    double one_thread = 0;
    for (const Span& span : spans) {
      if (span.iteration == kReferenceIteration && span.parent != -1 &&
          span.layer() == layer) {
        one_thread += span.seconds();
      }
    }
    std::vector<double> n_threads;
    for (const int iteration : traced.iterations) {
      std::vector<std::pair<double, double>> intervals;
      for (const Span& span : spans) {
        if (span.iteration == iteration && span.parent != -1 &&
            span.layer() == layer) {
          intervals.emplace_back(span.start, span.end);
        }
      }
      n_threads.push_back(covered_seconds(std::move(intervals)));
    }
    const double n = median(n_threads);
    values[layer + ".scaling"] = one_thread > 0 && n > 0 ? one_thread / n : 0;
  }

  values["trace.file_mb"] = shape.file_mb;
  values["trace.sessions"] = shape.sessions;
  values["trace.swarms"] = shape.swarms;
  values["trace.max_swarm_sessions"] = shape.max_swarm_sessions;
  for (const auto& [name, count] : shape.counts) values[name] = count;

  // Layer spans are the iteration root's direct children, so the part of
  // the root they cover is the share layer self times account for.
  std::vector<double> shares;
  for (std::size_t id = 0; id < spans.size(); ++id) {
    const Span& span = spans[id];
    if (span.parent != -1 || !slot.contains(span.iteration)) continue;
    shares.push_back(1.0 - tracer.self_seconds(static_cast<int>(id)) /
                               span.seconds());
  }
  values["bench.layer_share"] = median(shares);
  values["bench.trace_overhead_s"] = median(traced.seconds) - untraced_median;
  return values;
}

}  // namespace

IterationResult run_iteration(Workload& workload, Context ctx,
                              const Output& reference, Tracer* tracer,
                              int iteration) {
  IterationResult result;
  int root = -1;
  if (tracer != nullptr) {
    root = tracer->open("iteration", -1, iteration);
    ctx.scope = {tracer, root, iteration};
  }
  const auto start = Clock::now();
  try {
    Output output = workload.iterate(ctx);
    result.seconds = seconds_between(start, Clock::now());
    if (root != -1) tracer->close(root);
    root = -1;
    result.failures = check_output(output, reference, workload.bands());
    result.output = std::move(output);
  } catch (const std::exception& error) {
    result.seconds = seconds_between(start, Clock::now());
    if (root != -1) tracer->close(root);
    result.failures.push_back(std::string("threw: ") + error.what());
  }
  return result;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Below 21 samples the percentile with 10 beyond it would lie under
  // the median; the maximum stands in.
  if (n < 21) return {samples.back(), 100};
  // samples[n - 11] has exactly 10 samples beyond it.
  return {samples[n - 11],
          100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> out;
    for (const std::string& span : timed_spans()) {
      out.emplace_back(span + "_s", "s");
    }
    for (const char* name :
         {"sim.group_s", "sim.sweep_s", "sim.merge_s", "sim.gather1_cpu_s",
          "sim.gather2_cpu_s", "sim.events_cpu_s", "sim.allocate_cpu_s",
          "experiment.cell_p50_s", "experiment.cell_max_s"}) {
      out.emplace_back(name, "s");
    }
    for (const std::string& layer : scaled_layers()) {
      out.emplace_back(layer + ".scaling", "ratio");
    }
    out.emplace_back("trace.file_mb", "MB");
    for (const char* name :
         {"trace.sessions", "trace.swarms", "trace.max_swarm_sessions",
          "ext.flash_segments", "core.ledger_users", "experiment.cells"}) {
      out.emplace_back(name, "count");
    }
    out.emplace_back("bench.layer_share", "ratio");
    out.emplace_back("bench.trace_overhead_s", "s");
    return out;
  }();
  return metrics;
}

RunReport run_benchmark(const RunConfig& config) {
  RunReport report;
  const bool reset = reset_peak_rss();
  int next_iteration = kReferenceIteration + 1;

  if (!config.trace) {
    std::vector<double> setups;
    Prepared prepared;
    for (int i = 0; i < std::max(1, config.setups); ++i) {
      prepared = Prepared{};  // free the previous inputs first
      prepared = set_up(config, nullptr);
      setups.push_back(prepared.seconds);
    }
    report.lines.push_back(shape_line(config, prepared.workload->shape()));
    // peak_rss_mb is the iterations' peak: set-up's (input generation)
    // would otherwise mask it.
    const double setup_peak = peak_rss_mb();
    const bool reset_after_setup = reset && reset_peak_rss();

    Samples samples;
    timed_loop(prepared, config, config.seconds, nullptr, next_iteration,
               report, samples);
    const std::vector<double>& times = samples.seconds;
    const Tail tail_time = tail(times);
    const double peak = peak_rss_mb();
    report.metrics = {
        {"pipeline_s", median(times), "s"},
        {"pipeline_tail_s", tail_time.value, "s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak, "MB"},
    };
    const auto [low, high] = std::minmax_element(times.begin(), times.end());
    report.lines.push_back(
        "pipeline_s " + fixed(median(times)) + " s: median of " +
        std::to_string(times.size()) + " passing iterations" +
        (times.empty() ? ""
                       : " (min " + fixed(*low) + ", max " + fixed(*high) + ")"));
    report.lines.push_back(
        "pipeline_tail_s " + fixed(tail_time.value) + " s: p" +
        fixed(tail_time.percentile, 1) + " of " +
        std::to_string(times.size()) + " samples" +
        (tail_time.percentile < 100
             ? ", 10 beyond it"
             : ", the maximum (under 21 samples, 10 beyond would sit "
               "below the median)"));
    report.lines.push_back("setup_s " + fixed(median(setups)) +
                           " s: median of " + std::to_string(setups.size()) +
                           " set-ups");
    report.lines.push_back(
        "peak_rss_mb " + fixed(peak, 1) + " MB" +
        (reset_after_setup
             ? " (VmHWM reset after set-up: the iterations' peak; set-up "
               "peaked at " + fixed(setup_peak, 1) + " MB)"
             : " (VmHWM reset refused: peak of the whole process)"));
    report.lines.push_back(failed_share_line(report));
    return report;
  }

  Tracer tracer;
  Prepared prepared = set_up(config, &tracer);
  report.lines.push_back(shape_line(config, prepared.workload->shape()));

  Samples untraced, traced;
  traced.last = prepared.reference;
  timed_loop(prepared, config, config.seconds / 2, nullptr, next_iteration,
             report, untraced);
  timed_loop(prepared, config, config.seconds / 2, &tracer, next_iteration,
             report, traced);

  for (int repeat = 0; repeat < kProbeRepeats; ++repeat) {
    const int id = kFirstProbe - repeat;
    Context probe_ctx;
    probe_ctx.threads = config.threads;
    const int probe_root = tracer.open("probe", -1, id);
    probe_ctx.scope = {&tracer, probe_root, id};
    prepared.workload->probe(probe_ctx, traced.last);
    tracer.close(probe_root);
  }

  std::map<std::string, double> values = layer_values(
      tracer, traced, prepared.workload->shape(), median(untraced.seconds));
  for (const auto& [name, unit] : per_layer_metrics()) {
    report.metrics.push_back({name, values[name], unit});
  }
  report.lines.push_back(
      "traced pipeline_s " + fixed(median(traced.seconds)) + " s over " +
      std::to_string(traced.seconds.size()) + " iterations, untraced " +
      fixed(median(untraced.seconds)) + " s over " +
      std::to_string(untraced.seconds.size()));
  for (const Metric& metric : report.metrics) {
    report.lines.push_back("  " + metric.name + " " + fixed(metric.value, 6) +
                           " " + metric.unit);
  }
  report.lines.push_back(failed_share_line(report));
  if (!config.spans_path.empty()) {
    std::ofstream out(config.spans_path);
    tracer.write_jsonl(out);
    report.lines.push_back("spans written to " + config.spans_path);
  }
  return report;
}

}  // namespace perfbench
