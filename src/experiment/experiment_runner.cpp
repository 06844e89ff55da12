#include "experiment/experiment_runner.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>

#include "util/error.h"
#include "util/json_writer.h"
#include "util/parallel.h"

namespace cl {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] std::string bench_name(const ExperimentSpec& spec,
                                     const ExperimentCell& cell) {
  return spec.name() + "_" + cell.slug;
}

/// The per-cell BENCH file, in the exact shape bench_json.h's Runner
/// writes (bench / schema_version / threads / wall_seconds / throughput /
/// metrics) so tools/compare_bench_json.py consumes both alike.
void write_cell_json(const std::string& path, const std::string& bench,
                     const CellRunRecord& record, unsigned threads) {
  JsonObject root;
  root.set("bench", bench);
  root.set("schema_version", std::int64_t{1});
  root.set("threads", static_cast<std::int64_t>(threads));
  root.set("wall_seconds", record.wall_seconds);
  if (record.outcome.sessions > 0) {
    root.set("sessions", record.outcome.sessions);
    root.set("sessions_per_second",
             record.wall_seconds > 0
                 ? record.outcome.sessions / record.wall_seconds
                 : 0.0);
  }
  root.set("metrics", record.outcome.metrics);
  std::ofstream out(path);
  out << root.render() << "\n";
  if (!out.good()) {
    throw IoError("cannot write cell result file '" + path + "'");
  }
}

inline constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// One shared stage item: a distinct trace or simulation.
struct SharedItem {
  std::size_t cell = 0;     ///< the first cell that reads it (its inputs)
  std::size_t readers = 0;  ///< cells reading it whose tails are still due
  double share = 0;         ///< its stage time over its readers
};

/// Which cells share which trace and simulation: cells with equal
/// trace_key / simulation_key (cell_runner.h) share one.
struct SharedPlan {
  std::vector<SharedItem> traces;
  std::vector<SharedItem> simulations;
  std::vector<std::size_t> cell_trace;  ///< per cell: its trace, or kNone
  std::vector<std::size_t> cell_sim;  ///< per cell: its simulation, or kNone
};

/// Finds `key` in `ids` or appends a new item for `cell`; counts the
/// reader either way and returns the item's index.
template <typename Key>
std::size_t add_reader(std::map<Key, std::size_t>& ids,
                  std::vector<SharedItem>& items, const Key& key,
                  std::size_t cell) {
  const auto [it, added] = ids.try_emplace(key, items.size());
  if (added) items.push_back(SharedItem{cell});
  ++items[it->second].readers;
  return it->second;
}

[[nodiscard]] SharedPlan plan_shared_work(
    const std::vector<ExperimentCell>& cells) {
  SharedPlan plan;
  std::map<TraceKey, std::size_t> trace_ids;
  std::map<SimulationKey, std::size_t> sim_ids;
  for (const ExperimentCell& cell : cells) {
    const CellConfig& config = cell.config;
    plan.cell_trace.push_back(
        config.generates_trace()
            ? add_reader(trace_ids, plan.traces, trace_key(config), cell.index)
            : kNone);
    plan.cell_sim.push_back(
        config.simulate ? add_reader(sim_ids, plan.simulations,
                                     simulation_key(config), cell.index)
                        : kNone);
  }
  return plan;
}

/// Runs fn(i, inner) for every i in [0, n): up to `total` items at once,
/// each on the leftover share of the threads. The split affects only
/// wall time — every stage is bit-identical at any thread count.
template <typename Fn>
void run_stage(std::size_t n, unsigned total, Fn&& fn) {
  if (n == 0) return;
  const unsigned outer =
      static_cast<unsigned>(std::min<std::size_t>(total, n));
  const unsigned inner = std::max(1u, total / outer);
  parallel_for_dynamic(n, outer, [&](std::size_t i) { fn(i, inner); });
}

}  // namespace

void print_matrix(std::ostream& out, const ExperimentSpec& spec) {
  const std::vector<ExperimentCell> cells = spec.cells();
  out << "experiment '" << spec.name() << "': " << cells.size() << " cell"
      << (cells.size() == 1 ? "" : "s");
  if (!spec.axes().empty()) {
    out << " over " << spec.axes().size() << " ax"
        << (spec.axes().size() == 1 ? "is" : "es");
  }
  out << "\n";
  if (!spec.description().empty()) {
    out << "  " << spec.description() << "\n";
  }
  for (const ExperimentAxis& axis : spec.axes()) {
    out << "  axis " << axis.name << ":";
    for (const std::string& value : axis.values) out << " " << value;
    out << "\n";
  }
  for (const ExperimentCell& cell : cells) {
    out << "  [" << cell.index << "] " << cell.slug << "\n";
  }
}

ExperimentRunResult run_experiment(const ExperimentSpec& spec,
                                   const ExperimentRunConfig& config,
                                   std::ostream* progress) {
  const auto run_start = Clock::now();
  const std::vector<ExperimentCell> cells = spec.cells();
  std::filesystem::create_directories(config.out_dir);
  SharedPlan plan = plan_shared_work(cells);
  if (progress != nullptr) {
    *progress << cells.size() << " cells: " << plan.traces.size()
              << " traces, " << plan.simulations.size() << " simulations\n";
  }

  // Shared stages: each distinct trace once, then each distinct
  // simulation once, reading its trace by const reference.
  const unsigned total = resolve_threads(config.threads);
  ExperimentRunResult run;
  run.traces = plan.traces.size();
  run.simulations = plan.simulations.size();
  const auto shared_start = Clock::now();
  std::vector<Trace> traces(plan.traces.size());
  run_stage(traces.size(), total, [&](std::size_t t, unsigned inner) {
    const auto start = Clock::now();
    SharedItem& item = plan.traces[t];
    traces[t] = make_cell_trace(cells[item.cell].config, inner);
    item.share = seconds_since(start) / item.readers;
  });
  run.trace_seconds = seconds_since(shared_start);
  std::vector<SimulateRun> runs(plan.simulations.size());
  run_stage(runs.size(), total, [&](std::size_t s, unsigned inner) {
    const auto start = Clock::now();
    SharedItem& item = plan.simulations[s];
    runs[s] = simulate_cell(cells[item.cell].config,
                            traces[plan.cell_trace[item.cell]], inner);
    item.share = seconds_since(start) / item.readers;
  });
  run.simulate_seconds = seconds_since(shared_start) - run.trace_seconds;

  // Per-cell tails. A trace or simulation is freed as soon as the last
  // tail reading it finishes.
  std::mutex mutex;  // guards the reader counts and progress
  run.cells.resize(cells.size());
  run_stage(cells.size(), total, [&](std::size_t i, unsigned inner) {
    const auto tail_start = Clock::now();
    const std::size_t t = plan.cell_trace[i];
    const std::size_t s = plan.cell_sim[i];
    CellRunRecord& record = run.cells[i];
    record.cell = cells[i];
    record.outcome =
        finish_cell(cells[i].config, t == kNone ? nullptr : &traces[t],
                    s == kNone ? nullptr : &runs[s], inner);
    record.wall_seconds = seconds_since(tail_start);
    if (t != kNone) record.wall_seconds += plan.traces[t].share;
    if (s != kNone) record.wall_seconds += plan.simulations[s].share;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (t != kNone && --plan.traces[t].readers == 0) traces[t] = Trace{};
      if (s != kNone && --plan.simulations[s].readers == 0) {
        runs[s] = SimulateRun{};
      }
    }
    record.file = "BENCH_" + bench_name(spec, cells[i]) + ".json";
    write_cell_json(
        (std::filesystem::path(config.out_dir) / record.file).string(),
        bench_name(spec, cells[i]), record, inner);
    if (progress != nullptr) {
      const std::lock_guard<std::mutex> lock(mutex);
      *progress << "  [" << cells[i].index + 1 << "/" << cells.size()
                << "] " << cells[i].slug << "  ("
                << json_number(record.wall_seconds) << " s)\n";
    }
  });
  run.wall_seconds = seconds_since(run_start);

  // The manifest: one BENCH_<spec>.json naming every cell file, itself
  // bench-shaped so the CI gate (--require) covers it too.
  JsonObject manifest;
  manifest.set("bench", spec.name());
  manifest.set("schema_version", std::int64_t{1});
  manifest.set("threads", static_cast<std::int64_t>(total));
  manifest.set("wall_seconds", run.wall_seconds);
  manifest.set("shared_seconds", run.trace_seconds + run.simulate_seconds);
  if (!spec.description().empty()) {
    manifest.set("description", spec.description());
  }
  JsonObject axes;
  for (const ExperimentAxis& axis : spec.axes()) {
    axes.set(axis.name, axis.values);
  }
  manifest.set("axes", axes);
  std::vector<JsonObject> cell_entries;
  for (const CellRunRecord& record : run.cells) {
    JsonObject entry;
    entry.set("index", record.cell.index);
    entry.set("slug", record.cell.slug);
    entry.set("bench", bench_name(spec, record.cell));
    entry.set("file", record.file);
    cell_entries.push_back(std::move(entry));
  }
  manifest.set("cells", cell_entries);
  JsonObject metrics;
  metrics.set("cells", static_cast<std::int64_t>(run.cells.size()));
  metrics.set("axes", static_cast<std::int64_t>(spec.axes().size()));
  metrics.set("traces", static_cast<std::int64_t>(run.traces));
  metrics.set("simulations", static_cast<std::int64_t>(run.simulations));
  manifest.set("metrics", metrics);

  run.manifest_path =
      (std::filesystem::path(config.out_dir) /
       ("BENCH_" + spec.name() + ".json"))
          .string();
  std::ofstream out(run.manifest_path);
  out << manifest.render() << "\n";
  if (!out.good()) {
    throw IoError("cannot write manifest '" + run.manifest_path + "'");
  }
  return run;
}

}  // namespace cl
