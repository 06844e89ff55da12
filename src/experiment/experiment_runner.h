// experiment_runner.h — executes an ExperimentSpec's cells in parallel.
//
// The runner plans before it runs: cells with equal trace keys share one
// generated trace, and cells with equal simulation keys share one
// simulator run (cell_runner.h defines both keys). It generates each
// distinct trace once, then runs each distinct simulation once, then
// runs every cell's own tail on them — each stage fanned out over the
// thread budget. Every stage is bit-identical at any thread count, so a
// shared trace or run equals the one a standalone run_cell builds, and
// the manifest and every per-cell file are byte-identical for any worker
// count (except wall times). Each cell writes BENCH_<spec>_<slug>.json
// in the bench_json.h shape, and the run finishes with a
// BENCH_<spec>.json manifest naming every cell file.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "experiment/cell_runner.h"
#include "experiment/experiment_spec.h"

namespace cl {

struct ExperimentRunConfig {
  std::string out_dir = ".";  ///< created if missing
  /// Worker threads (0 = all cores): up to this many traces, simulations
  /// or tails run at once, each on the remaining share of the threads.
  unsigned threads = 0;
};

/// One executed cell, as recorded in the manifest.
struct CellRunRecord {
  ExperimentCell cell;
  CellOutcome outcome;
  std::string file;  ///< BENCH file name (relative to out_dir)
  /// The cell's tail time plus, for each shared trace or simulation it
  /// reads, that stage's time divided by the number of cells reading it.
  double wall_seconds = 0;
};

struct ExperimentRunResult {
  std::vector<CellRunRecord> cells;  ///< in cell-index order
  std::string manifest_path;
  double wall_seconds = 0;
  std::size_t traces = 0;       ///< distinct traces generated
  std::size_t simulations = 0;  ///< distinct simulations run
  double trace_seconds = 0;     ///< wall time of the shared trace stage
  double simulate_seconds = 0;  ///< wall time of the shared simulate stage
};

/// Prints the expanded matrix (the `--dry-run` listing): one line per
/// cell with its slug and axis values, plus the cell count.
void print_matrix(std::ostream& out, const ExperimentSpec& spec);

/// Runs every cell and writes the per-cell files plus the manifest.
/// `progress` (optional) receives a "N cells: T traces, S simulations"
/// line, then one line per finished cell.
[[nodiscard]] ExperimentRunResult run_experiment(
    const ExperimentSpec& spec, const ExperimentRunConfig& config,
    std::ostream* progress = nullptr);

}  // namespace cl
