// cell_runner.h — executes one ExperimentCell against the library.
//
// A cell generates the trace `cl simulate` generates for the same flags
// and calls the same pipeline (core/pipeline.h), so its SimResult and
// metrics match the CLI's by construction at every --threads value. A
// cell may also preload its trace, solve adoption and run edge caches.
#pragma once

#include <string>

#include "experiment/experiment_spec.h"
#include "sim/metrics.h"
#include "util/json_writer.h"

namespace cl {

/// Everything one cell run produced.
struct CellOutcome {
  /// Key model outputs, BENCH_*.json "metrics"-object shaped, rendered
  /// with the same deterministic writer the benches use.
  JsonObject metrics;
  double sessions = 0;  ///< sessions simulated (throughput denominator)
  /// The simulator result (CellConfig::simulate cells only) — parity
  /// tests compare it field-for-field against a standalone simulate run.
  SimResult sim;
};

/// Runs one cell with `threads` worker threads (0 = all cores). Results
/// are bit-identical for every thread count (the determinism contract of
/// every subsystem a cell composes) and depend only on the cell config —
/// cells are independent, so the experiment runner executes them
/// concurrently.
[[nodiscard]] CellOutcome run_cell(const CellConfig& config,
                                   unsigned threads);

}  // namespace cl
