// cell_runner.h — executes ExperimentCells against the library, in stages.
//
// A cell's work splits into three stage functions, so that cells with
// identical inputs can share them (experiment_runner.h plans that):
//
//   make_cell_trace  the trace `cl simulate` generates for the same flags,
//                    preloaded when the cell asks for it;
//   simulate_cell    the same pipeline `cl simulate` calls
//                    (core/pipeline.h) on that trace;
//   finish_cell      the cell's own tail — metrics, schedule, adoption
//                    and edge cache — reading the trace and the
//                    simulation by const reference.
//
// trace_key and simulation_key list everything the first two stages read
// from a cell, so cells with equal keys get equal stage outputs. run_cell
// composes the three stages for one cell; the runner composes the same
// functions over a matrix. A cell's SimResult and metrics therefore match
// the CLI's by construction at every --threads value, shared or not.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>

#include "core/pipeline.h"
#include "experiment/experiment_spec.h"
#include "sim/metrics.h"
#include "trace/session.h"
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

/// The inputs of make_cell_trace: metro, days, scale, seed, preload and,
/// with preload on, its adoption and window (zero when preload is off).
using TraceKey = std::tuple<std::string, double, double, std::uint64_t, bool,
                            double, double, double>;
/// The inputs of simulate_cell: the trace key plus qb, overload and
/// intensity.
using SimulationKey = std::tuple<TraceKey, double, bool, std::string>;

[[nodiscard]] TraceKey trace_key(const CellConfig& config);
[[nodiscard]] SimulationKey simulation_key(const CellConfig& config);

/// Stage 1: the cell's trace on `threads` workers (0 = all cores).
[[nodiscard]] Trace make_cell_trace(const CellConfig& config,
                                    unsigned threads);

/// Stage 2: the cell's simulator run over `rows` (simulate cells only).
[[nodiscard]] SimulateRun simulate_cell(const CellConfig& config,
                                        const Trace& rows, unsigned threads);

/// Stage 3: the cell's own work. `rows` is its trace (null when
/// the cell generates no trace) and `run` its simulation (null when
/// simulate is off).
[[nodiscard]] CellOutcome finish_cell(const CellConfig& config,
                                      const Trace* rows,
                                      const SimulateRun* run,
                                      unsigned threads);

/// Runs one cell with `threads` worker threads (0 = all cores): the three
/// stages in order. Results are bit-identical for every thread count (the
/// determinism contract of every subsystem a cell composes) and depend
/// only on the cell config.
[[nodiscard]] CellOutcome run_cell(const CellConfig& config,
                                   unsigned threads);

}  // namespace cl
