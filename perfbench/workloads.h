// workloads.h — the benchmark's named pipeline workloads.
//
// Each workload calls the library's public entry points in the order the
// CLI commands call them (see BENCHMARK.json for why each was chosen):
//
//   paper_replay    open_binary → run → aggregate + carbon_report on a
//                   paper-density trace persisted in set-up
//                   (`cl simulate --intensity metro`)
//   paper_generate  TraceGenerator → generate → build_swarm_index →
//                   write_trace_binary_file → open_binary → run →
//                   aggregate (`cl generate --preset paper --format
//                   binary` then `cl simulate`)
//   flash_ledger    from_trace → run (overload, per-user, hourly) →
//                   aggregate → CarbonLedger per model → schedule_preload
//                   → run → plan_routes + assess (`cl live` / `cl ledger`)
//   spec_matrix     run_experiment over perfbench/spec_matrix.json
//                   (`cl experiment`)
//
// The workload seed is the only source of randomness; the library only
// receives the generated inputs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check.h"
#include "sim/hybrid_sim.h"
#include "tracer.h"

namespace perfbench {

/// Input sizes. `full()` is what the benchmark measures; `tiny()` is what
/// the benchmark's own test runs.
struct Scale {
  double replay_days = 0;      ///< paper_replay trace span (paper density)
  double generate_days = 0;    ///< paper_generate trace span (paper density)
  std::uint32_t flash_viewers = 0;  ///< flash_ledger spike audience
  double spec_days = 0;        ///< spec_matrix per-cell trace span
  double spec_scale = 1;       ///< spec_matrix population multiplier

  [[nodiscard]] static Scale full();
  [[nodiscard]] static Scale tiny();
};

/// How one pipeline call runs: its thread count, where its spans go, and
/// (traced runs only) the simulator's phase-timing sink and the
/// experiment runner's per-cell wall times.
struct Context {
  unsigned threads = 1;
  SpanScope scope;
  cl::SimPhaseTiming* timing = nullptr;  ///< summed over every run() call
  std::vector<double>* cell_seconds = nullptr;  ///< CellRunRecord::wall_seconds
};

/// What identifies a workload's input: a later change can show its
/// workloads are unchanged by printing the same record.
struct Shape {
  std::string input;  ///< human description of the input size
  double sessions = 0;
  double swarms = 0;
  double max_swarm_sessions = 0;
  double file_mb = 0;  ///< `.cltrace` size, 0 when none is written
  /// Workload-specific counts, keyed by their per-layer metric name.
  std::map<std::string, double> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates and persists the inputs (untimed set-up work).
  virtual void prepare(const Context& ctx) = 0;

  /// One timed pipeline iteration.
  [[nodiscard]] virtual Output iterate(const Context& ctx) = 0;

  /// Traced runs only: times, from outside, the layer calls that an
  /// iteration reaches only inside another library call, with the inputs
  /// and thread count that call has there. Called several times; each
  /// call repeats the timed calls once.
  virtual void probe(const Context& /*ctx*/, const Output& /*last*/) {}

  /// Ranges the outputs must stay in, beyond matching the reference.
  [[nodiscard]] virtual std::vector<Band> bands() const { return {}; }

  [[nodiscard]] const Shape& shape() const { return shape_; }

 protected:
  Shape shape_;
};

struct WorkloadParams {
  std::uint64_t seed = 1;
  Scale scale = Scale::full();
  std::string work_dir;   ///< scratch directory for traces and cell files
  std::string spec_path;  ///< spec_matrix's experiment spec
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws cl::InvalidArgument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const WorkloadParams& params);

}  // namespace perfbench
