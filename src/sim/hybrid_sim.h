// hybrid_sim.h — the discrete time-step hybrid-CDN simulator
// (paper Section IV.A).
//
// The simulator replays a session trace in Δτ windows (the paper uses
// Δτ = 10 s). Sessions are grouped into swarms — by (content, ISP, bitrate
// class) in the paper's ISP-friendly, bitrate-split setting — and within
// each swarm, every window's active peers are matched by a Matcher policy,
// splitting each user's β·Δτ demand between fellow peers (by locality
// level) and the CDN.
//
// Implementation note: the active set of a swarm only changes when a
// session joins or leaves, so the simulator batches stretches of identical
// windows — one allocation is computed per stretch and multiplied by the
// stretch length (splitting at hour boundaries when the hourly grid is
// collected). This is exact, not an approximation, and reduces the cost
// from O(windows × peers) to O(events × peers). Under the existence
// matcher the allocation depends only on bucket counts, so the sweep's
// count route keeps those counts incrementally and costs O(events).
//
// Data path: the simulator consumes *columns* (trace/trace_view.h), not
// rows. run(TraceView) is the engine — workers receive column index
// ranges, gather each swarm's fields into contiguous scratch and sweep
// (sim/swarm_sweep.h). A caller holding rows transposes them once
// (TraceView::from_trace); `.cltrace` input should be opened as a view
// (TraceView::open_binary) so the sweep runs directly on the mmap'd
// blocks with zero materialization. run_rows sweeps the row-structured
// Trace through the same listing, reduce and event loop, always per
// peer — the per-peer reference and bench baseline.
//
// Parallel execution: swarms are independent, so run() cuts the
// key-sorted swarm list into chunks of balanced session weight
// (sweep_chunk_bounds) and sweeps them on SimConfig::threads workers.
// Each worker drives one reusable SwarmSweep into lean per-chunk
// partials (totals, swarm rows, per-user lists, a flat hourly block);
// the partials fold in ascending swarm-key order on the calling thread
// as they become ready (util/parallel.h), and the one SimResult is built
// from that fold, making the full result bit-identical at every thread
// count (see DESIGN.md §"Parallel execution model").
//
// Traces loaded from the binary columnar format carry a persisted
// swarm-key-sorted index (trace/swarm_index.h); under the default full
// (content, ISP, bitrate) partition run() consumes it directly instead
// of re-grouping — same key order, bit-identical results either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/metrics.h"
#include "sim/sim_config.h"
#include "topology/placement.h"
#include "trace/session.h"
#include "trace/trace_view.h"

namespace cl {

/// Wall-clock phase breakdown of one simulator run
/// (`cl simulate --timing`, `cl ledger --timing`).
struct SimPhaseTiming {
  double group_seconds = 0;  ///< metro-fit validation + swarm grouping
  /// Concurrent per-swarm sweep phase, up to the last partial's fold.
  double sweep_seconds = 0;
  /// The calling thread's fold of the chunk partials — most of it inside
  /// sweep_seconds, while other workers still sweep — plus the per-user
  /// settle and the hourly grid's conversion after the sweep.
  double merge_seconds = 0;

  // Per-kernel split of the sweep phase (sim/sweep_kernels.h), summed
  // across workers — CPU seconds, so the four can exceed sweep_seconds
  // wall time when threads > 1. Collecting them adds clock reads per
  // swarm and per per-peer allocation, so they are only measured when
  // `timing` is non-null.
  double sweep_gather1_seconds = 0;   ///< window bounds + watch time
  double sweep_gather2_seconds = 0;   ///< per-peer column gathers
  double sweep_events_seconds = 0;    ///< event streams + stretch loop
  double sweep_allocate_seconds = 0;  ///< per-peer route's Matcher calls

  // Which sweep route handled each stretch (sim/swarm_sweep.h). Integer
  // counts, so they are the same at every thread count.
  std::uint64_t count_stretches = 0;     ///< count route
  std::uint64_t per_peer_stretches = 0;  ///< per-peer route
  std::uint64_t overload_split_stretches = 0;  ///< first window capped

  /// Sweep chunks folded (sweep_chunk_bounds): fixed by the swarm list,
  /// so the same at every thread count.
  std::uint64_t chunks = 0;
  /// The fold's peak backlog: the most chunk partials that were ready
  /// but not yet folded (util/parallel.h ReduceTiming). It varies from
  /// run to run.
  std::uint64_t peak_backlog = 0;
};

/// Fixed weight a swarm adds to its chunk on top of its session count:
/// the per-swarm cost of listing, gathering and folding a swarm row.
inline constexpr std::size_t kSweepSwarmWeight = 16;
/// The chunk rule aims at this many chunks per sweep.
inline constexpr std::size_t kSweepChunkCount = 512;

/// Chunk boundaries of the sweep over a key-ordered swarm list, given
/// each swarm's session count. A swarm weighs sessions +
/// kSweepSwarmWeight; with W the total weight, the target is
/// ⌈W / kSweepChunkCount⌉. Chunks are cut in list order: a chunk closes
/// once its weight reaches the target, and a swarm that reaches the
/// target on its own is a chunk by itself (the chunk before it closes
/// early). The boundaries depend on the swarm list alone, never on the
/// thread count, so the fold groups the same sums at every --threads.
/// Returns the ascending chunk starts followed by `sessions.size()`
/// (just {0} for an empty list): chunk c is [bounds[c], bounds[c + 1]).
[[nodiscard]] std::vector<std::size_t> sweep_chunk_bounds(
    std::span<const std::size_t> sessions);

/// Trace-driven hybrid-CDN simulator.
class HybridSimulator {
 public:
  /// `metro` supplies the per-ISP trees for locality lookups and must
  /// outlive the simulator.
  HybridSimulator(const Metro& metro, SimConfig config);

  [[nodiscard]] const SimConfig& config() const { return config_; }

  /// Simulates the whole trace from its columns: groups sessions into
  /// swarms, sweeps each swarm on SimConfig::threads workers, and merges
  /// the per-swarm / per-hour / per-user metrics deterministically.
  /// Throws cl::InvalidArgument when the trace's ISP/exchange-point ids
  /// do not fit this metro's trees (a trace replayed against the wrong
  /// metro — see topology/metro_registry.h). `timing`, when non-null,
  /// receives the group/sweep/merge wall-time split.
  [[nodiscard]] SimResult run(const TraceView& view,
                              SimPhaseTiming* timing = nullptr) const;

  /// The row-structured per-peer reference path, kept as run()'s
  /// reference and as bench/micro_sweep's baseline. It shares run()'s
  /// swarm listing, sharded reduce and event loop; what it checks is the
  /// rest: a per-row metro check, SessionRecord loads in place of the
  /// column gathers, and a per-peer virtual Matcher allocation of every
  /// stretch in place of run()'s count route. Where run() also sweeps
  /// per-peer (capacity matcher, ISP-spanning swarms) the two are
  /// bit-identical; on the count route they agree to the oracle
  /// tolerances of tests/test_sweep_oracle.cpp.
  [[nodiscard]] SimResult run_rows(const Trace& trace) const;

 private:
  const Metro* metro_;
  SimConfig config_;
};

}  // namespace cl
