// swarm_sweep.h — the self-contained per-swarm sweep unit of the hybrid
// simulator.
//
// Swarms are independent given the (content, ISP, bitrate) partition
// (paper Section IV.A), which makes the simulator embarrassingly parallel
// *per swarm*. A SwarmSweep is one worker's sweep engine: it owns every
// piece of scratch state the event-batched sweep needs (the join/leave
// index streams, the active-peer list, the session→active index map, the
// per-window allocation buffer, the gathered per-swarm column scratch)
// plus its own Matcher instance, and is reused across all swarms that
// worker processes — after the first few swarms the sweep runs
// allocation-free.
//
// Two data paths share one event loop. Each fills the swarm's window
// bounds (w_start_/w_end_), and from there both run the same
// build_event_streams (window-crossing sessions as join and leave index
// streams in (window, idx) order) and the same replay_events (leaves,
// then joins, then one stretch per event window). They differ only in
// how a joining peer is read and how a stretch is allocated:
//
//  * sweep(…, TraceView) — the hot path. The swarm's sessions are
//    gathered from the trace columns into small contiguous primitive
//    arrays (window bounds, user/ISP/ExP/PoP ids, β) by the kernels in
//    sim/sweep_kernels.h, and the inner loops touch only those arrays.
//    Single-ISP swarms under the existence matcher additionally bypass
//    the virtual Matcher for a flat-array allocator (bit-identical
//    output, no hash maps on the hot path).
//  * sweep_rows(…, Trace) — the row-structured reference path, reading
//    SessionRecords and dispatching through the Matcher interface. Kept
//    as the bit-identity oracle of the gathers and the flat allocator,
//    and as the bench/micro_sweep baseline.
//
// A sweep accumulates into a partial SimResult; partials merge with
// SimResult::merge (see sim/metrics.h) in ascending swarm-key order, so
// the full simulation is bit-identical for every thread count — and
// identical between the two data paths and every SIMD backend (the
// vector kernels' lane-width-independence rule, DESIGN.md §"SIMD
// kernels").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/matcher.h"
#include "sim/metrics.h"
#include "sim/sim_config.h"
#include "sim/swarm_key.h"
#include "topology/placement.h"
#include "trace/session.h"
#include "trace/trace_view.h"
#include "util/simd.h"

namespace cl {

/// Per-kernel wall-time accumulator shared by every worker's SwarmSweep
/// (`cl simulate --timing`). Workers add their per-swarm kernel times
/// with relaxed atomics — the totals are CPU seconds summed across
/// workers, so they can exceed the sweep phase's wall time when
/// threads > 1.
struct SweepKernelTiming {
  std::atomic<double> gather1_seconds{0};   ///< window bounds + watch time
  std::atomic<double> gather2_seconds{0};   ///< per-peer column gathers
  std::atomic<double> events_seconds{0};    ///< event streams + stretch loop
  std::atomic<double> allocate_seconds{0};  ///< per-stretch allocation
};

/// One worker's reusable swarm-sweep engine.
class SwarmSweep {
 public:
  /// `metro` supplies the per-ISP trees for locality lookups and must
  /// outlive the sweep. `timing`, when non-null, receives the per-kernel
  /// wall-time split (adds clock reads to the hot path — only wire it up
  /// when the caller asked for timing).
  SwarmSweep(const Metro& metro, const SimConfig& config,
             SweepKernelTiming* timing = nullptr);

  /// Sweeps one swarm (the sessions at `indices` into `view`'s columns)
  /// and accumulates its traffic into `out` — the columnar hot path.
  /// When `config.collect_hourly` is set, `out.hourly` grows lazily to
  /// cover the hours the swarm touches — SimResult::merge aligns
  /// differently grown grids, and HybridSimulator::run pads the merged
  /// result to [hours][isps].
  void sweep(SwarmKey key, std::span<const std::uint32_t> indices,
             const TraceView& view, SimResult& out);

  /// Row-structured reference sweep over trace.sessions — bit-identical
  /// to sweep() by construction (same event streams and event loop, same
  /// matcher arithmetic); kept for identity tests and the micro_sweep
  /// baseline.
  void sweep_rows(SwarmKey key, std::span<const std::uint32_t> indices,
                  const Trace& trace, SimResult& out);

 private:
  /// Builds the event streams from the filled w_start_/w_end_: the
  /// window-crossing sessions' indices in (join window, idx) order into
  /// join_idx_ and in (leave window, idx) order into leave_idx_.
  /// `max_end_window` bounds every w_end_ (it picks the leave sort).
  void build_event_streams(std::size_t crossings,
                           std::uint64_t max_end_window);

  /// The event loop over join_idx_ / leave_idx_: at each event window
  /// applies every leave, then every join (make_peer), then sweeps the
  /// constant-membership stretch to the next event window.
  template <typename MakePeer, typename Allocate>
  void replay_events(SwarmKey key, std::size_t session_count,
                     double watch_seconds, double span_seconds,
                     std::size_t max_hours, SimResult& out,
                     MakePeer&& make_peer, Allocate&& allocate);

  /// One constant-membership stretch [w0, w1): seed selection,
  /// allocation, traffic folds (+ optional hourly / per-user splits).
  template <typename Allocate>
  void process_stretch(Allocate& allocate, std::uint64_t w0, std::uint64_t w1,
                       TrafficBreakdown& swarm_traffic, std::size_t max_hours,
                       SimResult& out);

  /// Appends the per-swarm row when collect_swarms is on.
  void emit_swarm(SwarmKey key, std::size_t session_count,
                  double watch_seconds, double span_seconds,
                  const TrafficBreakdown* traffic, SimResult& out);

  /// Flat-array ExistenceMatcher for single-ISP swarms: replaces the
  /// hash-map counting with arrays indexed by ExP/PoP id (bounded by the
  /// ISP tree), preserving the exact floating-point accumulation order —
  /// the allocation is bit-identical to ExistenceMatcher::allocate.
  void allocate_existence_flat(std::span<const ActivePeer> actives,
                               std::size_t seed_index,
                               std::vector<PeerAllocation>& out);

  const Metro* metro_;
  SimConfig config_;
  std::unique_ptr<Matcher> matcher_;
  SweepKernelTiming* timing_ = nullptr;
  // True while sweeping on the flat-allocator route (sweep() sets it per
  // swarm; sweep_rows keeps it off so the reference path stays generic):
  // lone-peer stretches — the dominant shape in sparse swarms — then
  // bypass allocation entirely (see process_stretch's fast path).
  bool lone_flat_ = false;

  // Scratch, reused across swarms (cleared, not reallocated).
  std::vector<ActivePeer> active_;
  std::vector<std::int32_t> pos_;
  std::vector<PeerAllocation> alloc_;
  // Overload-capped copy of alloc_ for a stretch's first window (only
  // touched when config.overload finds a spill; see process_stretch).
  std::vector<PeerAllocation> spill_alloc_;

  // Event streams (build_event_streams): crossing-session indices in
  // join order and in leave order, plus the packed (window << 24 | idx)
  // u64 keys the leave order is sorted as when they fit.
  simd::aligned_vector<std::uint32_t> join_idx_, leave_idx_;
  simd::aligned_vector<std::uint64_t> leave_keys_;

  // Per-swarm gathered columns (the SoA path's contiguous hot arrays),
  // 64-byte aligned so the kernels' whole-array loads are aligned.
  simd::aligned_vector<std::uint64_t> w_start_, w_end_;
  simd::aligned_vector<std::uint32_t> g_user_, g_isp_, g_exp_, g_pop_;
  simd::aligned_vector<double> g_beta_;

  // Flat-array matcher scratch, indexed by ExP / PoP id. All-zero
  // between allocations (allocate_existence_flat re-zeroes the entries
  // it touched).
  simd::aligned_vector<std::uint32_t> cnt_exp_, cnt_pop_;
  simd::aligned_vector<double> dem_exp_, dem_pop_;
};

}  // namespace cl
