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
// then joins, then one stretch per event window). What a join, a leave
// and a stretch do is the route's business:
//
//  * sweep(…, TraceView) — the hot path. The swarm's sessions are
//    gathered from the trace columns into small contiguous primitive
//    arrays (window bounds, user/ISP/ExP/PoP ids, β) by the kernels in
//    sim/sweep_kernels.h, and the inner loops touch only those arrays.
//    Single-ISP swarms under the existence matcher take the *count
//    route* (sweep_counts): the matcher's outcome depends only on how
//    many members each ExP and PoP holds, so a join or leave updates O(1)
//    bucket counters and β sums and a stretch folds O(1) lanes, whatever
//    the swarm size. Per-user bytes settle lazily when a peer leaves
//    (downloads from its window count, uploads from per-bucket running
//    integrals). Every other swarm — the capacity matcher, ISP-spanning
//    swarms — takes the per-peer route (sweep_per_peer): an active-peer
//    list, one virtual Matcher allocation and one per-peer fold per
//    stretch.
//  * sweep_rows(…, Trace) — the row-structured reference path, reading
//    SessionRecords and always taking the per-peer route through the
//    Matcher interface. It is the per-peer reference the count route is
//    tested against (to the oracle tolerances of
//    tests/test_sweep_oracle.cpp; bitwise where sweep() also runs
//    per-peer) and the bench/micro_sweep baseline.
//
// Both routes fold a stretch through one helper, fold_stretch: one run
// of windows, or a capped first window and the steady rest when the
// overload model spills.
//
// Per-user bytes of both routes sum into per-chunk scratch: one running
// (user, downloaded, uploaded) entry per user the chunk's swarms touched,
// in first-touch order, found through a flat open-addressing table sized
// to the chunk (not to the user-id range). Hourly traffic (and the
// overload spill per hour) folds into one flat [hour × ISP] grid per
// worker, sized once to the span's hour count. finish_chunk() appends the
// per-user entries to the chunk partial, copies the grid's touched hours
// to it as one contiguous block, and resets both scratches.
//
// A chunk's sweeps accumulate into its ChunkPartial; partials fold in
// ascending swarm-key order into the one SimResult of the run (see
// sim/hybrid_sim.cpp), so the full simulation is bit-identical for every
// thread count and between the mmap'd and owned-SoA inputs of sweep().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
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

namespace cl {

/// Per-kernel wall-time accumulator shared by every worker's SwarmSweep
/// (`cl simulate --timing`). Workers add their per-swarm kernel times
/// with relaxed atomics — the totals are CPU seconds summed across
/// workers, so they can exceed the sweep phase's wall time when
/// threads > 1. The stretch counters say which route handled each
/// stretch; they are integers added once per swarm, so they are the same
/// at every thread count.
struct SweepKernelTiming {
  std::atomic<double> gather1_seconds{0};   ///< window bounds + watch time
  std::atomic<double> gather2_seconds{0};   ///< per-peer column gathers
  std::atomic<double> events_seconds{0};    ///< event streams + stretch loop
  std::atomic<double> allocate_seconds{0};  ///< per-peer route's Matcher calls
  std::atomic<std::uint64_t> count_stretches{0};     ///< count route
  std::atomic<std::uint64_t> per_peer_stretches{0};  ///< per-peer route
  std::atomic<std::uint64_t> overload_split_stretches{0};  ///< either route
};

/// Hours of the hourly grid over a span of `span_seconds`: ⌈span / 1 h⌉,
/// at least one. A sweep fails loudly on a session ending past them (a
/// corrupt #span= header).
[[nodiscard]] std::size_t hour_count(double span_seconds);

/// One reduction chunk's partial result: what its sweeps add up, and
/// nothing else. SwarmSweep::sweep / sweep_rows add the total, the spill
/// and the swarm rows; SwarmSweep::finish_chunk hands over the per-user
/// sums and the hourly traffic, as one flat block over the hours the
/// chunk's swarms touched. HybridSimulator folds the partials, in
/// ascending chunk order, into the run's one SimResult.
struct ChunkPartial {
  TrafficBreakdown total;
  Bits overload_spill;
  std::vector<SwarmResult> swarms;  ///< key order (collect_swarms only)
  std::vector<UserTraffic> users;   ///< first-touch order (per-user only)
  std::size_t first_hour = 0;            ///< hour of the block's first row
  std::vector<TrafficBreakdown> hourly;  ///< [hour − first_hour][isp], flat
  std::vector<Bits> hourly_spill;  ///< [hour − first_hour] (overload only)
};

/// One worker's reusable swarm-sweep engine.
class SwarmSweep {
 public:
  /// `metro` supplies the per-ISP trees for locality lookups and must
  /// outlive the sweep. `timing`, when non-null, receives the per-kernel
  /// wall-time split and the stretch counters (adds clock reads around
  /// each swarm and each per-peer allocation — only wire it up when the
  /// caller asked for timing).
  SwarmSweep(const Metro& metro, const SimConfig& config,
             SweepKernelTiming* timing = nullptr);

  /// Sweeps one swarm (the sessions at storage positions base +
  /// indices[k] of `view`'s columns) and accumulates its traffic into
  /// `out` — the columnar hot path. A swarm-major view passes the group's
  /// first position as `base` and an identity as `indices`, so the
  /// gathers stream one contiguous slice of each column.
  /// Per-user sums and, when `config.collect_hourly` is set, the hourly
  /// traffic and per-hour spill stay in the worker's scratch until
  /// finish_chunk() hands them over.
  void sweep(SwarmKey key, std::span<const std::uint32_t> indices,
             const TraceView& view, ChunkPartial& out, std::size_t base = 0);

  /// Row-structured per-peer reference sweep over trace.sessions (same
  /// event streams and event loop as sweep(), always the per-peer route);
  /// kept for the identity and oracle tests and the micro_sweep baseline.
  void sweep_rows(SwarmKey key, std::span<const std::uint32_t> indices,
                  const Trace& trace, ChunkPartial& out);

  /// Ends a reduction chunk: appends the chunk's per-user sums (one entry
  /// per user its sweeps touched, first-touch order) to `out.users`,
  /// copies the hourly grid's touched hours to `out.first_hour` /
  /// `out.hourly` / `out.hourly_spill`, and re-zeroes the scratch for the
  /// next chunk. Call once after the chunk's last sweep into `out`;
  /// without collect_per_user and collect_hourly there is nothing to
  /// hand over.
  void finish_chunk(ChunkPartial& out);

 private:
  /// One ExP or PoP of the count route, indexed by its id. An ExP bucket
  /// sums the β of all its members; a PoP bucket counts all its members
  /// but sums only the β of its singleton-ExP members (the ones it
  /// serves). `phi` is the bucket's running upload integral, Σ (bucket
  /// demand / members) × effective windows, brought up to the swarm
  /// clock at `stamp` and growing at `rate` per effective window since;
  /// `dirty` marks a bucket whose rate is recomputed before the next
  /// stretch. All-zero between swarms.
  struct Bucket {
    double beta = 0;
    double phi = 0;
    double rate = 0;
    double stamp = 0;
    std::uint32_t count = 0;
    bool dirty = false;
  };

  /// A peer's upload-integral snapshot at join: its ExP, PoP and core Φ.
  struct Snapshot {
    double exp = 0;
    double pop = 0;
    double core = 0;
  };

  /// A slot of the per-user table: the user_sums_ index of a user the
  /// chunk touched. Only slots whose `stamp` equals chunk_stamp_ belong
  /// to the current chunk, so starting a chunk clears nothing.
  struct UserSlot {
    std::uint32_t stamp = 0;
    std::uint32_t entry = 0;
  };

  /// Route counters of the swarm being swept (finish_swarm moves them to
  /// timing_).
  struct StretchCounts {
    std::uint64_t count = 0;
    std::uint64_t per_peer = 0;
    std::uint64_t overload_split = 0;
  };

  /// Builds the event streams from the filled w_start_/w_end_: the
  /// window-crossing sessions' indices in (join window, idx) order into
  /// join_idx_ and in (leave window, idx) order into leave_idx_, with
  /// the leave windows in leave_w_.
  /// `max_end_window` bounds every w_end_ (it picks the leave sort).
  void build_event_streams(std::size_t crossings,
                           std::uint64_t max_end_window);

  /// The event loop over join_idx_ / leave_idx_: at each event window
  /// calls leave(idx) for every leave, then join(idx, window) for every
  /// join, then stretch(w0, w1) over the constant-membership stretch to
  /// the next event window when the swarm is not empty.
  template <typename Leave, typename Join, typename Stretch>
  void replay_events(Leave&& leave, Join&& join, Stretch&& stretch);

  /// Per-peer route: replays the events over an active-peer list built
  /// by make_peer(idx, join_window) and sweeps each stretch through
  /// process_stretch.
  template <typename MakePeer>
  void sweep_per_peer(std::size_t session_count, std::size_t max_hours,
                      TrafficBreakdown& swarm_traffic, ChunkPartial& out,
                      MakePeer&& make_peer);

  /// One constant-membership stretch [w0, w1) of the per-peer route: seed
  /// selection, Matcher allocation, overload cap, then fold_stretch with
  /// a per-peer run fold (+ optional hourly / per-user splits).
  void process_stretch(std::uint64_t w0, std::uint64_t w1,
                       TrafficBreakdown& swarm_traffic, std::size_t max_hours,
                       ChunkPartial& out);

  /// Folds one stretch [w0, w1) of either route through
  /// fold_run(capped, wa, wb), which adds the windows [wa, wb) to the
  /// swarm total, the per-user sums and the hourly grid under the
  /// overload-capped first-window allocation (`capped`) or the steady
  /// one. Without `split_first`: one steady run [w0, w1). With it:
  /// add_spill(w0, spill_bits), a capped run [w0, w0 + 1), then a steady
  /// run [w0 + 1, w1) unless that is empty.
  template <typename FoldRun>
  void fold_stretch(std::uint64_t w0, std::uint64_t w1, bool split_first,
                    double spill_bits, std::size_t max_hours,
                    ChunkPartial& out, FoldRun&& fold_run);

  /// Adds one stretch's overload spill to `out.overload_spill` and, when
  /// hourly rows are collected, to the hourly grid's spill at the hour of
  /// its first window w0.
  void add_spill(std::uint64_t w0, double spill_bits, std::size_t max_hours,
                 ChunkPartial& out);

  /// Sizes the hourly grid and the hour-end table to `max_hours` hours
  /// (a no-op once they are that large: once per run).
  void size_hours(std::size_t max_hours);

  /// Splits the windows [wa, wb) at hour boundaries and calls fn(row,
  /// windows) once per hour they touch: `row` is that hour's per-ISP
  /// traffic row in the hourly grid and `windows` the number of the
  /// windows inside it. Widens the chunk's touched hour range.
  template <typename Fn>
  void for_each_hour(std::uint64_t wa, std::uint64_t wb,
                     std::size_t max_hours, Fn&& fn);

  /// Count route (existence matcher, single-ISP swarm) over the gathered
  /// columns: O(1) bucket updates per event, O(1) lanes per stretch.
  void sweep_counts(std::size_t max_hours, TrafficBreakdown& swarm_traffic,
                    ChunkPartial& out);

  /// The user_sums_ index of `user`'s running sum in the current chunk,
  /// appending a zero entry on first touch.
  std::uint32_t user_entry(std::uint32_t user);

  /// Adds the swarm's traffic to out.total, appends its per-swarm row
  /// when collect_swarms is on, and moves its route counters to timing_.
  void finish_swarm(SwarmKey key, std::size_t session_count,
                    double watch_seconds, double span_seconds,
                    const TrafficBreakdown& traffic, ChunkPartial& out);

  const Metro* metro_;
  SimConfig config_;
  std::unique_ptr<Matcher> matcher_;
  SweepKernelTiming* timing_ = nullptr;
  double allocate_seconds_ = 0;  // per-peer Matcher time of this swarm
  StretchCounts counts_;

  // Per-peer route scratch, reused across swarms (cleared, not
  // reallocated).
  std::vector<ActivePeer> active_;
  std::vector<std::int32_t> pos_;
  std::vector<PeerAllocation> alloc_;
  // Overload-capped copy of alloc_ for a stretch's first window (only
  // touched when config.overload finds a spill; see process_stretch).
  std::vector<PeerAllocation> spill_alloc_;

  // Event streams (build_event_streams): crossing-session indices in
  // join order and in leave order, the leave windows in leave order (so
  // the event loop reads them sequentially), plus the packed
  // (window << 24 | idx) u64 keys the leave order is sorted as when they
  // fit, with the radix sort's scratch and bucket counts.
  std::vector<std::uint32_t> join_idx_, leave_idx_;
  std::vector<std::uint64_t> leave_w_, leave_keys_, sort_scratch_;
  std::vector<std::size_t> sort_count_;

  // Per-swarm gathered columns (the SoA path's contiguous hot arrays).
  std::vector<std::uint64_t> w_start_, w_end_;
  std::vector<std::uint32_t> g_user_, g_isp_, g_exp_, g_pop_;
  std::vector<double> g_beta_;

  // Count-route scratch: buckets by ExP / PoP id (all-zero between
  // swarms), the per-session Φ snapshots (per-user collection only) and
  // the buckets whose upload rate changed since the last stretch.
  std::vector<Bucket> exp_buckets_, pop_buckets_;
  std::vector<Snapshot> snap_;
  std::vector<Bucket*> dirty_;

  // Per-user chunk scratch (collect_per_user only): the running sums in
  // first-touch order; the linear-probing table over them (power-of-two
  // size, at most half full, grown to the largest chunk seen); the
  // current chunk's stamp; and, on the per-peer route, each gathered
  // session's user_sums_ index, looked up once at join.
  std::vector<UserTraffic> user_sums_;
  std::vector<UserSlot> user_slots_;
  std::uint32_t chunk_stamp_ = 1;
  std::vector<std::uint32_t> peer_entry_;

  // Hourly chunk scratch (collect_hourly only), sized once per run to
  // the span's hour count: the flat [hour][isp] traffic grid, the
  // per-hour spill (overload only), each hour's end window
  // ceil((h + 1)·3600 / Δτ), and the hours [hour_lo_, hour_hi_) this
  // chunk touched — all-zero grid cells outside them.
  std::vector<TrafficBreakdown> hour_cells_;
  std::vector<Bits> hour_spill_;
  std::vector<std::uint64_t> hour_end_;
  std::size_t hour_lo_ = std::numeric_limits<std::size_t>::max();
  std::size_t hour_hi_ = 0;
};

}  // namespace cl
