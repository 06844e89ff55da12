#include "sim/swarm_sweep.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>

#include "sim/sweep_kernels.h"
#include "trace/bitrate.h"
#include "util/error.h"

namespace cl {

namespace {

// The traffic fold kernel views TrafficBreakdown / PeerAllocation as
// contiguous double lanes (server, peer[0..2], cross_isp[, upload]).
// Both are standard-layout aggregates of double-sized Quantity wrappers;
// pin the layout the reinterpret_cast relies on.
static_assert(sizeof(TrafficBreakdown) ==
              sweep_kernels::kTrafficLanes * sizeof(double));
static_assert(sizeof(PeerAllocation) == 6 * sizeof(double));
static_assert(offsetof(TrafficBreakdown, peer) == sizeof(double));
static_assert(offsetof(TrafficBreakdown, cross_isp) == 4 * sizeof(double));
static_assert(offsetof(PeerAllocation, peer_bits) == sizeof(double));
static_assert(offsetof(PeerAllocation, cross_isp_bits) == 4 * sizeof(double));
static_assert(offsetof(PeerAllocation, upload_bits) == 5 * sizeof(double));

double* traffic_lanes(TrafficBreakdown& tb) {
  return reinterpret_cast<double*>(&tb);
}
const double* alloc_lanes(const PeerAllocation& al) {
  return reinterpret_cast<const double*>(&al);
}

/// Upper bound of the lazily grown hourly grid: a session ending past
/// the span (corrupt #span= header) must fail loudly, exactly as the
/// old span-sized-grid bounds check did.
std::size_t hour_bound(double span_seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(span_seconds / 3600.0)));
}

/// β lookup column for the gather kernel: bitrate class byte → bits/s.
std::array<double, kBitrateClasses> beta_table() {
  std::array<double, kBitrateClasses> table{};
  for (std::size_t b = 0; b < kBitrateClasses; ++b) {
    table[b] = bitrate_of(static_cast<BitrateClass>(b)).value();
  }
  return table;
}

/// Packed leave-event sort key layout: window in the high 40 bits,
/// session index in the low 24. Sorting the keys as plain u64 yields
/// exactly the (window, idx) order the generic event sort produces for
/// leaves. Swarms beyond either field's range (a >16.7M-session swarm,
/// or a window index past ~34 800 years at Δτ = 10 s) take the generic
/// run_events fallback.
constexpr int kLeaveIdxBits = 24;
constexpr std::uint64_t kLeaveIdxMask = (std::uint64_t{1} << kLeaveIdxBits) - 1;
constexpr std::uint64_t kMaxPackWindow = std::uint64_t{1}
                                         << (64 - kLeaveIdxBits);

/// Splits the windows [wa, wb) at hour boundaries and calls
/// fn(row, chunk) once per hour they touch: `row` is that hour's per-ISP
/// traffic row and `chunk` the number of the windows inside it. The
/// partial's grid grows lazily — only hours this swarm touches get a row
/// (HybridSimulator::run pads the merged result).
template <typename Fn>
void for_each_hour(std::uint64_t wa, std::uint64_t wb, double dt,
                   std::size_t max_hours, std::size_t isps, SimResult& out,
                   Fn&& fn) {
  std::uint64_t w = wa;
  while (w < wb) {
    const auto hour =
        static_cast<std::size_t>(static_cast<double>(w) * dt / 3600.0);
    const auto hour_end_window = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(hour + 1) * 3600.0 / dt));
    const std::uint64_t chunk_end = std::min(wb, hour_end_window);
    CL_ENSURES(hour < max_hours);
    if (hour >= out.hourly.size()) out.hourly.resize(hour + 1);
    auto& row = out.hourly[hour];
    if (row.size() < isps) row.resize(isps);
    fn(row, static_cast<double>(chunk_end - w));
    w = chunk_end;
  }
}

double seconds_between(std::chrono::steady_clock::time_point t0,
                       std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

SwarmSweep::SwarmSweep(const Metro& metro, const SimConfig& config,
                       SweepKernelTiming* timing)
    : metro_(&metro),
      config_(config),
      matcher_(make_matcher(config.matcher)),
      timing_(timing) {
  CL_EXPECTS(config_.window.value() > 0);
  CL_EXPECTS(config_.q_over_beta >= 0);
}

template <typename Allocate>
void SwarmSweep::process_stretch(Allocate& allocate, std::uint64_t w0,
                                 std::uint64_t w1,
                                 TrafficBreakdown& swarm_traffic,
                                 std::size_t max_hours, SimResult& out) {
  const double dt = config_.window.value();
  if (lone_flat_ && active_.size() == 1) {
    // Lone-peer stretch on the flat-allocator route: the allocation is
    // fully determined (server_bits = β·Δτ, every other lane zero — see
    // allocate_existence_flat's n == 1 branch), so skip the allocation
    // and fold only the server lane. Bit-identical to the full path:
    // the skipped lanes would add +0.0·windows = +0.0, and the traffic
    // accumulators are never -0.0 (they start at +0.0 and only gain
    // non-negative terms), so x + 0.0 == x bitwise.
    const ActivePeer& a = active_[0];
    const double demand = a.beta * dt;
    const auto total_windows = static_cast<double>(w1 - w0);
    traffic_lanes(swarm_traffic)[0] += demand * total_windows;
    if (config_.collect_per_user) {
      // downloaded_bits() would sum demand + four +0.0 terms — bitwise
      // `demand`; the upload add would be +0.0 — skipped (same argument).
      out.users[a.user].downloaded += Bits{demand * total_windows};
    }
    if (config_.collect_hourly) {
      for_each_hour(w0, w1, dt, max_hours, metro_->isp_count(), out,
                    [&](std::vector<TrafficBreakdown>& row, double chunk) {
                      traffic_lanes(row[a.isp])[0] += demand * chunk;
                    });
    }
    return;
  }
  if (lone_flat_ && active_.size() == 2 && !config_.overload) {
    // Pair stretch, closed form. With two peers in one ISP the flat
    // allocator's counting degenerates: the non-seed peer moves
    // d = ratio·β·Δτ to the first level the pair shares (ExP, else PoP,
    // else core), and whichever bucket serves, it has exactly two
    // members — both uploads are d / 2.0, the same divide the counting
    // path performs (cnt cast 2u → 2.0). Lanes that stay zero fold as
    // +0.0 adds either way, so fold_traffic on these stack rows executes
    // the full path's exact add sequence.
    const ActivePeer& a0 = active_[0];
    const ActivePeer& a1 = active_[1];
    const std::size_t seed =
        (a1.join_window < a0.join_window ||
         (a1.join_window == a0.join_window && a1.session < a0.session))
            ? 1
            : 0;
    const std::size_t other = 1 - seed;
    double al[2][6] = {};  // server, peer[0..2], cross_isp, upload
    al[0][0] = a0.beta * dt;
    al[1][0] = a1.beta * dt;
    const double d = std::min(config_.q_over_beta, 1.0) * al[other][0];
    if (d > 0) {
      const ActivePeer& ao = active_[other];
      const ActivePeer& as = active_[seed];
      const std::size_t lvl =
          ao.exp == as.exp
              ? index(LocalityLevel::kExchangePoint)
              : (ao.pop == as.pop ? index(LocalityLevel::kPop)
                                  : index(LocalityLevel::kCore));
      al[other][1 + lvl] = d;
      al[other][0] -= d;
      const double up = d / 2.0;
      al[0][5] = up;
      al[1][5] = up;
    }
    const auto total_windows = static_cast<double>(w1 - w0);
    for (std::size_t i = 0; i < 2; ++i) {
      sweep_kernels::fold_traffic(traffic_lanes(swarm_traffic), al[i],
                                  total_windows);
      if (config_.collect_per_user) {
        UserTraffic& ut = out.users[active_[i].user];
        // downloaded_bits() order: (server + cross), then the peer lanes.
        const double down = al[i][0] + al[i][4] + al[i][1] + al[i][2] +
                            al[i][3];
        ut.downloaded += Bits{down * total_windows};
        ut.uploaded += Bits{al[i][5] * total_windows};
      }
    }
    if (config_.collect_hourly) {
      for_each_hour(w0, w1, dt, max_hours, metro_->isp_count(), out,
                    [&](std::vector<TrafficBreakdown>& row, double chunk) {
                      for (std::size_t i = 0; i < 2; ++i) {
                        sweep_kernels::fold_traffic(
                            traffic_lanes(row[active_[i].isp]), al[i], chunk);
                      }
                    });
    }
    return;
  }
  // Seed peer: the longest-present member (deterministic tie-break).
  std::size_t seed = 0;
  for (std::size_t i = 1; i < active_.size(); ++i) {
    if (active_[i].join_window < active_[seed].join_window ||
        (active_[i].join_window == active_[seed].join_window &&
         active_[i].session < active_[seed].session)) {
      seed = i;
    }
  }
  allocate(std::span<const ActivePeer>(active_), seed);

  // Overload model (SimConfig::overload): cap peer transfers in the
  // stretch's *first* window at the aggregate upload capacity of the warm
  // members (join_window < w0 — they completed at least one full window
  // and hold content). Fresh joiners are cold: they demand but cannot
  // serve. From w0+1 on every member is warm and capacity q·Σβ·Δτ covers
  // demand min(q/β,1)·Σ_{i≠seed}β·Δτ by construction, so later windows
  // never overload. Excess moves peer→server lane for that window (the
  // CDN absorbs what the swarm cannot carry) and is tallied as spill.
  double spill_bits = 0.0;
  bool split_first = false;
  if (config_.overload) {
    double demand = 0.0;
    double capacity = 0.0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const double* lanes = alloc_lanes(alloc_[i]);
      demand += lanes[1] + lanes[2] + lanes[3] + lanes[4];
      if (active_[i].join_window < w0) {
        capacity += config_.q_over_beta * active_[i].beta * dt;
      }
    }
    if (demand > capacity) {
      const double scale = capacity > 0 ? capacity / demand : 0.0;
      spill_alloc_.resize(active_.size());
      for (std::size_t i = 0; i < active_.size(); ++i) {
        spill_alloc_[i] = alloc_[i];
        double* lanes = reinterpret_cast<double*>(&spill_alloc_[i]);
        double moved = 0.0;
        for (std::size_t l = 1; l <= 4; ++l) {
          const double kept = lanes[l] * scale;
          moved += lanes[l] - kept;
          lanes[l] = kept;
        }
        lanes[0] += moved;  // server absorbs the shortfall
        lanes[5] *= scale;  // uploads shrink with the served transfers
        spill_bits += moved;
      }
      split_first = true;
    }
  }
  // The stretch folds as two runs: [w0, wm) under the (possibly capped)
  // first-window allocation and [wm, w1) under the steady one. Without a
  // spill wm == w1 and the fold sequence is exactly the unsplit one.
  const std::vector<PeerAllocation>& first_alloc =
      split_first ? spill_alloc_ : alloc_;
  const std::uint64_t wm = split_first ? w0 + 1 : w1;

  const auto fold_totals = [&](const std::vector<PeerAllocation>& alloc_row,
                               double windows) {
    for (std::size_t i = 0; i < active_.size(); ++i) {
      sweep_kernels::fold_traffic(traffic_lanes(swarm_traffic),
                                  alloc_lanes(alloc_row[i]), windows);
      if (config_.collect_per_user) {
        UserTraffic& ut = out.users[active_[i].user];
        ut.downloaded += Bits{alloc_row[i].downloaded_bits() * windows};
        ut.uploaded += Bits{alloc_row[i].upload_bits * windows};
      }
    }
  };
  fold_totals(first_alloc, static_cast<double>(wm - w0));
  if (wm < w1) fold_totals(alloc_, static_cast<double>(w1 - wm));

  if (split_first) {
    out.overload_spill += Bits{spill_bits};
    if (config_.collect_hourly) {
      const auto hour =
          static_cast<std::size_t>(static_cast<double>(w0) * dt / 3600.0);
      CL_ENSURES(hour < max_hours);
      if (hour >= out.hourly_spill.size()) out.hourly_spill.resize(hour + 1);
      out.hourly_spill[hour] += Bits{spill_bits};
    }
  }
  if (config_.collect_hourly) {
    const auto fold_hourly = [&](const std::vector<PeerAllocation>& alloc_row,
                                 std::uint64_t wa, std::uint64_t wb) {
      for_each_hour(wa, wb, dt, max_hours, metro_->isp_count(), out,
                    [&](std::vector<TrafficBreakdown>& row, double chunk) {
                      for (std::size_t i = 0; i < active_.size(); ++i) {
                        sweep_kernels::fold_traffic(
                            traffic_lanes(row[active_[i].isp]),
                            alloc_lanes(alloc_row[i]), chunk);
                      }
                    });
    };
    fold_hourly(first_alloc, w0, wm);
    if (wm < w1) fold_hourly(alloc_, wm, w1);
  }
}

void SwarmSweep::emit_swarm(SwarmKey key, std::size_t session_count,
                            double watch_seconds, double span_seconds,
                            const TrafficBreakdown* traffic, SimResult& out) {
  if (!config_.collect_swarms) return;
  SwarmResult swarm;
  swarm.key = key;
  swarm.sessions = session_count;
  swarm.capacity = span_seconds > 0 ? watch_seconds / span_seconds : 0;
  if (traffic != nullptr) swarm.traffic = *traffic;
  out.swarms.push_back(swarm);
}

template <typename MakePeer, typename Allocate>
void SwarmSweep::run_events(SwarmKey key, std::size_t session_count,
                            double watch_seconds, double span_seconds,
                            std::size_t max_hours, SimResult& out,
                            MakePeer&& make_peer, Allocate&& allocate) {
  if (events_.empty()) {
    emit_swarm(key, session_count, watch_seconds, span_seconds, nullptr, out);
    return;
  }
  std::sort(events_.begin(), events_.end(),
            [](const Event& a, const Event& b) {
              if (a.window != b.window) return a.window < b.window;
              if (a.type != b.type) return a.type < b.type;
              return a.idx < b.idx;
            });

  active_.clear();
  pos_.assign(session_count, -1);
  TrafficBreakdown swarm_traffic;

  std::size_t k = 0;
  std::uint64_t cur_w = events_.front().window;
  while (k < events_.size()) {
    // Apply every event at cur_w (leaves first by sort order).
    while (k < events_.size() && events_[k].window == cur_w) {
      const Event& e = events_[k];
      if (e.type == 1) {
        pos_[e.idx] = static_cast<std::int32_t>(active_.size());
        active_.push_back(make_peer(e.idx, cur_w));
      } else {
        const auto i = static_cast<std::size_t>(pos_[e.idx]);
        CL_ENSURES(pos_[e.idx] >= 0 && i < active_.size());
        active_[i] = active_.back();
        pos_[active_[i].session] = static_cast<std::int32_t>(i);
        active_.pop_back();
        pos_[e.idx] = -1;
      }
      ++k;
    }
    if (k == events_.size()) break;
    const std::uint64_t next_w = events_[k].window;
    if (!active_.empty()) {
      process_stretch(allocate, cur_w, next_w, swarm_traffic, max_hours, out);
    }
    cur_w = next_w;
  }
  CL_ENSURES(active_.empty());

  out.total += swarm_traffic;
  emit_swarm(key, session_count, watch_seconds, span_seconds, &swarm_traffic,
             out);
}

template <typename MakePeer, typename Allocate>
void SwarmSweep::run_events_merge(SwarmKey key, std::size_t session_count,
                                  double watch_seconds, double span_seconds,
                                  std::size_t max_hours, SimResult& out,
                                  MakePeer&& make_peer, Allocate&& allocate) {
  const std::size_t m = join_idx_.size();
  if (m == 0) {
    emit_swarm(key, session_count, watch_seconds, span_seconds, nullptr, out);
    return;
  }
  active_.clear();
  pos_.assign(session_count, -1);
  TrafficBreakdown swarm_traffic;

  // The earliest event is always a join (every leave strictly follows
  // its own join), so starting at the first join window replays exactly
  // the sorted-event order: all leaves at cur_w, then all joins, then
  // one stretch to the next event window.
  std::size_t ji = 0;
  std::size_t li = 0;
  std::uint64_t cur_w = w_start_[join_idx_[0]];
  for (;;) {
    while (li < m && (leave_keys_[li] >> kLeaveIdxBits) == cur_w) {
      const auto idx =
          static_cast<std::uint32_t>(leave_keys_[li] & kLeaveIdxMask);
      const auto i = static_cast<std::size_t>(pos_[idx]);
      CL_ENSURES(pos_[idx] >= 0 && i < active_.size());
      active_[i] = active_.back();
      pos_[active_[i].session] = static_cast<std::int32_t>(i);
      active_.pop_back();
      pos_[idx] = -1;
      ++li;
    }
    while (ji < m && w_start_[join_idx_[ji]] == cur_w) {
      const std::uint32_t g = join_idx_[ji];
      pos_[g] = static_cast<std::int32_t>(active_.size());
      active_.push_back(make_peer(g, cur_w));
      ++ji;
    }
    if (ji == m && li == m) break;
    std::uint64_t next_w = std::numeric_limits<std::uint64_t>::max();
    if (li < m) next_w = leave_keys_[li] >> kLeaveIdxBits;
    if (ji < m) next_w = std::min(next_w, w_start_[join_idx_[ji]]);
    if (!active_.empty()) {
      process_stretch(allocate, cur_w, next_w, swarm_traffic, max_hours, out);
    }
    cur_w = next_w;
  }
  CL_ENSURES(active_.empty());

  out.total += swarm_traffic;
  emit_swarm(key, session_count, watch_seconds, span_seconds, &swarm_traffic,
             out);
}

void SwarmSweep::sweep(SwarmKey key, std::span<const std::uint32_t> indices,
                       const TraceView& view, SimResult& out) {
  // The active-list bookkeeping packs session indices into int32_t slots;
  // a pathological >2B-session swarm must fail loudly, not corrupt them.
  CL_EXPECTS(indices.size() <= static_cast<std::size_t>(
                                   std::numeric_limits<std::int32_t>::max()));
  using Clock = std::chrono::steady_clock;
  const bool timed = timing_ != nullptr;
  Clock::time_point t0;
  if (timed) t0 = Clock::now();

  const double dt = config_.window.value();
  const std::size_t count = indices.size();

  // Gather phase 1 (kernel 1): window bounds, stripe-8 watch-time sum,
  // and the window-crossing count — sessions shorter than one window
  // never complete a full Δτ streaming step and emit no events, so the
  // crossing count sizes the event streams exactly.
  w_start_.resize(count);
  w_end_.resize(count);
  const sweep_kernels::WindowBounds bounds = sweep_kernels::window_bounds(
      indices, view.start().data(), view.duration().data(), dt,
      w_start_.data(), w_end_.data());

  // Build the event streams. Joins inherit the trace's start ordering
  // (verified — a shuffled trace falls back to the sorting loop), and
  // leaves become packed u64 sort keys when they fit.
  const bool packable =
      bounds.max_end_window < kMaxPackWindow && count <= kLeaveIdxMask + 1;
  bool joins_sorted = true;
  join_idx_.clear();
  leave_keys_.clear();
  if (packable) {
    join_idx_.reserve(bounds.crossings);
    leave_keys_.reserve(bounds.crossings);
    std::uint64_t prev = 0;
    for (std::size_t g = 0; g < count; ++g) {
      if (w_end_[g] > w_start_[g]) {
        if (w_start_[g] < prev) joins_sorted = false;
        prev = w_start_[g];
        join_idx_.push_back(static_cast<std::uint32_t>(g));
        leave_keys_.push_back((w_end_[g] << kLeaveIdxBits) | g);
      }
    }
  }
  const bool merge_path = packable && joins_sorted;
  if (!merge_path) {
    events_.clear();
    events_.reserve(bounds.crossings * 2);
    for (std::size_t g = 0; g < count; ++g) {
      if (w_end_[g] > w_start_[g]) {
        events_.push_back({w_start_[g], 1, static_cast<std::uint32_t>(g)});
        events_.push_back({w_end_[g], 0, static_cast<std::uint32_t>(g)});
      }
    }
  }
  Clock::time_point t1;
  if (timed) t1 = Clock::now();

  bool single_isp = true;
  if (bounds.crossings > 0) {
    // Gather phase 2 (kernel 2): the per-peer fields the event loop
    // touches, as contiguous primitive arrays (skipped entirely for
    // swarms with no window-crossing session).
    const bool want_user = config_.collect_per_user;
    if (want_user) g_user_.resize(count);
    g_isp_.resize(count);
    g_exp_.resize(count);
    g_pop_.resize(count);
    g_beta_.resize(count);
    static const std::array<double, kBitrateClasses> kBetaTable = beta_table();
    const sweep_kernels::PeerGather peers = sweep_kernels::gather_peer_columns(
        indices, view.user().data(), view.isp().data(),
        view.exp().data(), view.bitrate().data(), kBetaTable.data(),
        want_user ? g_user_.data() : nullptr, g_isp_.data(), g_exp_.data(),
        g_beta_.data());
    single_isp = peers.single_isp;
    std::uint32_t max_pop = 0;
    if (single_isp) {
      // One shared ExP→PoP table — gatherable.
      const std::span<const std::uint32_t> table =
          metro_->isp(g_isp_[0]).exp_to_pop();
      max_pop = sweep_kernels::gather_pops(g_exp_.data(), count, table.data(),
                                           g_pop_.data());
    } else {
      for (std::size_t g = 0; g < count; ++g) {
        const std::uint32_t pop = metro_->isp(g_isp_[g]).pop_of(g_exp_[g]);
        g_pop_[g] = pop;
        max_pop = std::max(max_pop, pop);
      }
    }
    // Size the flat matcher scratch (values stay zero: resize only adds
    // zeros, and allocate_existence_flat re-zeroes what it touches).
    if (cnt_exp_.size() <= peers.max_exp) {
      cnt_exp_.resize(peers.max_exp + 1, 0);
      dem_exp_.resize(peers.max_exp + 1, 0.0);
    }
    if (cnt_pop_.size() <= max_pop) {
      cnt_pop_.resize(max_pop + 1, 0);
      dem_pop_.resize(max_pop + 1, 0.0);
    }
  }
  Clock::time_point t2;
  if (timed) t2 = Clock::now();

  // The flat allocator's ExP/PoP-indexed arrays assume every active peer
  // shares one ISP — true for every ISP-keyed swarm; ISP-spanning swarms
  // (cross-ISP ablation) take the generic matcher.
  const bool flat = config_.matcher == MatcherKind::kExistence && single_isp;
  lone_flat_ = flat;
  double allocate_seconds = 0;
  const bool have_user = config_.collect_per_user;
  const auto make_peer = [&](std::uint32_t idx, std::uint64_t window) {
    ActivePeer peer;
    peer.session = idx;
    // The user id only feeds the per-user split; when that collection is
    // off the user column was never gathered (see gather phase 2).
    peer.user = have_user ? g_user_[idx] : 0;
    peer.isp = g_isp_[idx];
    peer.exp = g_exp_[idx];
    peer.pop = g_pop_[idx];
    peer.beta = g_beta_[idx];
    peer.join_window = window;
    return peer;
  };
  const auto allocate = [&](std::span<const ActivePeer> actives,
                            std::size_t seed) {
    Clock::time_point a0;
    if (timed) a0 = Clock::now();
    if (flat) {
      allocate_existence_flat(actives, seed, alloc_);
    } else {
      matcher_->allocate(actives, seed, config_, alloc_);
    }
    if (timed) allocate_seconds += seconds_between(a0, Clock::now());
  };

  const double span_seconds = view.span().value();
  const std::size_t max_hours = hour_bound(span_seconds);
  if (merge_path) {
    std::sort(leave_keys_.begin(), leave_keys_.end());
    run_events_merge(key, count, bounds.watch_seconds, span_seconds, max_hours,
                     out, make_peer, allocate);
  } else {
    run_events(key, count, bounds.watch_seconds, span_seconds, max_hours, out,
               make_peer, allocate);
  }

  if (timed) {
    const auto t3 = Clock::now();
    timing_->gather1_seconds.fetch_add(seconds_between(t0, t1),
                                       std::memory_order_relaxed);
    timing_->gather2_seconds.fetch_add(seconds_between(t1, t2),
                                       std::memory_order_relaxed);
    timing_->events_seconds.fetch_add(
        seconds_between(t2, t3) - allocate_seconds, std::memory_order_relaxed);
    timing_->allocate_seconds.fetch_add(allocate_seconds,
                                        std::memory_order_relaxed);
  }
}

void SwarmSweep::sweep_rows(SwarmKey key,
                            std::span<const std::uint32_t> indices,
                            const Trace& trace, SimResult& out) {
  CL_EXPECTS(indices.size() <= static_cast<std::size_t>(
                                   std::numeric_limits<std::int32_t>::max()));
  const double dt = config_.window.value();
  const std::size_t count = indices.size();
  lone_flat_ = false;  // reference path: always through the matcher
  // First pass: window bounds into scratch + the stripe-8 watch-time sum
  // (the same reduction shape as sweep()'s kernel 1 — the two paths'
  // capacities must agree bit-for-bit) + the exact event count.
  w_start_.resize(count);
  w_end_.resize(count);
  double acc8[sweep_kernels::kStripe] = {};
  std::size_t crossings = 0;
  for (std::size_t g = 0; g < count; ++g) {
    const SessionRecord& s = trace.sessions[indices[g]];
    acc8[g % sweep_kernels::kStripe] += s.duration;
    const auto w_start = static_cast<std::uint64_t>(s.start / dt);
    const auto w_end = static_cast<std::uint64_t>(s.end() / dt);
    w_start_[g] = w_start;
    w_end_[g] = w_end;
    crossings += w_end > w_start ? 1 : 0;
  }
  double watch_seconds = acc8[0];
  // [vec:rows-watch-fold]
  for (std::size_t k = 1; k < sweep_kernels::kStripe; ++k) {
    watch_seconds += acc8[k];
  }
  events_.clear();
  events_.reserve(crossings * 2);
  for (std::size_t g = 0; g < count; ++g) {
    if (w_end_[g] > w_start_[g]) {
      events_.push_back({w_start_[g], 1, static_cast<std::uint32_t>(g)});
      events_.push_back({w_end_[g], 0, static_cast<std::uint32_t>(g)});
    }
  }
  run_events(
      key, count, watch_seconds, trace.span.value(),
      hour_bound(trace.span.value()), out,
      [&](std::uint32_t idx, std::uint64_t window) {
        const SessionRecord& s = trace.sessions[indices[idx]];
        ActivePeer peer;
        peer.session = idx;
        peer.user = s.user;
        peer.isp = s.isp;
        peer.exp = s.exp;
        peer.pop = metro_->isp(s.isp).pop_of(s.exp);
        peer.beta = s.beta().value();
        peer.join_window = window;
        return peer;
      },
      [&](std::span<const ActivePeer> actives, std::size_t seed) {
        matcher_->allocate(actives, seed, config_, alloc_);
      });
}

void SwarmSweep::allocate_existence_flat(std::span<const ActivePeer> actives,
                                         std::size_t seed_index,
                                         std::vector<PeerAllocation>& out) {
  const std::size_t n = actives.size();
  CL_EXPECTS(n == 0 || seed_index < n);
  out.assign(n, PeerAllocation{});
  if (n == 0) return;
  const double dt = config_.window.value();
  if (n == 1) {
    // A lone peer pulls everything from the CDN and uploads nothing —
    // the dominant stretch shape in sparse swarms, worth skipping the
    // counting passes for. Identical to the general path below (every
    // peer transfer is gated on n >= 2).
    out[0].server_bits = actives[0].beta * dt;
    return;
  }
  const double ratio = std::min(config_.q_over_beta, 1.0);

  for (const ActivePeer& a : actives) {
    ++cnt_exp_[a.exp];
    ++cnt_pop_[a.pop];
  }
  const auto cnt_isp = static_cast<std::uint32_t>(n);  // single-ISP swarm

  // Same accumulation order as ExistenceMatcher::allocate — every
  // floating-point add/divide happens on the same values in the same
  // sequence, so the allocation is bit-identical to the generic matcher.
  double dem_core = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ActivePeer& a = actives[i];
    const double demand = a.beta * dt;
    out[i].server_bits = demand;
    if (i == seed_index) continue;
    const double d = ratio * demand;
    if (d <= 0) continue;
    if (cnt_exp_[a.exp] >= 2) {
      out[i].peer_bits[index(LocalityLevel::kExchangePoint)] = d;
      dem_exp_[a.exp] += d;
    } else if (cnt_pop_[a.pop] >= 2) {
      out[i].peer_bits[index(LocalityLevel::kPop)] = d;
      dem_pop_[a.pop] += d;
    } else {
      // With n >= 2 peers in one ISP the core layer always has company;
      // the generic matcher's cross-ISP branch is unreachable here.
      out[i].peer_bits[index(LocalityLevel::kCore)] = d;
      dem_core += d;
    }
    out[i].server_bits -= d;
  }

  // Attribute uploads evenly across the members of each serving bucket
  // (kernel 3; see DESIGN.md: totals are exact, the per-user split is
  // the symmetric-swarm approximation). A bucket's demand is > 0 iff the
  // map-based matcher would have an entry for it (all deposits are > 0).
  // The core share is the same divide for every member — hoisted.
  const double core_term =
      dem_core > 0 ? dem_core / static_cast<double>(cnt_isp) : 0.0;
  sweep_kernels::upload_shares(actives.data(), n, dem_exp_.data(),
                               cnt_exp_.data(), dem_pop_.data(),
                               cnt_pop_.data(), core_term, out.data());

  // Restore the all-zero scratch invariant (touched entries only).
  for (const ActivePeer& a : actives) {
    cnt_exp_[a.exp] = 0;
    dem_exp_[a.exp] = 0;
    cnt_pop_[a.pop] = 0;
    dem_pop_[a.pop] = 0;
  }
}

}  // namespace cl
