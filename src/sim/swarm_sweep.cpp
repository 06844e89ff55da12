#include "sim/swarm_sweep.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

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

/// Packed leave sort key layout: window in the high 40 bits, session
/// index in the low 24. Sorting the keys as plain u64 yields exactly the
/// (window, idx) leave order. Swarms beyond either field's range (a
/// >16.7M-session swarm, or a window index past ~34 800 years at
/// Δτ = 10 s) sort their leave indices with a (window, idx) comparator
/// instead — same order, slower sort.
constexpr int kLeaveIdxBits = 24;
constexpr std::uint64_t kLeaveIdxMask = (std::uint64_t{1} << kLeaveIdxBits) - 1;
constexpr std::uint64_t kMaxPackWindow = std::uint64_t{1}
                                         << (64 - kLeaveIdxBits);

/// Sorts packed leave keys listed in ascending index order into
/// (window, idx) order. Below kRadixMin keys a comparison sort is
/// cheapest. Above it, a stable LSD radix sort over the window field
/// alone does it: stability keeps ascending indices inside each window.
/// As in build_swarm_index, only the window bits that differ between
/// some two keys are sorted, at most kDigitBits per pass — two passes
/// for a month of 10 s windows. `scratch` and `count` are reused buffers.
void sort_leave_keys(simd::aligned_vector<std::uint64_t>& keys,
                     simd::aligned_vector<std::uint64_t>& scratch,
                     std::vector<std::size_t>& count) {
  constexpr std::size_t kRadixMin = 256;
  constexpr unsigned kDigitBits = 10;
  if (keys.size() < kRadixMin) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  std::uint64_t differ = 0;
  for (const std::uint64_t key : keys) differ |= key ^ keys[0];
  const std::uint64_t span = differ >> kLeaveIdxBits;
  if (span == 0) return;  // one leave window: already in index order
  const auto lo = static_cast<unsigned>(std::countr_zero(span));
  const auto hi = static_cast<unsigned>(std::bit_width(span));
  const unsigned passes = (hi - lo + kDigitBits - 1) / kDigitBits;
  const unsigned width = (hi - lo + passes - 1) / passes;
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  scratch.resize(keys.size());
  for (unsigned shift = kLeaveIdxBits + lo; shift < kLeaveIdxBits + hi;
       shift += width) {
    const auto digit = [shift, mask](std::uint64_t key) {
      return static_cast<std::size_t>((key >> shift) & mask);
    };
    count.assign(mask + 1, 0);
    for (const std::uint64_t key : keys) ++count[digit(key)];
    std::size_t at = 0;
    for (std::size_t& bucket : count) at += std::exchange(bucket, at);
    for (const std::uint64_t key : keys) scratch[count[digit(key)]++] = key;
    keys.swap(scratch);
  }
}

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

void SwarmSweep::build_event_streams(std::size_t crossings,
                                     std::uint64_t max_end_window) {
  const std::size_t count = w_start_.size();
  const bool packable =
      max_end_window < kMaxPackWindow && count <= kLeaveIdxMask + 1;
  join_idx_.clear();
  join_idx_.reserve(crossings);
  leave_keys_.clear();
  if (packable) leave_keys_.reserve(crossings);
  // Sessions shorter than one window never complete a full Δτ streaming
  // step and emit no events. Scanning g upwards lists joins in (window,
  // idx) order whenever the swarm's sessions are start-sorted — true of
  // every generated and loaded trace — so only a shuffled one is sorted.
  bool joins_sorted = true;
  std::uint64_t prev = 0;
  for (std::size_t g = 0; g < count; ++g) {
    if (w_end_[g] > w_start_[g]) {
      if (w_start_[g] < prev) joins_sorted = false;
      prev = w_start_[g];
      join_idx_.push_back(static_cast<std::uint32_t>(g));
      if (packable) leave_keys_.push_back((w_end_[g] << kLeaveIdxBits) | g);
    }
  }
  leave_idx_.resize(join_idx_.size());
  leave_w_.resize(join_idx_.size());
  if (packable) {
    sort_leave_keys(leave_keys_, sort_scratch_, sort_count_);
    for (std::size_t k = 0; k < leave_keys_.size(); ++k) {
      leave_idx_[k] =
          static_cast<std::uint32_t>(leave_keys_[k] & kLeaveIdxMask);
      leave_w_[k] = leave_keys_[k] >> kLeaveIdxBits;
    }
  } else {
    std::copy(join_idx_.begin(), join_idx_.end(), leave_idx_.begin());
    std::sort(leave_idx_.begin(), leave_idx_.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return w_end_[x] != w_end_[y] ? w_end_[x] < w_end_[y] : x < y;
              });
    for (std::size_t k = 0; k < leave_idx_.size(); ++k) {
      leave_w_[k] = w_end_[leave_idx_[k]];
    }
  }
  if (!joins_sorted) {
    std::stable_sort(join_idx_.begin(), join_idx_.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       return w_start_[x] < w_start_[y];
                     });
  }
}

template <typename Leave, typename Join, typename Stretch>
void SwarmSweep::replay_events(Leave&& leave, Join&& join, Stretch&& stretch) {
  const std::size_t m = join_idx_.size();
  if (m == 0) return;
  // The earliest event is always a join (every leave strictly follows
  // its own join), so the loop starts at the first join window. At each
  // event window: all leaves, then all joins, then one stretch to the
  // next event window unless the swarm is empty (ji − li members).
  std::size_t ji = 0;
  std::size_t li = 0;
  std::uint64_t cur_w = w_start_[join_idx_[0]];
  for (;;) {
    while (li < m && leave_w_[li] == cur_w) leave(leave_idx_[li++]);
    while (ji < m && w_start_[join_idx_[ji]] == cur_w) {
      join(join_idx_[ji++], cur_w);
    }
    if (ji == m && li == m) break;
    std::uint64_t next_w = std::numeric_limits<std::uint64_t>::max();
    if (li < m) next_w = leave_w_[li];
    if (ji < m) next_w = std::min(next_w, w_start_[join_idx_[ji]]);
    if (ji > li) stretch(cur_w, next_w);
    cur_w = next_w;
  }
}

template <typename MakePeer>
void SwarmSweep::sweep_per_peer(std::size_t session_count,
                                std::size_t max_hours,
                                TrafficBreakdown& swarm_traffic,
                                SimResult& out, MakePeer&& make_peer) {
  active_.clear();
  pos_.assign(session_count, -1);
  replay_events(
      [&](std::uint32_t idx) {
        const auto i = static_cast<std::size_t>(pos_[idx]);
        CL_ENSURES(pos_[idx] >= 0 && i < active_.size());
        active_[i] = active_.back();
        pos_[active_[i].session] = static_cast<std::int32_t>(i);
        active_.pop_back();
        pos_[idx] = -1;
      },
      [&](std::uint32_t idx, std::uint64_t window) {
        pos_[idx] = static_cast<std::int32_t>(active_.size());
        active_.push_back(make_peer(idx, window));
      },
      [&](std::uint64_t w0, std::uint64_t w1) {
        process_stretch(w0, w1, swarm_traffic, max_hours, out);
      });
  CL_ENSURES(active_.empty());
}

void SwarmSweep::process_stretch(std::uint64_t w0, std::uint64_t w1,
                                 TrafficBreakdown& swarm_traffic,
                                 std::size_t max_hours, SimResult& out) {
  const double dt = config_.window.value();
  ++counts_.per_peer;
  // Seed peer: the longest-present member (deterministic tie-break).
  std::size_t seed = 0;
  for (std::size_t i = 1; i < active_.size(); ++i) {
    if (active_[i].join_window < active_[seed].join_window ||
        (active_[i].join_window == active_[seed].join_window &&
         active_[i].session < active_[seed].session)) {
      seed = i;
    }
  }
  if (timing_ != nullptr) {
    const auto a0 = std::chrono::steady_clock::now();
    matcher_->allocate(active_, seed, config_, alloc_);
    allocate_seconds_ += seconds_between(a0, std::chrono::steady_clock::now());
  } else {
    matcher_->allocate(active_, seed, config_, alloc_);
  }

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
      ++counts_.overload_split;
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

  if (split_first) add_spill(w0, spill_bits, max_hours, out);
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

void SwarmSweep::add_spill(std::uint64_t w0, double spill_bits,
                           std::size_t max_hours, SimResult& out) const {
  out.overload_spill += Bits{spill_bits};
  if (!config_.collect_hourly) return;
  const auto hour = static_cast<std::size_t>(static_cast<double>(w0) *
                                             config_.window.value() / 3600.0);
  CL_ENSURES(hour < max_hours);
  if (hour >= out.hourly_spill.size()) out.hourly_spill.resize(hour + 1);
  out.hourly_spill[hour] += Bits{spill_bits};
}

void SwarmSweep::sweep_counts(std::size_t max_hours,
                              TrafficBreakdown& swarm_traffic,
                              SimResult& out) {
  const double dt = config_.window.value();
  const double q = config_.q_over_beta;
  // Bits per window a non-seed peer pulls from a peer, per bit/s of β.
  const double k = std::min(q, 1.0) * dt;
  const bool per_user = config_.collect_per_user;
  const std::uint32_t isp = g_isp_[join_idx_[0]];
  if (per_user) snap_.resize(w_start_.size());

  // Swarm β sums (exact: every β is an integer bit rate): all members,
  // members of a shared ExP, and singleton-ExP members of a shared PoP.
  // The remaining members are served by the core. `s_fresh` sums the
  // members that joined at the current event window (cold under the
  // overload model).
  double s_all = 0;
  double s_exp = 0;
  double s_pop = 0;
  double s_fresh = 0;
  std::size_t members = 0;
  // The seed is the first entry of join_idx_ still present (w_end_ past
  // the stretch start); entries before seed_pos have all left.
  std::size_t seed_pos = 0;
  std::uint32_t seed = std::numeric_limits<std::uint32_t>::max();
  // Per-user upload integrals run on one swarm clock of effective
  // windows (an overload-split stretch's first window counts `scale`).
  // The core bucket holds every member, so its Φ is advanced at every
  // stretch end instead of lazily.
  double clock = 0;
  double core_phi = 0;
  double core_rate = 0;

  const auto touch = [&](Bucket& b) {
    b.phi += b.rate * (clock - b.stamp);
    b.stamp = clock;
    if (!b.dirty) {
      b.dirty = true;
      dirty_.push_back(&b);
    }
  };
  const auto rebase = [](Bucket& b) {
    const bool dirty = b.dirty;
    b = Bucket{};
    b.dirty = dirty;
  };
  // Moves one peer into or out of its ExP and PoP: take the two buckets'
  // class contributions out of the swarm sums, update them, add them back.
  const auto move = [&](Bucket& e, Bucket& p, double beta, bool join) {
    s_exp -= e.count >= 2 ? e.beta : 0.0;
    s_pop -= p.count >= 2 ? p.beta : 0.0;
    if (join) {
      // ExP 0→1: the peer is a singleton its PoP serves; 1→2: the old
      // singleton now shares its ExP and leaves the PoP's sum.
      if (e.count == 0) {
        p.beta += beta;
      } else if (e.count == 1) {
        p.beta -= e.beta;
      }
      ++e.count;
      e.beta += beta;
      ++p.count;
    } else {
      // ExP 1→0: the singleton leaves the PoP's sum; 2→1: the remaining
      // member becomes a singleton the PoP serves.
      if (e.count == 1) {
        p.beta -= beta;
      } else if (e.count == 2) {
        p.beta += e.beta - beta;
      }
      --e.count;
      e.beta -= beta;
      --p.count;
      if (e.count == 0) rebase(e);
      if (p.count == 0) rebase(p);
    }
    s_exp += e.count >= 2 ? e.beta : 0.0;
    s_pop += p.count >= 2 ? p.beta : 0.0;
  };

  const auto leave = [&](std::uint32_t g) {
    Bucket& e = exp_buckets_[g_exp_[g]];
    Bucket& p = pop_buckets_[g_pop_[g]];
    const double beta = g_beta_[g];
    if (per_user) {
      touch(e);
      touch(p);
      const Snapshot& at_join = snap_[g];
      UserTraffic& ut = out.users[g_user_[g]];
      ut.downloaded +=
          Bits{beta * dt * static_cast<double>(w_end_[g] - w_start_[g])};
      ut.uploaded += Bits{(e.phi - at_join.exp) + (p.phi - at_join.pop) +
                          (core_phi - at_join.core)};
    }
    move(e, p, beta, false);
    s_all -= beta;
    if (--members == 0) {
      s_all = 0;
      s_exp = 0;
      s_pop = 0;
      core_phi = 0;
      core_rate = 0;
    }
  };
  const auto join = [&](std::uint32_t g, std::uint64_t) {
    Bucket& e = exp_buckets_[g_exp_[g]];
    Bucket& p = pop_buckets_[g_pop_[g]];
    const double beta = g_beta_[g];
    if (per_user) {
      touch(e);
      touch(p);
    }
    move(e, p, beta, true);
    s_all += beta;
    s_fresh += beta;
    ++members;
    if (per_user) snap_[g] = Snapshot{e.phi, p.phi, core_phi};
  };
  const auto stretch = [&](std::uint64_t w0, std::uint64_t w1) {
    ++counts_.count;
    while (w_end_[join_idx_[seed_pos]] <= w0) ++seed_pos;
    const std::uint32_t s = join_idx_[seed_pos];
    Bucket& seed_exp = exp_buckets_[g_exp_[s]];
    Bucket& seed_pop = pop_buckets_[g_pop_[s]];
    const double seed_beta = g_beta_[s];
    // The seed pulls everything from the CDN: its β leaves its class.
    double exp_sum = s_exp;
    double pop_sum = s_pop;
    double core_sum = s_all - s_exp - s_pop;
    if (seed_exp.count >= 2) {
      exp_sum -= seed_beta;
    } else if (seed_pop.count >= 2) {
      pop_sum -= seed_beta;
    } else {
      core_sum -= seed_beta;
    }
    if (per_user) {
      // Upload rate of every bucket whose members or seed share changed.
      if (s != seed) {
        touch(seed_exp);
        touch(seed_pop);
        seed = s;
      }
      for (Bucket* b : dirty_) {
        double served = b->beta;
        if (b == &seed_exp || (b == &seed_pop && seed_exp.count == 1)) {
          served -= seed_beta;
        }
        b->rate =
            b->count >= 2 ? k * served / static_cast<double>(b->count) : 0.0;
        b->dirty = false;
      }
      dirty_.clear();
      core_rate =
          members >= 2 ? k * core_sum / static_cast<double>(members) : 0.0;
    }

    // server, peer[ExP], peer[PoP], peer[core], cross_isp per window.
    double lanes[sweep_kernels::kTrafficLanes] = {};
    lanes[1] = k * exp_sum;
    lanes[2] = k * pop_sum;
    lanes[3] = k * core_sum;
    lanes[0] = dt * s_all - (lanes[1] + lanes[2] + lanes[3]);

    // Overload model: see process_stretch. Warm capacity is the β of the
    // members that did not join at w0.
    double first[sweep_kernels::kTrafficLanes];
    std::copy(std::begin(lanes), std::end(lanes), std::begin(first));
    const auto windows = static_cast<double>(w1 - w0);
    double effective = windows;
    bool split_first = false;
    if (config_.overload) {
      const double demand = k * (s_all - seed_beta);
      const double capacity = q * dt * (s_all - s_fresh);
      if (demand > capacity) {
        const double scale = capacity > 0 ? capacity / demand : 0.0;
        double spill_bits = 0.0;
        for (std::size_t l = 1; l <= 3; ++l) {
          first[l] = lanes[l] * scale;
          spill_bits += lanes[l] - first[l];
        }
        first[0] = lanes[0] + spill_bits;
        add_spill(w0, spill_bits, max_hours, out);
        effective = scale + (windows - 1.0);
        split_first = true;
        ++counts_.overload_split;
      }
    }
    s_fresh = 0;
    const std::uint64_t wm = split_first ? w0 + 1 : w1;
    double* total = traffic_lanes(swarm_traffic);
    sweep_kernels::fold_traffic(total, first, static_cast<double>(wm - w0));
    if (wm < w1) {
      sweep_kernels::fold_traffic(total, lanes, static_cast<double>(w1 - wm));
    }
    if (config_.collect_hourly) {
      const auto fold_hourly = [&](const double* row_lanes, std::uint64_t wa,
                                   std::uint64_t wb) {
        for_each_hour(wa, wb, dt, max_hours, metro_->isp_count(), out,
                      [&](std::vector<TrafficBreakdown>& row, double chunk) {
                        sweep_kernels::fold_traffic(traffic_lanes(row[isp]),
                                                    row_lanes, chunk);
                      });
      };
      fold_hourly(first, w0, wm);
      if (wm < w1) fold_hourly(lanes, wm, w1);
    }
    if (per_user) {
      clock += effective;
      core_phi += core_rate * effective;
    }
  };

  replay_events(leave, join, stretch);
  CL_ENSURES(members == 0);
  for (Bucket* b : dirty_) b->dirty = false;
  dirty_.clear();
}

void SwarmSweep::finish_swarm(SwarmKey key, std::size_t session_count,
                              double watch_seconds, double span_seconds,
                              const TrafficBreakdown& traffic,
                              SimResult& out) {
  out.total += traffic;
  if (config_.collect_swarms) {
    SwarmResult swarm;
    swarm.key = key;
    swarm.sessions = session_count;
    swarm.capacity = span_seconds > 0 ? watch_seconds / span_seconds : 0;
    swarm.traffic = traffic;
    out.swarms.push_back(swarm);
  }
  if (timing_ != nullptr) {
    timing_->count_stretches.fetch_add(counts_.count,
                                       std::memory_order_relaxed);
    timing_->per_peer_stretches.fetch_add(counts_.per_peer,
                                          std::memory_order_relaxed);
    timing_->overload_split_stretches.fetch_add(counts_.overload_split,
                                                std::memory_order_relaxed);
  }
  counts_ = StretchCounts{};
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
  // the window-crossing count that sizes the event streams, and the
  // largest end window that picks their leave sort.
  w_start_.resize(count);
  w_end_.resize(count);
  const sweep_kernels::WindowBounds bounds = sweep_kernels::window_bounds(
      indices, view.start().data(), view.duration().data(), dt,
      w_start_.data(), w_end_.data());
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
    if (single_isp) {
      // One shared ExP→PoP table — gatherable.
      const std::span<const std::uint32_t> table =
          metro_->isp(g_isp_[0]).exp_to_pop();
      const std::uint32_t max_pop = sweep_kernels::gather_pops(
          g_exp_.data(), count, table.data(), g_pop_.data());
      // Size the count route's buckets (resize only adds all-zero ones).
      if (exp_buckets_.size() <= peers.max_exp) {
        exp_buckets_.resize(peers.max_exp + 1);
      }
      if (pop_buckets_.size() <= max_pop) pop_buckets_.resize(max_pop + 1);
    } else {
      for (std::size_t g = 0; g < count; ++g) {
        g_pop_[g] = metro_->isp(g_isp_[g]).pop_of(g_exp_[g]);
      }
    }
  }
  Clock::time_point t2;
  if (timed) t2 = Clock::now();

  // The count route's ExP/PoP-indexed buckets assume every member shares
  // one ISP — true of every ISP-keyed swarm; ISP-spanning swarms
  // (cross-ISP ablation) and the capacity matcher go per-peer.
  const bool count_route =
      config_.matcher == MatcherKind::kExistence && single_isp;
  const double span_seconds = view.span().value();
  const std::size_t max_hours = hour_bound(span_seconds);
  build_event_streams(bounds.crossings, bounds.max_end_window);
  TrafficBreakdown swarm_traffic;
  allocate_seconds_ = 0;
  if (join_idx_.empty()) {
    // No session completes a window: no traffic.
  } else if (count_route) {
    sweep_counts(max_hours, swarm_traffic, out);
  } else {
    const bool have_user = config_.collect_per_user;
    sweep_per_peer(count, max_hours, swarm_traffic, out,
                   [&](std::uint32_t idx, std::uint64_t window) {
                     ActivePeer peer;
                     peer.session = idx;
                     // The user id only feeds the per-user split; when
                     // that collection is off the user column was never
                     // gathered (see gather phase 2).
                     peer.user = have_user ? g_user_[idx] : 0;
                     peer.isp = g_isp_[idx];
                     peer.exp = g_exp_[idx];
                     peer.pop = g_pop_[idx];
                     peer.beta = g_beta_[idx];
                     peer.join_window = window;
                     return peer;
                   });
  }
  finish_swarm(key, count, bounds.watch_seconds, span_seconds, swarm_traffic,
               out);

  if (timed) {
    const auto t3 = Clock::now();
    timing_->gather1_seconds.fetch_add(seconds_between(t0, t1),
                                       std::memory_order_relaxed);
    timing_->gather2_seconds.fetch_add(seconds_between(t1, t2),
                                       std::memory_order_relaxed);
    timing_->events_seconds.fetch_add(
        seconds_between(t2, t3) - allocate_seconds_,
        std::memory_order_relaxed);
    timing_->allocate_seconds.fetch_add(allocate_seconds_,
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
  // First pass: window bounds into scratch + the stripe-8 watch-time sum
  // (the same reduction shape as sweep()'s kernel 1 — the two paths'
  // capacities must agree bit-for-bit) + the crossing count and largest
  // end window build_event_streams takes.
  w_start_.resize(count);
  w_end_.resize(count);
  double acc8[sweep_kernels::kStripe] = {};
  std::size_t crossings = 0;
  std::uint64_t max_end_window = 0;
  for (std::size_t g = 0; g < count; ++g) {
    const SessionRecord& s = trace.sessions[indices[g]];
    acc8[g % sweep_kernels::kStripe] += s.duration;
    const auto w_start = static_cast<std::uint64_t>(s.start / dt);
    const auto w_end = static_cast<std::uint64_t>(s.end() / dt);
    w_start_[g] = w_start;
    w_end_[g] = w_end;
    crossings += w_end > w_start ? 1 : 0;
    max_end_window = std::max(max_end_window, w_end);
  }
  double watch_seconds = acc8[0];
  // [vec:rows-watch-fold]
  for (std::size_t k = 1; k < sweep_kernels::kStripe; ++k) {
    watch_seconds += acc8[k];
  }
  build_event_streams(crossings, max_end_window);
  TrafficBreakdown swarm_traffic;
  sweep_per_peer(count, hour_bound(trace.span.value()), swarm_traffic, out,
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
                 });
  finish_swarm(key, count, watch_seconds, trace.span.value(), swarm_traffic,
               out);
}

}  // namespace cl
