// sweep_kernels.h — the hot loops of the swarm sweep.
//
// Kernels, in sweep order:
//   1. window_bounds       — start/duration → window bounds, stripe-8
//                            watch-time sum, window-crossing count.
//   2. gather_peer_columns — per-peer user/ISP/ExP/β column gathers,
//                            single-ISP check, running ExP maximum.
//      gather_pops         — ExP→PoP table gather + running maximum.
//   3. upload_shares       — the flat existence-matcher's proportional
//                            upload attribution (masked divides).
//   4. fold_traffic        — the per-stretch traffic accumulation
//                            (lane-parallel multiply-add, no reduction).
//
// Kernels 3 and 4 are hand-vectorized on the VF64 lane wrapper
// (util/simd.h); their `_scalar` twins finish the tail lanes and are the
// reference the parity tests compare against. The vector code performs the same IEEE-754
// operations on the same values as the scalar twin, so every backend
// produces the same bits (DESIGN.md §"SIMD kernels"). Kernels 1 and 2
// are scalar: they are gather-bound, and hand-vectorized versions
// measured no faster.
//
// The watch-time sum of kernel 1 has a fixed stripe-8 shape (element i
// adds to accumulator i mod 8, folded left-to-right at the end). The
// swarm capacities are computed from that sum, so sweep_rows repeats the
// same shape and the two data paths agree bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "sim/matcher.h"
#include "util/simd.h"

namespace cl::sweep_kernels {

// ---------------------------------------------------------------------------
// Kernel 1 — window bounds + stripe-8 watch-time reduction
// ---------------------------------------------------------------------------

struct WindowBounds {
  double watch_seconds = 0;        ///< Σ duration, stripe-8 shape
  std::size_t crossings = 0;       ///< sessions with w_end > w_start
  std::uint64_t max_end_window = 0;  ///< max w_end (packed-key guard)
};

/// Number of virtual accumulators in the watch-time reduction.
inline constexpr std::size_t kStripe = 8;

inline WindowBounds window_bounds(std::span<const std::uint32_t> indices,
                                  const double* start, const double* duration,
                                  double dt, std::uint64_t* w_start,
                                  std::uint64_t* w_end) {
  double acc[kStripe] = {};
  WindowBounds r;
  const std::size_t n = indices.size();
  for (std::size_t g = 0; g < n; ++g) {
    if (g + simd::kPrefetchAhead < n) {
      const std::uint32_t pf = indices[g + simd::kPrefetchAhead];
      simd::prefetch(start + pf);
      simd::prefetch(duration + pf);
    }
    const std::uint32_t idx = indices[g];
    const double s = start[idx];
    const double d = duration[idx];
    acc[g % kStripe] += d;
    const auto ws = static_cast<std::uint64_t>(s / dt);
    const auto we = static_cast<std::uint64_t>((s + d) / dt);
    w_start[g] = ws;
    w_end[g] = we;
    r.crossings += we > ws ? 1 : 0;
    r.max_end_window = we > r.max_end_window ? we : r.max_end_window;
  }
  double watch = acc[0];
  // [vec:watch-stripe-fold]
  for (std::size_t k = 1; k < kStripe; ++k) watch += acc[k];
  r.watch_seconds = watch;
  return r;
}

// ---------------------------------------------------------------------------
// Kernel 2 — per-peer column gathers
// ---------------------------------------------------------------------------

struct PeerGather {
  std::uint32_t max_exp = 0;
  bool single_isp = true;
};

// `g_user` may be nullptr: the user column only feeds the per-user
// traffic split, so callers skip that gather (a full random-access pass
// over the column) when SimConfig::collect_per_user is off.

inline PeerGather gather_peer_columns(
    std::span<const std::uint32_t> indices, const std::uint32_t* users,
    const std::uint32_t* isps, const std::uint32_t* exps,
    const std::uint8_t* bitrates, const double* beta_table,
    std::uint32_t* g_user, std::uint32_t* g_isp, std::uint32_t* g_exp,
    double* g_beta) {
  PeerGather r;
  const std::size_t n = indices.size();
  const std::uint32_t isp0 = isps[indices[0]];
  for (std::size_t g = 0; g < n; ++g) {
    if (g + simd::kPrefetchAhead < n) {
      const std::uint32_t pf = indices[g + simd::kPrefetchAhead];
      if (g_user != nullptr) simd::prefetch(users + pf);
      simd::prefetch(isps + pf);
      simd::prefetch(exps + pf);
      simd::prefetch(bitrates + pf);
    }
    const std::uint32_t idx = indices[g];
    if (g_user != nullptr) g_user[g] = users[idx];
    const std::uint32_t isp = isps[idx];
    g_isp[g] = isp;
    if (isp != isp0) r.single_isp = false;
    const std::uint32_t exp = exps[idx];
    g_exp[g] = exp;
    r.max_exp = exp > r.max_exp ? exp : r.max_exp;
    g_beta[g] = beta_table[bitrates[idx]];
  }
  return r;
}

/// ExP→PoP table gather over the already-gathered contiguous g_exp
/// column; returns the running PoP maximum. Single-ISP swarms only (one
/// table); ISP-spanning swarms take the caller's pop_of loop.
inline std::uint32_t gather_pops(const std::uint32_t* g_exp, std::size_t n,
                                 const std::uint32_t* exp_to_pop,
                                 std::uint32_t* g_pop) {
  std::uint32_t max_pop = 0;
  for (std::size_t g = 0; g < n; ++g) {
    const std::uint32_t pop = exp_to_pop[g_exp[g]];
    g_pop[g] = pop;
    max_pop = pop > max_pop ? pop : max_pop;
  }
  return max_pop;
}

// ---------------------------------------------------------------------------
// Kernel 3 — proportional upload attribution (flat existence matcher)
// ---------------------------------------------------------------------------
//
// out[j].upload_bits = [dem_exp[e]>0] dem_exp[e]/cnt_exp[e]
//                    + [dem_pop[p]>0] dem_pop[p]/cnt_pop[p]
//                    + core_term
//
// The conditional adds are masked selects in the vector kernel: excluded
// terms contribute +0.0, and x + 0.0 == x bitwise for the non-negative
// demands involved, so both the kernel and its scalar twin produce the
// exact sum (exp_term + pop_term) + core_term. Divides are lane-wise
// IEEE — same bits as scalar. cnt_* convert u32→f64 exactly.

inline void upload_shares_scalar(const ActivePeer* actives, std::size_t n,
                                 const double* dem_exp,
                                 const std::uint32_t* cnt_exp,
                                 const double* dem_pop,
                                 const std::uint32_t* cnt_pop,
                                 double core_term, PeerAllocation* out) {
  for (std::size_t j = 0; j < n; ++j) {
    const ActivePeer& a = actives[j];
    const double de = dem_exp[a.exp];
    const double qe = de > 0 ? de / static_cast<double>(cnt_exp[a.exp]) : 0.0;
    const double dp = dem_pop[a.pop];
    const double qp = dp > 0 ? dp / static_cast<double>(cnt_pop[a.pop]) : 0.0;
    out[j].upload_bits = qe + qp + core_term;
  }
}

inline void upload_shares(const ActivePeer* actives, std::size_t n,
                          const double* dem_exp, const std::uint32_t* cnt_exp,
                          const double* dem_pop, const std::uint32_t* cnt_pop,
                          double core_term, PeerAllocation* out) {
  using simd::VF64;
  constexpr std::size_t kW = VF64::kLanes;
  if constexpr (kW == 1) {
    upload_shares_scalar(actives, n, dem_exp, cnt_exp, dem_pop, cnt_pop,
                         core_term, out);
  } else {
    const VF64 vzero = VF64::zero();
    const VF64 vcore = VF64::set1(core_term);
    std::size_t j = 0;
    for (; j + kW <= n; j += kW) {
      std::uint32_t eidx[kW];
      std::uint32_t pidx[kW];
      double ce[kW];
      double cp[kW];
      for (std::size_t l = 0; l < kW; ++l) {
        eidx[l] = actives[j + l].exp;
        pidx[l] = actives[j + l].pop;
        ce[l] = static_cast<double>(cnt_exp[eidx[l]]);
        cp[l] = static_cast<double>(cnt_pop[pidx[l]]);
      }
      const VF64 de = VF64::gather(dem_exp, eidx);
      const VF64 dp = VF64::gather(dem_pop, pidx);
      const VF64 qe =
          VF64::mask_and(de / VF64::loadu(ce), VF64::gt_mask(de, vzero));
      const VF64 qp =
          VF64::mask_and(dp / VF64::loadu(cp), VF64::gt_mask(dp, vzero));
      const VF64 up = qe + qp + vcore;
      for (std::size_t l = 0; l < kW; ++l) {
        out[j + l].upload_bits = up.lane(l);
      }
    }
    upload_shares_scalar(actives + j, n - j, dem_exp, cnt_exp, dem_pop,
                         cnt_pop, core_term, out + j);
  }
}

// ---------------------------------------------------------------------------
// Kernel 4 — per-stretch traffic fold
// ---------------------------------------------------------------------------
//
// tb[k] += al[k] * windows over the 5 contiguous traffic lanes
// (server, peer[0..2], cross_isp). Lanes are independent — no reduction,
// no FMA contraction (explicit mul + add, and the build sets
// -ffp-contract=off) — so any lane width produces identical bits.

inline constexpr std::size_t kTrafficLanes = 5;

inline void fold_traffic_scalar(double* tb, const double* al, double windows) {
  for (std::size_t k = 0; k < kTrafficLanes; ++k) {
    tb[k] += al[k] * windows;
  }
}

inline void fold_traffic(double* tb, const double* al, double windows) {
  using simd::VF64;
  constexpr std::size_t kW = VF64::kLanes;
  if constexpr (kW == 1) {
    fold_traffic_scalar(tb, al, windows);
  } else {
    const VF64 vw = VF64::set1(windows);
    std::size_t k = 0;
    for (; k + kW <= kTrafficLanes; k += kW) {
      (VF64::loadu(tb + k) + VF64::loadu(al + k) * vw).storeu(tb + k);
    }
    for (; k < kTrafficLanes; ++k) {
      tb[k] += al[k] * windows;
    }
  }
}

}  // namespace cl::sweep_kernels
