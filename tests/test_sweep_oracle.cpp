// Tests for the swarm sweep's event streams (sim/swarm_sweep.h) against
// an independent per-window oracle.
//
// The oracle shares nothing with the sweep but ExistenceMatcher: it
// walks every Δτ window of every swarm, collects that window's active
// set by scanning all sessions, picks the seed (earliest join, lowest
// index), allocates, applies the overload cap with warm = joined before
// this window, and sums. No stretch batching, no event streams, no
// lone-peer or pair shortcuts. run(view) and run_rows must agree with it
// to a relative 1e-12 (the sweep multiplies one allocation by a stretch
// length where the oracle adds it once per window).
//
// Inputs cover every branch of the event-stream sort:
//  * random start-sorted traces (joins already in order, packed leaves);
//  * a hand-built trace whose sessions are listed out of start order
//    (joins need the stable sort);
//  * sessions past 2^40 windows (leaves too large for the packed keys).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "sim/hybrid_sim.h"
#include "sim/matcher.h"
#include "sim/swarm_key.h"
#include "topology/placement.h"
#include "trace/bitrate.h"
#include "trace/swarm_index.h"
#include "trace/trace_view.h"
#include "util/rng.h"

namespace cl {
namespace {

const Metro& metro() {
  static const Metro m = Metro::london_top5();
  return m;
}

/// server, peer[ExP], peer[PoP], peer[core], cross_isp.
using Lanes = std::array<double, 5>;

Lanes lanes_of(const TrafficBreakdown& t) {
  return {t.server.value(), t.peer[0].value(), t.peer[1].value(),
          t.peer[2].value(), t.cross_isp.value()};
}

struct OracleResult {
  Lanes total{};
  std::map<std::uint64_t, Lanes> swarms;  ///< by SwarmKey::packed()
  double spill = 0;
};

OracleResult oracle(const Trace& trace, const SimConfig& config) {
  const double dt = config.window.value();
  std::map<std::uint64_t, std::vector<std::size_t>> swarms;
  for (std::size_t i = 0; i < trace.sessions.size(); ++i) {
    swarms[swarm_key_for(trace.sessions[i], config).packed()].push_back(i);
  }
  const ExistenceMatcher matcher;
  OracleResult r;
  std::vector<ActivePeer> active;
  std::vector<PeerAllocation> alloc;
  for (const auto& [key, members] : swarms) {
    Lanes& swarm = r.swarms[key];
    const std::size_t n = members.size();
    std::vector<std::uint64_t> join(n);
    std::vector<std::uint64_t> leave(n);
    std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t last = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const SessionRecord& s = trace.sessions[members[k]];
      join[k] = static_cast<std::uint64_t>(s.start / dt);
      leave[k] = static_cast<std::uint64_t>(s.end() / dt);
      if (leave[k] > join[k]) {
        first = std::min(first, join[k]);
        last = std::max(last, leave[k]);
      }
    }
    for (std::uint64_t w = first; w < last; ++w) {
      active.clear();
      for (std::size_t k = 0; k < n; ++k) {
        if (join[k] > w || w >= leave[k]) continue;
        const SessionRecord& s = trace.sessions[members[k]];
        ActivePeer peer;
        peer.session = static_cast<std::uint32_t>(k);
        peer.user = s.user;
        peer.isp = s.isp;
        peer.exp = s.exp;
        peer.pop = metro().isp(s.isp).pop_of(s.exp);
        peer.beta = bitrate_of(s.bitrate).value();
        peer.join_window = join[k];
        active.push_back(peer);
      }
      if (active.empty()) continue;
      // Listed by ascending index, so a strict < keeps the lowest index
      // among the earliest joiners.
      std::size_t seed = 0;
      for (std::size_t i = 1; i < active.size(); ++i) {
        if (active[i].join_window < active[seed].join_window) seed = i;
      }
      matcher.allocate(active, seed, config, alloc);
      if (config.overload) {
        double demand = 0;
        double capacity = 0;
        for (std::size_t i = 0; i < active.size(); ++i) {
          for (const double p : alloc[i].peer_bits) demand += p;
          demand += alloc[i].cross_isp_bits;
          if (active[i].join_window < w) {
            capacity += config.q_over_beta * active[i].beta * dt;
          }
        }
        if (demand > capacity) {
          const double scale = capacity > 0 ? capacity / demand : 0.0;
          for (PeerAllocation& a : alloc) {
            double moved = 0;
            for (double& p : a.peer_bits) {
              moved += p * (1 - scale);
              p *= scale;
            }
            moved += a.cross_isp_bits * (1 - scale);
            a.cross_isp_bits *= scale;
            a.server_bits += moved;
            r.spill += moved;
          }
        }
      }
      for (const PeerAllocation& a : alloc) {
        const Lanes l = {a.server_bits, a.peer_bits[0], a.peer_bits[1],
                         a.peer_bits[2], a.cross_isp_bits};
        for (std::size_t j = 0; j < l.size(); ++j) {
          r.total[j] += l[j];
          swarm[j] += l[j];
        }
      }
    }
  }
  return r;
}

void expect_close(double got, double want, const std::string& what) {
  EXPECT_LE(std::abs(got - want),
            1e-12 * std::max(std::abs(got), std::abs(want)))
      << what << ": got " << got << ", oracle " << want;
}

void expect_lanes_close(const Lanes& got, const Lanes& want,
                        const std::string& what) {
  for (std::size_t j = 0; j < got.size(); ++j) {
    expect_close(got[j], want[j], what + " lane " + std::to_string(j));
  }
}

void expect_matches_oracle(const SimResult& got, const OracleResult& want,
                           const std::string& what) {
  expect_lanes_close(lanes_of(got.total), want.total, what + " total");
  expect_close(got.overload_spill.value(), want.spill, what + " spill");
  ASSERT_EQ(got.swarms.size(), want.swarms.size()) << what;
  for (const SwarmResult& swarm : got.swarms) {
    const auto it = want.swarms.find(swarm.key.packed());
    ASSERT_NE(it, want.swarms.end()) << what;
    expect_lanes_close(lanes_of(swarm.traffic), it->second,
                       what + " swarm " + std::to_string(swarm.key.packed()));
  }
}

/// Runs the columnar sweep (on an owned SoA view) and the row path
/// (run_rows) under `config` with overload off and on, and checks both
/// against the per-window oracle. Returns the overload run's oracle
/// spill.
double check_against_oracle(const Trace& trace, SimConfig config,
                            const std::string& what) {
  double spill = 0;
  for (const bool overload : {false, true}) {
    config.overload = overload;
    const std::string label = what + (overload ? " overload" : " steady");
    const OracleResult want = oracle(trace, config);
    EXPECT_GT(want.total[1] + want.total[2] + want.total[3] + want.total[4],
              0.0)
        << label << ": peers should share";
    const HybridSimulator sim(metro(), config);
    expect_matches_oracle(sim.run(TraceView::from_trace(trace)), want,
                          label + " run(view)");
    expect_matches_oracle(sim.run_rows(trace), want, label + " run_rows");
    if (overload) spill = want.spill;
  }
  return spill;
}

SessionRecord session(std::uint32_t user, std::uint32_t content, double start,
                      double duration, std::uint32_t isp, std::uint32_t exp,
                      BitrateClass bitrate = BitrateClass::kSd) {
  SessionRecord s;
  s.user = user;
  s.household = user;
  s.content = content;
  s.isp = isp;
  s.exp = exp;
  s.bitrate = bitrate;
  s.start = start;
  s.duration = duration;
  return s;
}

/// A start-sorted two-hour trace over two contents, two ISPs and two
/// bitrates: a few exchange points per ISP so peers share at every
/// level, some sub-window sessions, and synchronized join bursts (cold
/// joiners, so the overload cap binds).
Trace random_trace(std::uint64_t seed) {
  Rng rng(seed);
  const double span = 7200.0;
  std::vector<SessionRecord> sessions;
  for (std::uint32_t u = 0; u < 240; ++u) {
    // One draw per statement: the draw order must not depend on the
    // compiler's operand evaluation order.
    const auto content = static_cast<std::uint32_t>(rng.uniform_index(2));
    const auto isp = static_cast<std::uint32_t>(rng.uniform_index(2));
    const auto exp = static_cast<std::uint32_t>(rng.uniform_index(
        std::min<std::uint64_t>(6, metro().isp(isp).exchange_points())));
    const BitrateClass bitrate =
        rng.bernoulli(0.5) ? BitrateClass::kSd : BitrateClass::kHd;
    double start = rng.uniform(0.0, span - 1.0);
    if (rng.bernoulli(0.2)) {
      start = 1800.0 * static_cast<double>(1 + rng.uniform_index(3));
      start += rng.uniform(0.0, 15.0);
    }
    double duration = std::min(rng.exponential(1.0 / 900.0), span - start);
    if (rng.bernoulli(0.1)) duration = rng.uniform(0.0, 9.0);
    sessions.push_back(
        session(u, content, start, duration, isp, exp, bitrate));
  }
  std::sort(sessions.begin(), sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.start < b.start;
            });
  return Trace{std::move(sessions), Seconds{span}, {}, {}};
}

TEST(SweepOracle, RandomTracesMatchPerWindowOracle) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Trace trace = random_trace(seed);
    const std::string what = "seed " + std::to_string(seed);
    SimConfig config;
    config.isp_friendly = false;  // hash grouping, cross-ISP peers
    check_against_oracle(trace, config, what + " cross-ISP");
    trace.swarm_index = build_swarm_index(trace);
    config.isp_friendly = true;  // swarms listed from the index
    EXPECT_GT(check_against_oracle(trace, config, what), 0.0)
        << what << ": the join bursts should overload";
  }
}

TEST(SweepOracle, OutOfOrderStartsMatchPerWindowOracle) {
  // Listed out of start order, so each swarm's index-ordered sessions
  // have non-monotone join windows. Several share a join window (ties
  // break by index) and some leave together.
  const Trace trace{
      {session(0, 0, 400.0, 900.0, 0, 0), session(1, 0, 20.0, 600.0, 0, 1),
       session(2, 0, 25.0, 1400.0, 0, 0), session(3, 0, 1000.0, 300.0, 0, 2),
       session(4, 0, 15.0, 395.0, 0, 0), session(5, 0, 300.0, 1100.0, 0, 3),
       session(6, 0, 2500.0, 500.0, 0, 1), session(7, 0, 21.0, 4.0, 0, 2),
       session(8, 0, 401.0, 599.0, 0, 2), session(9, 0, 5.0, 2000.0, 0, 4),
       session(10, 0, 3000.0, 200.0, 1, 0, BitrateClass::kHd),
       session(11, 0, 120.0, 3000.0, 1, 1, BitrateClass::kHd),
       session(12, 0, 3001.0, 600.0, 1, 0, BitrateClass::kHd),
       session(13, 0, 64.0, 50.0, 1, 2, BitrateClass::kHd),
       session(14, 0, 125.0, 2500.0, 1, 0, BitrateClass::kHd)},
      Seconds{7200.0},
      {},
      {}};
  check_against_oracle(trace, SimConfig{}, "out of order");
  SimConfig cross;
  cross.isp_friendly = false;
  cross.split_by_bitrate = false;
  check_against_oracle(trace, cross, "out of order, one swarm");
}

TEST(SweepOracle, WindowsPastPackedKeyRangeMatchPerWindowOracle) {
  // Δτ = 1 s and starts near 1.2e12 s put every window index past 2^40,
  // beyond the packed leave keys' window field. The hourly grid would
  // need ~3.3e8 hours, so it stays off.
  const double base = 1.2e12;
  ASSERT_GT(base, std::ldexp(1.0, 40));
  SimConfig config;
  config.window = Seconds{1.0};
  config.collect_hourly = false;
  std::vector<SessionRecord> sessions;
  Rng rng(11);
  for (std::uint32_t u = 0; u < 60; ++u) {
    const double offset = rng.bernoulli(0.25) ? 500.0 + rng.uniform(0.0, 2.0)
                                              : rng.uniform(0.0, 1500.0);
    const double duration = rng.uniform(0.5, 600.0);
    const auto exp = static_cast<std::uint32_t>(rng.uniform_index(4));
    const BitrateClass bitrate =
        rng.bernoulli(0.5) ? BitrateClass::kSd : BitrateClass::kMobile;
    sessions.push_back(session(u, 0, base + offset, duration, 0, exp, bitrate));
  }
  std::sort(sessions.begin(), sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.start < b.start;
            });
  const Trace trace{std::move(sessions), Seconds{base + 3600.0}, {}, {}};
  EXPECT_GT(check_against_oracle(trace, config, "past 2^40"), 0.0);
}

}  // namespace
}  // namespace cl
