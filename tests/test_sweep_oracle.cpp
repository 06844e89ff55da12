// Tests for the swarm sweep (sim/swarm_sweep.h) against an independent
// per-window oracle.
//
// The oracle shares nothing with the sweep but ExistenceMatcher: it
// walks every Δτ window of every swarm, collects that window's active
// set by scanning all sessions, picks the seed (earliest join, lowest
// index), allocates, applies the overload cap with warm = joined before
// this window, and sums totals, per-swarm lanes, hourly rows, spill and
// per-user bytes. No stretch batching, no event streams, no bucket
// counts, no lazy settlement. run(view) — the count route on every
// single-ISP swarm — and run_rows — the per-peer route — must agree with
// it to a relative 1e-12 on totals, swarms, hourly rows and spill (the
// sweep multiplies one allocation by a stretch length where the oracle
// adds it once per window), and to a relative 1e-9 or 1 bit on per-user
// bytes (the count route settles uploads as differences of running
// per-bucket integrals, which cancel).
//
// Inputs cover every branch of the event-stream sort:
//  * random start-sorted traces (joins already in order, packed leaves
//    under the comparison sort);
//  * a hand-built trace whose sessions are listed out of start order
//    (joins need the stable sort);
//  * sessions past 2^40 windows (leaves too large for the packed keys);
// and the count route's settlement: a bucket held for 10^5 windows by
// one peer while short visitors pass through it (a 601-session swarm, so
// its packed leaves take the radix sort).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
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
  std::map<std::pair<std::size_t, std::uint32_t>, Lanes> hourly;  ///< (h, isp)
  std::map<std::size_t, double> hourly_spill;
  std::map<std::uint32_t, std::array<double, 2>> users;  ///< down, up
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
      const auto hour =
          static_cast<std::size_t>(static_cast<double>(w) * dt / 3600.0);
      // Listed by ascending index, so a strict < keeps the lowest index
      // among the earliest joiners.
      std::size_t seed = 0;
      for (std::size_t i = 1; i < active.size(); ++i) {
        if (active[i].join_window < active[seed].join_window) seed = i;
      }
      matcher.allocate(active, seed, config, alloc);
      if (config.overload) {
        // Demand and capacity compared as exact β sums (every β is an
        // integer bit rate), so a tie — one fresh joiner as fast as the
        // seed at q/β ≤ 1 — never overloads on a rounding of the sums.
        double demand_beta = 0;
        double warm_beta = 0;
        for (std::size_t i = 0; i < active.size(); ++i) {
          if (i != seed) demand_beta += active[i].beta;
          if (active[i].join_window < w) warm_beta += active[i].beta;
        }
        const double ratio = std::min(config.q_over_beta, 1.0);
        const double demand = ratio * dt * demand_beta;
        const double capacity = config.q_over_beta * dt * warm_beta;
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
            a.upload_bits *= scale;
            r.spill += moved;
            r.hourly_spill[hour] += moved;
          }
        }
      }
      for (std::size_t i = 0; i < active.size(); ++i) {
        const PeerAllocation& a = alloc[i];
        const Lanes l = {a.server_bits, a.peer_bits[0], a.peer_bits[1],
                         a.peer_bits[2], a.cross_isp_bits};
        Lanes& row = r.hourly[{hour, active[i].isp}];
        for (std::size_t j = 0; j < l.size(); ++j) {
          r.total[j] += l[j];
          swarm[j] += l[j];
          row[j] += l[j];
        }
        auto& user = r.users[active[i].user];
        user[0] += a.downloaded_bits();
        user[1] += a.upload_bits;
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

/// Per-user bytes: relative 1e-9, or 1 bit absolute.
void expect_bytes_close(double got, double want, const std::string& what) {
  EXPECT_LE(std::abs(got - want),
            std::max(1.0, 1e-9 * std::max(std::abs(got), std::abs(want))))
      << what << ": got " << got << ", oracle " << want;
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
  if (got.config.collect_hourly) {
    for (const auto& [cell, lanes] : want.hourly) {
      ASSERT_LT(cell.first, got.hourly.size()) << what;
      ASSERT_LT(cell.second, got.hourly[cell.first].size()) << what;
    }
    for (std::size_t h = 0; h < got.hourly.size(); ++h) {
      for (std::uint32_t isp = 0; isp < got.hourly[h].size(); ++isp) {
        const auto it = want.hourly.find({h, isp});
        expect_lanes_close(lanes_of(got.hourly[h][isp]),
                           it == want.hourly.end() ? Lanes{} : it->second,
                           what + " hour " + std::to_string(h) + " isp " +
                               std::to_string(isp));
      }
    }
    if (got.config.overload) {
      for (const auto& [hour, spill] : want.hourly_spill) {
        ASSERT_LT(hour, got.hourly_spill.size()) << what;
      }
      for (std::size_t h = 0; h < got.hourly_spill.size(); ++h) {
        const auto it = want.hourly_spill.find(h);
        expect_close(got.hourly_spill[h].value(),
                     it == want.hourly_spill.end() ? 0.0 : it->second,
                     what + " spill hour " + std::to_string(h));
      }
    }
  }
  if (got.config.collect_per_user) {
    ASSERT_EQ(got.users.size(), want.users.size()) << what;
    for (const auto& [user, traffic] : got.users) {
      const auto it = want.users.find(user);
      ASSERT_NE(it, want.users.end()) << what << " user " << user;
      expect_bytes_close(traffic.downloaded.value(), it->second[0],
                         what + " user " + std::to_string(user) + " down");
      expect_bytes_close(traffic.uploaded.value(), it->second[1],
                         what + " user " + std::to_string(user) + " up");
    }
  }
}

/// Runs the columnar sweep (on an owned SoA view) and the row path
/// (run_rows) under `config` at q/β = 1 and 0.3 (non-integer lanes),
/// each with overload off and on, and checks both against the
/// per-window oracle. Returns the oracle spill at q/β = 1 with overload.
double check_against_oracle(const Trace& trace, SimConfig config,
                            const std::string& what) {
  double spill = 0;
  for (const double q_over_beta : {1.0, 0.3}) {
    for (const bool overload : {false, true}) {
      config.q_over_beta = q_over_beta;
      config.overload = overload;
      const std::string label = what + " q/b " + std::to_string(q_over_beta) +
                                (overload ? " overload" : " steady");
      const OracleResult want = oracle(trace, config);
      EXPECT_GT(want.total[1] + want.total[2] + want.total[3] + want.total[4],
                0.0)
          << label << ": peers should share";
      const HybridSimulator sim(metro(), config);
      expect_matches_oracle(sim.run(TraceView::from_trace(trace)), want,
                            label + " run(view)");
      expect_matches_oracle(sim.run_rows(trace), want, label + " run_rows");
      if (overload && q_over_beta == 1.0) spill = want.spill;
    }
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
    config.isp_friendly = true;
    config.split_by_bitrate = false;  // count route with mixed β
    check_against_oracle(trace, config, what + " mixed bitrate");
    trace.swarm_index = build_swarm_index(trace);
    config.split_by_bitrate = true;  // swarms listed from the index
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

TEST(SweepOracle, LongLivedBucketSettlesVisitorsWithinTolerance) {
  // One peer holds exchange point 0 (with its PoP and the ISP core) for
  // over 10^5 windows while short visitors pass, most of them through the
  // same ExP. Those buckets never empty, so the count route's upload
  // integrals never rebase and every visitor's upload settles as a small
  // difference of two large running sums. Δτ = 1 s keeps the oracle's
  // per-window walk short.
  SimConfig config;
  config.window = Seconds{1.0};
  const double span = 120000.0;
  std::vector<SessionRecord> sessions;
  sessions.push_back(session(0, 0, 0.5, span - 1.0, 0, 0));
  Rng rng(17);
  for (std::uint32_t u = 1; u <= 600; ++u) {
    const double start = rng.uniform(1.0, span - 200.0);
    const double duration = rng.uniform(0.5, 120.0);
    const auto exp = static_cast<std::uint32_t>(
        rng.bernoulli(0.6) ? 0 : rng.uniform_index(8));
    sessions.push_back(session(u, 0, start, duration, 0, exp));
  }
  std::sort(sessions.begin(), sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.start < b.start;
            });
  Trace trace{std::move(sessions), Seconds{span}, {}, {}};
  trace.swarm_index = build_swarm_index(trace);
  ASSERT_GE(span - 1.0, 1e5 * config.window.value());
  check_against_oracle(trace, config, "long-lived");
}

}  // namespace
}  // namespace cl
