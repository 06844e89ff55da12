// sim_equal.h — exact SimResult comparison shared by the bit-identity
// tests (thread counts, mmap vs owned columns, shared vs standalone
// experiment cells).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "sim/metrics.h"

namespace cl::test {

/// A finished run's per-user column: strictly ascending user ids, so no
/// user is listed twice.
inline void expect_users_settled(const SimResult& r) {
  for (std::size_t i = 1; i < r.users.size(); ++i) {
    ASSERT_LT(r.users[i - 1].user, r.users[i].user) << "entry " << i;
  }
}

/// Every lane of two SimResults compared with EXPECT_EQ: span, total,
/// spill, hourly grids and spill, per-user bytes and per-swarm entries.
/// Both per-user columns must be settled.
inline void expect_sim_identical(const SimResult& a, const SimResult& b) {
  const auto expect_traffic = [](const TrafficBreakdown& x,
                                 const TrafficBreakdown& y) {
    EXPECT_EQ(x.server.value(), y.server.value());
    EXPECT_EQ(x.cross_isp.value(), y.cross_isp.value());
    for (std::size_t l = 0; l < kLocalityLevels; ++l) {
      EXPECT_EQ(x.peer[l].value(), y.peer[l].value());
    }
  };
  EXPECT_EQ(a.span.value(), b.span.value());
  expect_traffic(a.total, b.total);
  EXPECT_EQ(a.overload_spill.value(), b.overload_spill.value());
  ASSERT_EQ(a.hourly_spill.size(), b.hourly_spill.size());
  for (std::size_t h = 0; h < a.hourly_spill.size(); ++h) {
    EXPECT_EQ(a.hourly_spill[h].value(), b.hourly_spill[h].value());
  }
  ASSERT_EQ(a.hourly.size(), b.hourly.size());
  for (std::size_t h = 0; h < a.hourly.size(); ++h) {
    ASSERT_EQ(a.hourly[h].size(), b.hourly[h].size());
    for (std::size_t i = 0; i < a.hourly[h].size(); ++i) {
      expect_traffic(a.hourly[h][i], b.hourly[h][i]);
    }
  }
  expect_users_settled(a);
  expect_users_settled(b);
  ASSERT_EQ(a.users.size(), b.users.size());
  for (std::size_t i = 0; i < a.users.size(); ++i) {
    const UserTraffic& x = a.users[i];
    const UserTraffic& y = b.users[i];
    ASSERT_EQ(x.user, y.user) << "entry " << i;
    EXPECT_EQ(x.downloaded.value(), y.downloaded.value()) << "user " << x.user;
    EXPECT_EQ(x.uploaded.value(), y.uploaded.value()) << "user " << x.user;
  }
  ASSERT_EQ(a.swarms.size(), b.swarms.size());
  for (std::size_t s = 0; s < a.swarms.size(); ++s) {
    EXPECT_EQ(a.swarms[s].key.packed(), b.swarms[s].key.packed());
    EXPECT_EQ(a.swarms[s].sessions, b.swarms[s].sessions);
    EXPECT_EQ(a.swarms[s].capacity, b.swarms[s].capacity);
    expect_traffic(a.swarms[s].traffic, b.swarms[s].traffic);
  }
}

}  // namespace cl::test
