// sim_equal.h — exact SimResult comparison shared by the bit-identity
// tests (thread counts, mmap vs owned columns, shared vs standalone
// experiment cells).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "sim/metrics.h"

namespace cl::test {

/// Every lane of two SimResults compared with EXPECT_EQ: span, total,
/// spill, hourly grids and spill, per-user bytes and per-swarm entries.
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
  ASSERT_EQ(a.users.size(), b.users.size());
  for (const auto& [user, traffic] : a.users) {
    const auto it = b.users.find(user);
    ASSERT_NE(it, b.users.end()) << "user " << user;
    EXPECT_EQ(traffic.downloaded.value(), it->second.downloaded.value());
    EXPECT_EQ(traffic.uploaded.value(), it->second.uploaded.value());
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
