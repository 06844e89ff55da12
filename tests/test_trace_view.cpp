// Tests for the columnar trace view (trace/trace_view.h) — the
// zero-materialization data path the simulator sweeps:
//
//  * column correctness — from_trace and open_binary hand out spans that
//    match the source rows field-for-field (bit-exact doubles), and the
//    view is self-contained after the source Trace dies;
//  * the data-path contract — run(TraceView) over both backings (owned
//    transpose, mmap'd zero-copy) produces bit-identical SimResults at
//    --threads 1/2/7/hw across all three metro presets and five configs
//    (default, cross-ISP, mixed bitrate, capacity matcher, overload),
//    pinned with exact (==) comparisons; the per-peer reference run_rows
//    agrees exactly where run() also sweeps per-peer (capacity matcher,
//    cross-ISP) and to the sweep oracle's tolerances where run() takes
//    the count route (tests/test_sweep_oracle.cpp);
//  * edge cases — empty trace, single-session swarm, legacy v1
//    `.cltrace` (no metro-name block);
//  * corrupt-input rejection — an out-of-range bitrate byte in the
//    mapped file fails column validation with the same error the
//    materializing loader raises.
#include "trace/trace_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/hybrid_sim.h"
#include "topology/metro_registry.h"
#include "trace/swarm_index.h"
#include "trace/trace_binary.h"
#include "trace/trace_mmap.h"
#include "trace/synthetic.h"
#include "util/error.h"
#include "util/serialize.h"

#include "temp_path.h"

#ifndef CL_TEST_DATA_DIR
#error "CMake must define CL_TEST_DATA_DIR (path of tests/data)"
#endif

namespace cl {
namespace {

std::string temp_path(const std::string& name) {
  return test::unique_temp_path(name);
}

Trace small_trace(const std::string& metro_name, unsigned seed = 7) {
  TraceConfig config;
  config.days = 2;
  config.users = 1500;
  config.exemplar_views = {8000, 900};
  config.catalogue_tail = 150;
  config.tail_views = 12000;
  config.seed = seed;
  config.metro = metro_name;
  Trace trace =
      TraceGenerator(config, MetroRegistry::instance().get(metro_name))
          .generate();
  trace.swarm_index = build_swarm_index(trace);
  return trace;
}

void expect_columns_match_rows(const TraceView& view, const Trace& trace) {
  ASSERT_EQ(view.size(), trace.size());
  EXPECT_EQ(view.span().value(), trace.span.value());
  EXPECT_EQ(view.metro_name(), trace.metro_name);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const SessionRecord& s = trace.sessions[i];
    ASSERT_EQ(view.user()[i], s.user) << "i=" << i;
    ASSERT_EQ(view.household()[i], s.household) << "i=" << i;
    ASSERT_EQ(view.content()[i], s.content) << "i=" << i;
    ASSERT_EQ(view.isp()[i], s.isp) << "i=" << i;
    ASSERT_EQ(view.exp()[i], s.exp) << "i=" << i;
    ASSERT_EQ(view.bitrate()[i], static_cast<std::uint8_t>(s.bitrate))
        << "i=" << i;
    // Exact equality on purpose: the columns carry the same IEEE-754 bit
    // patterns as the rows.
    ASSERT_EQ(view.start()[i], s.start) << "i=" << i;
    ASSERT_EQ(view.duration()[i], s.duration) << "i=" << i;
  }
}

/// Exact-equality comparison of the SimResult fields the sweep produces.
void expect_results_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.span.value(), b.span.value());
  EXPECT_EQ(a.total.server.value(), b.total.server.value());
  EXPECT_EQ(a.total.cross_isp.value(), b.total.cross_isp.value());
  for (std::size_t l = 0; l < kLocalityLevels; ++l) {
    EXPECT_EQ(a.total.peer[l].value(), b.total.peer[l].value());
  }
  EXPECT_EQ(a.overload_spill.value(), b.overload_spill.value());
  ASSERT_EQ(a.hourly_spill.size(), b.hourly_spill.size());
  for (std::size_t h = 0; h < a.hourly_spill.size(); ++h) {
    EXPECT_EQ(a.hourly_spill[h].value(), b.hourly_spill[h].value());
  }
  ASSERT_EQ(a.hourly.size(), b.hourly.size());
  for (std::size_t h = 0; h < a.hourly.size(); ++h) {
    ASSERT_EQ(a.hourly[h].size(), b.hourly[h].size());
    for (std::size_t i = 0; i < a.hourly[h].size(); ++i) {
      EXPECT_EQ(a.hourly[h][i].server.value(), b.hourly[h][i].server.value());
      for (std::size_t l = 0; l < kLocalityLevels; ++l) {
        EXPECT_EQ(a.hourly[h][i].peer[l].value(),
                  b.hourly[h][i].peer[l].value());
      }
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
    EXPECT_EQ(a.swarms[s].traffic.server.value(),
              b.swarms[s].traffic.server.value());
    for (std::size_t l = 0; l < kLocalityLevels; ++l) {
      EXPECT_EQ(a.swarms[s].traffic.peer[l].value(),
                b.swarms[s].traffic.peer[l].value());
    }
  }
}

/// The sweep oracle's tolerances (tests/test_sweep_oracle.cpp): relative
/// 1e-12 on traffic lanes and spill, relative 1e-9 or 1 bit on per-user
/// bytes — for comparing the count route with the per-peer one.
void expect_results_close(const SimResult& a, const SimResult& b) {
  const auto close = [](double x, double y) {
    return std::abs(x - y) <= 1e-12 * std::max(std::abs(x), std::abs(y));
  };
  const auto lanes_close = [&](const TrafficBreakdown& x,
                               const TrafficBreakdown& y) {
    bool ok = close(x.server.value(), y.server.value()) &&
              close(x.cross_isp.value(), y.cross_isp.value());
    for (std::size_t l = 0; l < kLocalityLevels; ++l) {
      ok = ok && close(x.peer[l].value(), y.peer[l].value());
    }
    return ok;
  };
  EXPECT_EQ(a.span.value(), b.span.value());
  EXPECT_TRUE(lanes_close(a.total, b.total));
  EXPECT_TRUE(close(a.overload_spill.value(), b.overload_spill.value()));
  ASSERT_EQ(a.hourly_spill.size(), b.hourly_spill.size());
  for (std::size_t h = 0; h < a.hourly_spill.size(); ++h) {
    EXPECT_TRUE(close(a.hourly_spill[h].value(), b.hourly_spill[h].value()))
        << "hour " << h;
  }
  ASSERT_EQ(a.hourly.size(), b.hourly.size());
  for (std::size_t h = 0; h < a.hourly.size(); ++h) {
    ASSERT_EQ(a.hourly[h].size(), b.hourly[h].size());
    for (std::size_t i = 0; i < a.hourly[h].size(); ++i) {
      EXPECT_TRUE(lanes_close(a.hourly[h][i], b.hourly[h][i]))
          << "hour " << h << " isp " << i;
    }
  }
  ASSERT_EQ(a.users.size(), b.users.size());
  for (const auto& [user, traffic] : a.users) {
    const auto it = b.users.find(user);
    ASSERT_NE(it, b.users.end()) << "user " << user;
    for (const auto& [x, y] :
         {std::pair{traffic.downloaded.value(), it->second.downloaded.value()},
          std::pair{traffic.uploaded.value(), it->second.uploaded.value()}}) {
      EXPECT_LE(std::abs(x - y),
                std::max(1.0, 1e-9 * std::max(std::abs(x), std::abs(y))))
          << "user " << user;
    }
  }
  ASSERT_EQ(a.swarms.size(), b.swarms.size());
  for (std::size_t s = 0; s < a.swarms.size(); ++s) {
    EXPECT_EQ(a.swarms[s].key.packed(), b.swarms[s].key.packed());
    EXPECT_EQ(a.swarms[s].sessions, b.swarms[s].sessions);
    EXPECT_EQ(a.swarms[s].capacity, b.swarms[s].capacity);
    EXPECT_TRUE(lanes_close(a.swarms[s].traffic, b.swarms[s].traffic))
        << "swarm " << s;
  }
}

// ------------------------------------------------------- column fidelity

TEST(TraceView, FromTraceColumnsMatchRows) {
  const Trace trace = small_trace("london_top5");
  const TraceView view = TraceView::from_trace(trace, 3);
  EXPECT_FALSE(view.zero_copy());
  EXPECT_TRUE(view.has_index());
  expect_columns_match_rows(view, trace);
  // Spot-check the row materializer too.
  const SessionRecord s = view.session(view.size() / 2);
  const SessionRecord& expected = trace.sessions[trace.size() / 2];
  EXPECT_EQ(s.user, expected.user);
  EXPECT_EQ(s.bitrate, expected.bitrate);
  EXPECT_EQ(s.start, expected.start);
}

TEST(TraceView, FromTraceIsSelfContainedAfterSourceDies) {
  auto trace = std::make_unique<Trace>(small_trace("london_top5"));
  const std::size_t n = trace->size();
  const double first_start = trace->sessions.front().start;
  const TraceView view = TraceView::from_trace(*trace, 2);
  trace.reset();  // the view must not dangle
  ASSERT_EQ(view.size(), n);
  EXPECT_EQ(view.start().front(), first_start);
  EXPECT_TRUE(view.has_index());
}

TEST(TraceView, OpenBinaryIsZeroCopyAndMatchesMaterializedLoad) {
  const Trace trace = small_trace("london_top5");
  const std::string path = temp_path("cl_trace_view_zero_copy.cltrace");
  write_trace_binary_file(path, trace);
  const TraceView view = TraceView::open_binary(path, 2);
  // Little-endian hosts alias the mapped blocks directly; the transpose
  // fallback would still have to produce identical columns.
  if constexpr (std::endian::native == std::endian::little) {
    EXPECT_TRUE(view.zero_copy());
  }
  EXPECT_TRUE(view.has_index());
  expect_columns_match_rows(view, trace);
  // Group table ascends by the full swarm key and covers every session.
  std::uint64_t covered = 0;
  const auto groups = view.groups();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    covered += groups[g].count;
    if (g > 0) {
      EXPECT_TRUE(SwarmIndex::key_less(groups[g - 1], groups[g]));
    }
  }
  EXPECT_EQ(covered, view.size());
  std::filesystem::remove(path);
}

// ------------------------------------------- SoA-vs-row bit-identity

TEST(TraceView, SimResultsIdenticalRowsVsColumnsVsMmapEverywhere) {
  // The default config lists swarms from the persisted index; the two
  // relaxed partitions take the hash grouping (the cross-ISP one also
  // sweeps per-peer through the virtual matcher); the capacity matcher
  // (per-peer too) and the overload cap change what every stretch
  // allocates. The columns are the reference: both backings at every
  // thread count must match them bitwise. run_rows always sweeps
  // per-peer, so it is held bitwise only where run() is per-peer too:
  // the capacity matcher, and cross-ISP keying. There the few swarms
  // confined to one ISP (about 200 of 1800 stretches in these traces)
  // still take the count route, but at q/β = 1 their lanes are integers
  // and their settled bytes round as the per-peer fold's do.
  std::vector<std::pair<std::string, SimConfig>> configs(5);
  configs[0].first = "default";
  configs[1].first = "cross-ISP";
  configs[1].second.isp_friendly = false;
  configs[2].first = "mixed bitrate";
  configs[2].second.split_by_bitrate = false;
  configs[3].first = "capacity matcher";
  configs[3].second.matcher = MatcherKind::kCapacity;
  configs[4].first = "overload";
  configs[4].second.overload = true;
  for (const std::string metro_name :
       {"london_top5", "us_sparse", "fiber_dense"}) {
    const Metro& metro = MetroRegistry::instance().get(metro_name);
    const Trace trace = small_trace(metro_name);
    const std::string path =
        temp_path("cl_trace_view_identity_" + metro_name + ".cltrace");
    write_trace_binary_file(path, trace);

    for (auto [label, config] : configs) {
      SCOPED_TRACE(metro_name + ", " + label);
      config.collect_hourly = true;
      config.collect_per_user = true;
      config.collect_swarms = true;
      config.threads = 1;
      const HybridSimulator reference_sim(metro, config);
      const SimResult reference =
          reference_sim.run(TraceView::from_trace(trace, 1));
      const SimResult rows_reference = reference_sim.run_rows(trace);
      const bool per_peer = config.matcher == MatcherKind::kCapacity ||
                            !config.isp_friendly;
      if (per_peer) {
        expect_results_identical(rows_reference, reference);
      } else {
        expect_results_close(rows_reference, reference);
      }

      for (unsigned threads : {1u, 2u, 7u, 0u}) {
        config.threads = threads;
        const HybridSimulator sim(metro, config);
        const TraceView transposed = TraceView::from_trace(trace, threads);
        const TraceView mapped = TraceView::open_binary(path, threads);
        expect_results_identical(sim.run(transposed), reference);
        expect_results_identical(sim.run(mapped), reference);
        expect_results_identical(sim.run_rows(trace), rows_reference);
      }
    }
    std::filesystem::remove(path);
  }
}

// ------------------------------------------------------------ edge cases

TEST(TraceView, EmptyTrace) {
  const Trace empty{{}, Seconds{86400.0}, {}, {}};
  const TraceView view = TraceView::from_trace(empty);
  EXPECT_TRUE(view.empty());
  EXPECT_FALSE(view.has_index());
  EXPECT_EQ(view.span().value(), 86400.0);

  const std::string path = temp_path("cl_trace_view_empty.cltrace");
  write_trace_binary_file(path, empty);
  const TraceView mapped = TraceView::open_binary(path);
  EXPECT_TRUE(mapped.empty());
  EXPECT_EQ(mapped.span().value(), 86400.0);

  const Metro& metro = MetroRegistry::instance().get("london_top5");
  const SimResult result = HybridSimulator(metro, SimConfig{}).run(mapped);
  EXPECT_EQ(result.total.total().value(), 0.0);
  std::filesystem::remove(path);
}

TEST(TraceView, SingleSessionSwarm) {
  Trace trace;
  trace.span = Seconds{3600.0};
  SessionRecord s;
  s.user = 9;
  s.content = 4;
  s.isp = 1;
  s.exp = 2;
  s.bitrate = BitrateClass::kHd;
  s.start = 100.0;
  s.duration = 600.0;
  trace.sessions.push_back(s);
  trace.swarm_index = build_swarm_index(trace);

  const std::string path = temp_path("cl_trace_view_single.cltrace");
  write_trace_binary_file(path, trace);
  const TraceView view = TraceView::open_binary(path);
  ASSERT_EQ(view.size(), 1u);
  EXPECT_TRUE(view.has_index());

  const Metro& metro = MetroRegistry::instance().get("london_top5");
  SimConfig config;
  config.collect_swarms = true;
  const SimResult soa = HybridSimulator(metro, config).run(view);
  const SimResult rows = HybridSimulator(metro, config).run_rows(trace);
  expect_results_identical(soa, rows);
  // A lone peer has nobody to share with: everything comes from the CDN.
  EXPECT_EQ(soa.total.peer_total().value(), 0.0);
  EXPECT_GT(soa.total.server.value(), 0.0);
  std::filesystem::remove(path);
}

TEST(TraceView, LegacyV1GoldenLoads) {
  const std::string path =
      std::string(CL_TEST_DATA_DIR) + "/golden_v1.cltrace";
  const TraceView view = TraceView::open_binary(path);
  // v1 files predate the metro-name block but do carry the swarm index.
  EXPECT_TRUE(view.metro_name().empty());
  const Trace materialized = read_trace_binary_file(path);
  ASSERT_EQ(view.size(), materialized.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    const SessionRecord& s = materialized.sessions[i];
    ASSERT_EQ(view.user()[i], s.user);
    ASSERT_EQ(view.start()[i], s.start);
    ASSERT_EQ(view.duration()[i], s.duration);
    ASSERT_EQ(view.bitrate()[i], static_cast<std::uint8_t>(s.bitrate));
  }
  EXPECT_EQ(view.has_index(), !materialized.swarm_index.empty());
}

// ------------------------------------------------------ corrupt payloads

TEST(TraceView, RejectsOutOfRangeBitrateColumn) {
  const Trace trace = small_trace("london_top5");
  const std::string path = temp_path("cl_trace_view_bad_bitrate.cltrace");
  write_trace_binary_file(path, trace);

  // Patch the first byte of the bitrate block (id 5) to an invalid class
  // via the block directory.
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  std::uint64_t bitrate_offset = 0;
  for (std::uint32_t entry = 0; entry < kTraceBinaryBlockCount; ++entry) {
    char dir[kTraceBinaryDirEntryBytes];
    file.seekg(static_cast<std::streamoff>(kTraceBinaryHeaderBytes +
                                           entry * kTraceBinaryDirEntryBytes));
    file.read(dir, sizeof(dir));
    ASSERT_TRUE(file.good());
    const auto* bytes = reinterpret_cast<const unsigned char*>(dir);
    if (load_u32_le(bytes) == 5) {
      bitrate_offset = load_u64_le(bytes + 8);
      break;
    }
  }
  ASSERT_GT(bitrate_offset, 0u);
  file.seekp(static_cast<std::streamoff>(bitrate_offset));
  const char bad = '\xff';
  file.write(&bad, 1);
  file.close();

  EXPECT_THROW(
      { [[maybe_unused]] auto v = TraceView::open_binary(path); },
      ParseError);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cl
