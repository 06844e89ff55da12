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
//    `.cltrace` (no metro-name block), a flash crowd whose swarms hold
//    tied starts (both readers load it and sweep it alike);
//  * corrupt-input rejection — an out-of-range bitrate byte in the
//    mapped file fails column validation, the one payload check both
//    readers share.
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

#include "core/analyzer.h"
#include "ext/live.h"
#include "sim/hybrid_sim.h"
#include "topology/metro_registry.h"
#include "trace/swarm_index.h"
#include "trace/trace_binary.h"
#include "trace/trace_mmap.h"
#include "trace/synthetic.h"
#include "util/error.h"
#include "util/serialize.h"

#include "sim_equal.h"
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

/// Row t of `trace` is the session the view stores at position_of(t).
void expect_columns_match_rows(const TraceView& view, const Trace& trace) {
  ASSERT_EQ(view.size(), trace.size());
  EXPECT_EQ(view.span().value(), trace.span.value());
  EXPECT_EQ(view.metro_name(), trace.metro_name);
  for (std::size_t t = 0; t < trace.size(); ++t) {
    const SessionRecord& s = trace.sessions[t];
    const std::size_t i = view.position_of(t);
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
  for (std::size_t u = 0; u < a.users.size(); ++u) {
    const UserTraffic& ta = a.users[u];
    const UserTraffic& tb = b.users[u];
    ASSERT_EQ(ta.user, tb.user) << "entry " << u;
    for (const auto& [x, y] :
         {std::pair{ta.downloaded.value(), tb.downloaded.value()},
          std::pair{ta.uploaded.value(), tb.uploaded.value()}}) {
      EXPECT_LE(std::abs(x - y),
                std::max(1.0, 1e-9 * std::max(std::abs(x), std::abs(y))))
          << "user " << ta.user;
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
  // Swarm-major storage: no index order, and the time order is the
  // inverse of the index order the writer persisted.
  EXPECT_TRUE(view.swarm_major());
  EXPECT_TRUE(view.order().empty());
  ASSERT_EQ(view.time_order().size(), trace.size());
  for (std::size_t t = 0; t < trace.size(); ++t) {
    ASSERT_EQ(trace.swarm_index.order[view.time_order()[t]], t);
  }
  // Group table ascends by the full swarm key and covers every session;
  // each group is one contiguous run of positions holding its key.
  std::uint64_t covered = 0;
  const auto groups = view.groups();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(groups[g].begin, covered);
    covered += groups[g].count;
    if (g > 0) {
      EXPECT_TRUE(SwarmIndex::key_less(groups[g - 1], groups[g]));
    }
    for (std::uint64_t p = groups[g].begin; p < covered; ++p) {
      ASSERT_EQ(view.content()[p], groups[g].content);
      ASSERT_EQ(view.isp()[p], groups[g].isp);
      ASSERT_EQ(view.bitrate()[p], groups[g].bitrate);
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
        test::expect_sim_identical(rows_reference, reference);
      } else {
        expect_results_close(rows_reference, reference);
      }

      for (unsigned threads : {1u, 2u, 7u, 0u}) {
        config.threads = threads;
        const HybridSimulator sim(metro, config);
        const TraceView transposed = TraceView::from_trace(trace, threads);
        const TraceView mapped = TraceView::open_binary(path, threads);
        test::expect_sim_identical(sim.run(transposed), reference);
        test::expect_sim_identical(sim.run(mapped), reference);
        test::expect_sim_identical(sim.run_rows(trace), rows_reference);
      }
    }
    std::filesystem::remove(path);
  }
}

TEST(TraceView, SwarmMajorViewMatchesStartOrderView) {
  // The same Trace through its v3 file's swarm-major view and through the
  // owned start-order view: bit-identical results with per-user, hourly
  // and overload collection on, under the full partition, cross-ISP,
  // mixed bitrate and the capacity matcher, at every thread count; the
  // same daily report and swarm experiment; and the rows loader returns
  // the source rows and index exactly.
  const Metro& metro = MetroRegistry::instance().get("london_top5");
  const Trace trace = small_trace("london_top5", 11);
  const std::string path = temp_path("cl_trace_view_swarm_major.cltrace");
  write_trace_binary_file(path, trace);

  const Trace loaded = read_trace_binary_file(path, 3);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t t = 0; t < trace.size(); ++t) {
    const SessionRecord& a = loaded.sessions[t];
    const SessionRecord& b = trace.sessions[t];
    ASSERT_TRUE(a.user == b.user && a.household == b.household &&
                a.content == b.content && a.isp == b.isp && a.exp == b.exp &&
                a.bitrate == b.bitrate && a.start == b.start &&
                a.duration == b.duration)
        << "row " << t;
  }
  EXPECT_EQ(loaded.swarm_index.order, trace.swarm_index.order);
  ASSERT_EQ(loaded.swarm_index.groups.size(), trace.swarm_index.groups.size());
  for (std::size_t g = 0; g < trace.swarm_index.groups.size(); ++g) {
    const SwarmIndexGroup& a = loaded.swarm_index.groups[g];
    const SwarmIndexGroup& b = trace.swarm_index.groups[g];
    ASSERT_TRUE(a.content == b.content && a.isp == b.isp &&
                a.bitrate == b.bitrate && a.begin == b.begin &&
                a.count == b.count)
        << "group " << g;
  }

  std::vector<std::pair<std::string, SimConfig>> configs(4);
  configs[0].first = "default";
  configs[1].first = "cross-ISP";
  configs[1].second.isp_friendly = false;
  configs[2].first = "mixed bitrate";
  configs[2].second.split_by_bitrate = false;
  configs[3].first = "capacity matcher";
  configs[3].second.matcher = MatcherKind::kCapacity;
  for (auto [label, config] : configs) {
    SCOPED_TRACE(label);
    config.collect_hourly = true;
    config.collect_per_user = true;
    config.collect_swarms = true;
    config.overload = true;
    for (const unsigned threads : {1u, 2u, 7u, 0u}) {
      SCOPED_TRACE(threads);
      config.threads = threads;
      const TraceView owned = TraceView::from_trace(trace, threads);
      const TraceView mapped = TraceView::open_binary(path, threads);
      ASSERT_TRUE(mapped.swarm_major());
      const HybridSimulator sim(metro, config);
      test::expect_sim_identical(sim.run(mapped), sim.run(owned));

      const Analyzer analyzer(metro, config);
      const DailyReport want = analyzer.daily_report(owned);
      const DailyReport got = analyzer.daily_report(mapped);
      EXPECT_EQ(got.sim, want.sim);
      EXPECT_EQ(got.theory, want.theory);
      const SwarmExperiment want_swarm = analyzer.analyze_swarm(owned, 0);
      const SwarmExperiment got_swarm = analyzer.analyze_swarm(mapped, 0);
      EXPECT_EQ(got_swarm.capacity, want_swarm.capacity);
      ASSERT_EQ(got_swarm.models.size(), want_swarm.models.size());
      for (std::size_t m = 0; m < want_swarm.models.size(); ++m) {
        EXPECT_EQ(got_swarm.models[m].sim_savings,
                  want_swarm.models[m].sim_savings);
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(TraceView, FlashCrowdTiesLoadThroughBothReaders) {
  // A flash crowd's arrivals and churn resumes tie on their start inside
  // a swarm, so its v3 file takes check_swarm_major's rank check. Both
  // readers load it: the rows are the source rows, the view speaks them
  // in start order, and the sweep over the mapped swarm-major view
  // equals the sweep over the rows reader's owned start-order copy.
  const Metro& metro = MetroRegistry::instance().get("london_top5");
  const Trace trace =
      generate_flash_crowd(metro, flash_crowd_preset("spike", 3000, 7200, 1),
                           5);
  std::size_t ties = 0;
  for (std::size_t t = 1; t < trace.size(); ++t) {
    const SessionRecord& a = trace.sessions[t - 1];
    const SessionRecord& b = trace.sessions[t];
    ties += a.start == b.start && a.content == b.content && a.isp == b.isp &&
            a.bitrate == b.bitrate;
  }
  ASSERT_GT(ties, 0u) << "no in-swarm ties: the rank check goes untested";
  const std::string path = temp_path("cl_trace_view_flash_ties.cltrace");
  write_trace_binary_file(path, trace);

  SimConfig config;
  config.collect_hourly = true;
  config.collect_per_user = true;
  config.collect_swarms = true;
  config.overload = true;
  for (const unsigned threads : {1u, 7u}) {
    SCOPED_TRACE(threads);
    const Trace rows = read_trace_binary_file(path, threads);
    const TraceView view = TraceView::open_binary(path, threads);
    ASSERT_TRUE(view.swarm_major());
    ASSERT_EQ(rows.size(), trace.size());
    ASSERT_EQ(view.size(), trace.size());
    for (std::size_t t = 0; t < trace.size(); ++t) {
      const SessionRecord& want = trace.sessions[t];
      for (const SessionRecord& got : {rows.sessions[t], view.session(t)}) {
        ASSERT_TRUE(got.user == want.user && got.household == want.household &&
                    got.content == want.content && got.isp == want.isp &&
                    got.exp == want.exp && got.bitrate == want.bitrate &&
                    got.start == want.start && got.duration == want.duration)
            << "row " << t;
      }
    }
    config.threads = threads;
    const HybridSimulator sim(metro, config);
    test::expect_sim_identical(sim.run(view),
                               sim.run(TraceView::from_trace(rows, threads)));
  }
  std::filesystem::remove(path);
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
  test::expect_sim_identical(soa, rows);
  // A lone peer has nobody to share with: everything comes from the CDN.
  EXPECT_EQ(soa.total.peer_total().value(), 0.0);
  EXPECT_GT(soa.total.server.value(), 0.0);
  std::filesystem::remove(path);
}

TEST(TraceView, RandomAccessSessionDecoding) {
  // session(t) is the t-th session in start order, on both backings of a
  // swarm-major file and of the owned transpose.
  const Trace trace = small_trace("london_top5");
  const std::string path = temp_path("cl_trace_view_session.cltrace");
  write_trace_binary_file(path, trace);
  const TraceView mapped = TraceView::open_binary(path);
  const TraceView owned = TraceView::from_trace(trace);
  ASSERT_TRUE(mapped.swarm_major());
  for (std::size_t t = 0; t < trace.size(); t += 7) {
    const SessionRecord& want = trace.sessions[t];
    for (const SessionRecord& got : {mapped.session(t), owned.session(t)}) {
      ASSERT_EQ(got.user, want.user) << "t=" << t;
      ASSERT_EQ(got.start, want.start) << "t=" << t;
      ASSERT_EQ(got.bitrate, want.bitrate) << "t=" << t;
    }
  }
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

/// File offset of payload block `id`, read from the block directory.
std::uint64_t block_offset(const std::string& path, std::uint32_t id) {
  std::ifstream file(path, std::ios::binary);
  for (std::uint32_t entry = 0; entry < kTraceBinaryBlockCount; ++entry) {
    char dir[kTraceBinaryDirEntryBytes];
    file.seekg(static_cast<std::streamoff>(kTraceBinaryHeaderBytes +
                                           entry * kTraceBinaryDirEntryBytes));
    file.read(dir, sizeof(dir));
    const auto* bytes = reinterpret_cast<const unsigned char*>(dir);
    if (file.good() && load_u32_le(bytes) == id) return load_u64_le(bytes + 8);
  }
  return 0;
}

/// Overwrites the little-endian u32 at element `index` of block `id`.
void patch_u32(const std::string& path, std::uint32_t id, std::size_t index,
               std::uint32_t value) {
  const std::uint64_t offset = block_offset(path, id);
  ASSERT_GT(offset, 0u);
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  unsigned char bytes[4];
  store_u32_le(bytes, value);
  file.seekp(static_cast<std::streamoff>(offset + 4 * index));
  file.write(reinterpret_cast<const char*>(bytes), sizeof(bytes));
  ASSERT_TRUE(file.good());
}

/// Overwrites the little-endian f64 at element `index` of block `id`.
void patch_f64(const std::string& path, std::uint32_t id, std::size_t index,
               double value) {
  const std::uint64_t offset = block_offset(path, id);
  ASSERT_GT(offset, 0u);
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  unsigned char bytes[8];
  store_f64_le(bytes, value);
  file.seekp(static_cast<std::streamoff>(offset + 8 * index));
  file.write(reinterpret_cast<const char*>(bytes), sizeof(bytes));
  ASSERT_TRUE(file.good());
}

TEST(TraceView, IndexCheckCatchesFaultsRightAfterAShardBoundary) {
  // The swarm-major check shards over storage positions and over time
  // ranks, so one large group spans several shards. Content 0 holds
  // sessions 300..2099 (start = session index): its group fills storage
  // positions [0, 1800), which hold every shard boundary n·1/T for
  // T = 2, 4, 7. A fault at the boundary's first position (or rank) is
  // only caught by comparing with the one before it, in the previous
  // shard: a start below its predecessor's in the group, a session whose
  // key does not match its group, and two time ranks out of start order.
  constexpr std::size_t kSessions = 2100;
  std::vector<SessionRecord> sessions(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    SessionRecord& s = sessions[i];
    s.user = static_cast<std::uint32_t>(i);
    s.household = s.user;
    s.content = i < 300 ? 1 + static_cast<std::uint32_t>(i % 3) : 0;
    s.start = static_cast<double>(i);
    s.duration = 60.0;
  }
  Trace trace{sessions, Seconds{86400.0}, {}, {}};
  trace.swarm_index = build_swarm_index(trace);
  ASSERT_EQ(trace.swarm_index.groups[0].count, 1800u);

  const auto expect_rejected = [](const std::string& path, unsigned threads,
                                  const std::string& what) {
    try {
      [[maybe_unused]] auto v = TraceView::open_binary(path, threads);
      ADD_FAILURE() << "accepted a corrupt layout; expected: " << what;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE(threads);
    const std::size_t p = kSessions / std::max(2u, threads);
    const std::string path =
        temp_path("cl_trace_view_index_fault_" + std::to_string(threads) +
                  ".cltrace");

    // Position p (session 300 + p) now starts before position p − 1.
    write_trace_binary_file(path, trace);
    patch_f64(path, 6, p, static_cast<double>(300 + p) - 1.5);
    expect_rejected(path, threads,
                    "a swarm group's sessions are not in start order");

    // Move the session at position p to another content.
    write_trace_binary_file(path, trace);
    patch_u32(path, 2, p, 2);
    expect_rejected(path, threads, "group key does not match");

    // Swap time ranks p − 1 and p: rank p now starts before rank p − 1.
    write_trace_binary_file(path, trace);
    std::uint32_t rank[2];
    {
      const TraceView clean = TraceView::open_binary(path, threads);
      rank[0] = clean.time_order()[p - 1];
      rank[1] = clean.time_order()[p];
    }
    patch_u32(path, 12, p - 1, rank[1]);
    patch_u32(path, 12, p, rank[0]);
    expect_rejected(path, threads, "time order is not in start order");

    // The untouched file still opens.
    write_trace_binary_file(path, trace);
    EXPECT_EQ(TraceView::open_binary(path, threads).size(), kSessions);
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace cl
