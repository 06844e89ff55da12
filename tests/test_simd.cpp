// test_simd.cpp — the VF64 lane wrapper (util/simd.h) and the vector
// sweep kernels' bit-identity with their scalar twins
// (sim/sweep_kernels.h).
//
// The vector kernels are exercised at the boundary lengths where lane
// handling goes wrong — 0, 1, lanes−1, lanes, lanes+1 and a large
// randomized body — and the outputs are compared *bitwise* (EXPECT_EQ on
// doubles, never near), because the whole design rests on the vector
// kernels producing the exact scalar bits.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/sweep_kernels.h"
#include "util/rng.h"
#include "util/simd.h"

namespace cl {
namespace {

using simd::VF64;

// The boundary lengths every kernel is checked at (plus a large body).
std::vector<std::size_t> boundary_lengths() {
  const std::size_t w = VF64::kLanes;
  std::vector<std::size_t> lens = {0, 1};
  if (w > 1) {
    lens.push_back(w - 1);
    lens.push_back(w);
    lens.push_back(w + 1);
  }
  lens.push_back(sweep_kernels::kStripe - 1);
  lens.push_back(sweep_kernels::kStripe);
  lens.push_back(sweep_kernels::kStripe + 1);
  lens.push_back(10000);
  return lens;
}

// ---------------------------------------------------------------- wrappers

TEST(SimdWrappers, F64ArithmeticMatchesScalar) {
  Rng rng(1);
  double a[VF64::kLanes];
  double b[VF64::kLanes];
  for (std::size_t l = 0; l < VF64::kLanes; ++l) {
    a[l] = rng.uniform(-100.0, 100.0);
    b[l] = rng.uniform(0.5, 100.0);
  }
  const VF64 va = VF64::loadu(a);
  const VF64 vb = VF64::loadu(b);
  double sum[VF64::kLanes];
  double product[VF64::kLanes];
  double scaled[VF64::kLanes];
  (va + vb).storeu(sum);
  (va * vb).storeu(product);
  (va * VF64::set1(0.25)).storeu(scaled);
  for (std::size_t l = 0; l < VF64::kLanes; ++l) {
    EXPECT_EQ(sum[l], a[l] + b[l]);
    EXPECT_EQ(product[l], a[l] * b[l]);
    EXPECT_EQ(scaled[l], a[l] * 0.25);
  }
}

// ----------------------------------------------------------------- kernels

/// Gather-kernel input: a scattered "trace" of n sessions reached
/// through a strided index column, as the sweep does.
struct KernelInput {
  std::vector<std::uint32_t> indices;
  std::vector<std::uint32_t> user, isp, exp;
  std::vector<std::uint8_t> bitrate;
};

KernelInput make_input(std::size_t n, Rng& rng) {
  // The backing columns are larger than the swarm and indexed out of
  // order — gathers must not assume contiguity.
  const std::size_t cols = n + 64;
  KernelInput in;
  in.user.resize(cols);
  in.isp.resize(cols);
  in.exp.resize(cols);
  in.bitrate.resize(cols);
  for (std::size_t i = 0; i < cols; ++i) {
    in.user[i] = static_cast<std::uint32_t>(rng.uniform_index(1u << 20));
    in.isp[i] = static_cast<std::uint32_t>(rng.uniform_index(3));
    in.exp[i] = static_cast<std::uint32_t>(rng.uniform_index(40));
    in.bitrate[i] = static_cast<std::uint8_t>(rng.uniform_index(4));
  }
  in.indices.resize(n);
  for (std::size_t g = 0; g < n; ++g) {
    in.indices[g] = static_cast<std::uint32_t>(g * 2 % cols);
  }
  return in;
}

TEST(SweepKernels, GatherPeerColumnsNullUserLeavesOtherColumns) {
  // A null user output skips that gather (per-user collection off) but
  // must not disturb the other columns or the summary.
  std::array<double, 4> beta{800000.0, 1500000.0, 3000000.0, 5000000.0};
  for (const std::size_t n : boundary_lengths()) {
    if (n == 0) continue;  // kernel 2 requires n >= 1 (reads indices[0])
    Rng rng(7 + n);
    const KernelInput in = make_input(n, rng);
    std::vector<std::uint32_t> us(n), is(n), es(n), is2(n), es2(n);
    std::vector<double> bs(n), bs2(n);
    const auto rs = sweep_kernels::gather_peer_columns(
        in.indices, in.user.data(), in.isp.data(), in.exp.data(),
        in.bitrate.data(), beta.data(), us.data(), is.data(), es.data(),
        bs.data());
    const auto rn = sweep_kernels::gather_peer_columns(
        in.indices, in.user.data(), in.isp.data(), in.exp.data(),
        in.bitrate.data(), beta.data(), nullptr, is2.data(), es2.data(),
        bs2.data());
    for (std::size_t g = 0; g < n; ++g) {
      EXPECT_EQ(us[g], in.user[in.indices[g]]);
    }
    EXPECT_EQ(rn.max_exp, rs.max_exp);
    EXPECT_EQ(rn.single_isp, rs.single_isp);
    EXPECT_EQ(is2, is);
    EXPECT_EQ(es2, es);
    EXPECT_EQ(bs2, bs);
  }
}

TEST(SweepKernels, FoldTrafficSimdMatchesScalarBitwise) {
  Rng rng(31);
  for (int rep = 0; rep < 100; ++rep) {
    double tbs[sweep_kernels::kTrafficLanes];
    double tbv[sweep_kernels::kTrafficLanes];
    double al[sweep_kernels::kTrafficLanes];
    for (std::size_t k = 0; k < sweep_kernels::kTrafficLanes; ++k) {
      tbs[k] = tbv[k] = rng.uniform(0.0, 1e12);
      al[k] = rng.uniform(0.0, 1e7);
    }
    const double windows = rng.uniform(1.0, 8640.0);
    sweep_kernels::fold_traffic_scalar(tbs, al, windows);
    sweep_kernels::fold_traffic(tbv, al, windows);
    for (std::size_t k = 0; k < sweep_kernels::kTrafficLanes; ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(tbs[k]),
                std::bit_cast<std::uint64_t>(tbv[k]));
    }
  }
}

}  // namespace
}  // namespace cl
