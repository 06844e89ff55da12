// Tests for util/rng.h — determinism and distribution sanity.
#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/stats.h"

namespace cl {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformRangeRejectsInverted) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(2.0, 1.0), InvalidArgument);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_index(7), 7u);
  }
}

TEST(Rng, UniformIndexIsUniform) {
  Rng rng(17);
  std::array<int, 5> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) EXPECT_NEAR(c, n / 5.0, n * 0.01);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(31);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(2.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(31);
  EXPECT_THROW(rng.exponential(0.0), InvalidArgument);
  EXPECT_THROW(rng.exponential(-1.0), InvalidArgument);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(37);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) {
    s.add(static_cast<double>(rng.poisson(3.0)));
  }
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_NEAR(s.variance(), 3.0, 0.1);
}

TEST(Rng, PoissonLargeMeanUsesPtrs) {
  Rng rng(41);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) {
    s.add(static_cast<double>(rng.poisson(120.0)));
  }
  EXPECT_NEAR(s.mean(), 120.0, 0.5);
  EXPECT_NEAR(s.variance(), 120.0, 3.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, NormalMoments) {
  Rng rng(47);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.03);
  EXPECT_NEAR(s.stddev(), 2.0, 0.03);
}

TEST(Rng, LognormalMean) {
  Rng rng(53);
  // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2).
  const double mu = 0.2, sigma = 0.5;
  RunningStats s;
  for (int i = 0; i < 300000; ++i) s.add(rng.lognormal(mu, sigma));
  EXPECT_NEAR(s.mean(), std::exp(mu + sigma * sigma / 2), 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(61);
  Rng child = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, DiscardEqualsRepeatedDraws) {
  // 1023 and 1024 straddle the switch from stepping to the jump.
  for (const std::uint64_t n :
       {0ULL, 1ULL, 2ULL, 63ULL, 64ULL, 65ULL, 1023ULL, 1024ULL, 1000003ULL}) {
    Rng jumped(71);
    Rng stepped(71);
    jumped.discard(n);
    for (std::uint64_t i = 0; i < n; ++i) stepped();
    EXPECT_EQ(jumped, stepped) << "n=" << n;
    EXPECT_EQ(jumped(), stepped()) << "n=" << n;
  }
}

TEST(Rng, DiscardComposes) {
  const std::uint64_t big = std::uint64_t{1} << 40;
  for (const auto& [a, b] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {5, 1000000},
           {3000000000ULL, 2000000000ULL},  // sum past 2^32
           {big, big + 7}}) {
    Rng twice(73);
    Rng once(73);
    twice.discard(a);
    twice.discard(b);
    once.discard(a + b);
    EXPECT_EQ(twice, once) << a << " + " << b;
  }
}

TEST(Rng, EqualityTellsStatesOneDrawApart) {
  Rng a(79);
  Rng b(79);
  EXPECT_EQ(a, b);
  b();
  EXPECT_NE(a, b);
  a();
  EXPECT_EQ(a, b);
}

/// fill_in_chunks over `n` items of `draws` draws each, where every item
/// in `extra` draws once more, as a uniform_index rejection would.
std::vector<std::uint64_t> chunked_fill(std::size_t n, std::uint64_t draws,
                                        const std::set<std::size_t>& extra,
                                        unsigned threads,
                                        std::size_t min_chunk) {
  std::vector<std::uint64_t> out(n);
  fill_in_chunks(Rng(83), n, draws, threads, min_chunk,
                 [&](Rng& rng, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     out[i] = rng();
                     for (std::uint64_t d = 1; d < draws; ++d) out[i] ^= rng();
                     if (extra.count(i) != 0) rng();
                   }
                 });
  return out;
}

TEST(FillInChunks, RefillsAfterAnItemDrawsMore) {
  // 3 draws per item put the later chunks past the jump threshold.
  const std::size_t n = 5003;
  for (const std::set<std::size_t>& extra :
       std::vector<std::set<std::size_t>>{
           {}, {0}, {n / 2}, {n - 1}, {10, n - 10}}) {
    const auto serial = chunked_fill(n, 3, extra, 1, 1);
    for (const unsigned threads : {2u, 3u, 7u}) {
      EXPECT_EQ(chunked_fill(n, 3, extra, threads, 1), serial)
          << "threads=" << threads << " extra draws=" << extra.size();
    }
  }
}

TEST(FillInChunks, SmallInputIsOneUnjumpedFill) {
  const Rng stream(89);
  int calls = 0;
  fill_in_chunks(stream, 100, 3, 7, 64,
                 [&](Rng& rng, std::size_t begin, std::size_t end) {
                   ++calls;
                   EXPECT_EQ(rng, stream);
                   EXPECT_EQ(begin, 0u);
                   EXPECT_EQ(end, 100u);
                 });
  EXPECT_EQ(calls, 1);
}

TEST(FillInChunks, ChunkCountFollowsThreadsAndMinimum) {
  const auto count_chunks = [](std::size_t n, unsigned threads,
                               std::size_t min_chunk) {
    std::atomic<std::size_t> chunks{0};
    fill_in_chunks(Rng(97), n, 1, threads, min_chunk,
                   [&](Rng& rng, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) rng();
                     ++chunks;
                   });
    return chunks.load();
  };
  EXPECT_EQ(count_chunks(100, 7, 1), 7u);
  EXPECT_EQ(count_chunks(5, 7, 1), 5u);      // more threads than items
  EXPECT_EQ(count_chunks(100, 7, 40), 2u);   // chunks of at least 40
  EXPECT_EQ(count_chunks(100, 7, 100), 1u);
  EXPECT_EQ(count_chunks(0, 7, 1), 1u);      // one empty fill
}

TEST(DiscreteSampler, RespectsWeights) {
  const DiscreteSampler sampler({1.0, 3.0, 6.0});
  EXPECT_NEAR(sampler.probability(0), 0.1, 1e-12);
  EXPECT_NEAR(sampler.probability(1), 0.3, 1e-12);
  EXPECT_NEAR(sampler.probability(2), 0.6, 1e-12);
}

TEST(DiscreteSampler, ZeroWeightNeverSampled) {
  const DiscreteSampler sampler({1.0, 0.0, 1.0});
  Rng rng(71);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(sampler(rng), 1u);
}

TEST(DiscreteSampler, RejectsInvalidWeights) {
  EXPECT_THROW(DiscreteSampler({}), InvalidArgument);
  EXPECT_THROW(DiscreteSampler({0.0, 0.0}), InvalidArgument);
  EXPECT_THROW(DiscreteSampler({1.0, -1.0}), InvalidArgument);
}

/// The sampler's specification: std::lower_bound over the normalised
/// inclusive prefix sums, for one uniform draw.
std::vector<double> reference_cdf(const std::vector<double>& weights) {
  std::vector<double> cdf(weights.size());
  double sum = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    sum += weights[i];
    cdf[i] = sum;
  }
  for (auto& v : cdf) v /= sum;
  cdf.back() = 1.0;
  return cdf;
}

/// Draws `draws` indices from a sampler over `weights` and checks each
/// against std::lower_bound on a copy of the same Rng; the two streams
/// must also stay in step.
void expect_lower_bound_draws(const std::vector<double>& weights, int draws,
                              std::uint64_t seed) {
  const std::vector<double> cdf = reference_cdf(weights);
  const DiscreteSampler sampler(weights);
  ASSERT_EQ(sampler.size(), weights.size());
  Rng rng(seed);
  for (int i = 0; i < draws; ++i) {
    Rng copy = rng;
    const std::size_t expected = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), copy.uniform()) -
        cdf.begin());
    ASSERT_EQ(sampler(rng), expected)
        << "n=" << weights.size() << " draw " << i;
    ASSERT_EQ(rng(), copy()) << "n=" << weights.size() << " draw " << i;
  }
}

TEST(DiscreteSampler, DrawEqualsLowerBoundOnSingleWeight) {
  expect_lower_bound_draws({2.5}, 1000, 73);
}

TEST(DiscreteSampler, DrawEqualsLowerBoundOnTwoEntries) {
  expect_lower_bound_draws({1.0, 3.0}, 20000, 79);
  expect_lower_bound_draws({0.0, 1.0}, 2000, 83);
  expect_lower_bound_draws({1.0, 0.0}, 2000, 89);
}

TEST(DiscreteSampler, DrawEqualsLowerBoundAcrossZeroWeightRuns) {
  // Long zero runs give many equal CDF entries, some of them on guide
  // bucket edges; leading and trailing runs cover the ends.
  std::vector<double> weights(5000, 0.0);
  for (std::size_t i = 1000; i < weights.size(); i += 997) weights[i] = 1.0;
  weights[3001] = 1e-12;
  expect_lower_bound_draws(weights, 50000, 97);
  // Equal weights over 2^k entries put CDF values exactly on bucket edges.
  std::vector<double> dyadic(1024, 0.0);
  for (std::size_t i = 0; i < dyadic.size(); i += 2) dyadic[i] = 1.0;
  expect_lower_bound_draws(dyadic, 50000, 101);
}

TEST(DiscreteSampler, DrawEqualsLowerBoundAroundGuideTableCap) {
  for (const std::size_t n : {std::size_t{65535}, std::size_t{65536},
                              std::size_t{65537}}) {
    Rng weight_rng(n);
    std::vector<double> weights(n);
    for (double& w : weights) w = weight_rng.lognormal(0.0, 1.5);
    expect_lower_bound_draws(weights, 50000, 103 + n);
  }
}

/// Checks find(u) against std::lower_bound over the CDF at u = 0, at
/// every multiple of 2⁻¹⁶ (every guide-bucket edge: the table has at most
/// 2¹⁶ buckets) and the double just below it, and at the largest uniform
/// 1 − 2⁻⁵³; and find(uniform) against operator() on one stream.
void expect_find_is_lower_bound(const std::vector<double>& weights) {
  const std::vector<double> cdf = reference_cdf(weights);
  const DiscreteSampler sampler(weights);
  const auto lower_bound = [&](double u) {
    return static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  };
  std::vector<double> us{0.0, 1.0 - 0x1.0p-53};
  for (std::size_t k = 1; k < (std::size_t{1} << 16); ++k) {
    const double edge = static_cast<double>(k) * 0x1.0p-16;
    us.push_back(edge);
    us.push_back(std::nextafter(edge, 0.0));
  }
  for (const double u : us) {
    ASSERT_EQ(sampler.find(u), lower_bound(u))
        << "n=" << weights.size() << " u=" << u;
  }
  Rng rng(127);
  for (int i = 0; i < 2000; ++i) {
    Rng copy = rng;
    ASSERT_EQ(sampler.find(copy.uniform()), sampler(rng)) << "draw " << i;
    ASSERT_EQ(rng, copy);
  }
}

TEST(DiscreteSampler, FindEqualsLowerBoundAtBucketEdges) {
  expect_find_is_lower_bound({2.5});  // a single entry
  expect_find_is_lower_bound({1.0, 3.0});
  // Zero weights repeat CDF values, on bucket edges among others.
  expect_find_is_lower_bound({0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0});
  std::vector<double> dyadic(1024, 0.0);
  for (std::size_t i = 0; i < dyadic.size(); i += 2) dyadic[i] = 1.0;
  expect_find_is_lower_bound(dyadic);
  Rng weight_rng(131);
  std::vector<double> skewed(65537);
  for (double& w : skewed) w = weight_rng.lognormal(0.0, 1.5);
  for (std::size_t i = 0; i < skewed.size(); i += 7) skewed[i] = 0.0;
  expect_find_is_lower_bound(skewed);
}

TEST(DiscreteSampler, DrawEqualsLowerBoundAtPaperPopulation) {
  // The paper month's 3.3 M-user taste weights: heavy skew, tiny floor.
  Rng weight_rng(107);
  std::vector<double> weights(3300000);
  for (double& w : weights) {
    w = weight_rng.lognormal(0.0, 1.0) *
        (std::pow(weight_rng.uniform(), 2.0) + 1e-9);
  }
  expect_lower_bound_draws(weights, 200000, 109);
}

}  // namespace
}  // namespace cl
