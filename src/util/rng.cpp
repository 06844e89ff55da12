#include "util/rng.h"

#include <math.h>  // lgamma_r

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "util/error.h"

namespace cl {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& lane : s_) lane = splitmix64(x);
  // All-zero state is the one invalid state for xoshiro; splitmix64 cannot
  // produce four zero outputs in a row, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  CL_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  CL_EXPECTS(n > 0);
  // Lemire's nearly-divisionless bounded sampling with rejection.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) { return uniform() < std::clamp(p, 0.0, 1.0); }

double Rng::exponential(double lambda) {
  CL_EXPECTS(lambda > 0);
  // -log(1-U) with U in [0,1) avoids log(0).
  return -std::log1p(-uniform()) / lambda;
}

std::uint64_t Rng::poisson(double mean) {
  CL_EXPECTS(mean >= 0);
  if (mean == 0) return 0;
  if (mean < 30.0) {
    // Inversion by sequential search.
    const double l = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > l);
    return k - 1;
  }
  // PTRS (Hörmann 1993) transformed rejection for large means.
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    double u = uniform() - 0.5;
    const double v = uniform();
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    if (k < 0 || (us < 0.013 && v > us)) continue;
    // lgamma_r, not std::lgamma: the latter writes the global `signgam`,
    // a data race when several generator workers draw at once.
    int sign = 0;
    if (std::log(v) + std::log(inv_alpha) - std::log(a / (us * us) + b) <=
        k * std::log(mean) - mean - ::lgamma_r(k + 1.0, &sign)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

double Rng::normal() {
  // Box–Muller; discard the spare so each call consumes exactly two
  // uniforms and streams remain alignment-independent.
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  return box_muller(u1, u2);
}

double Rng::box_muller(double u1, double u2) {
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

double Rng::normal(double mean, double stddev) {
  CL_EXPECTS(stddev >= 0);
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

Rng Rng::split() {
  // A fresh generator seeded from this stream; avoids correlated lanes.
  return Rng((*this)());
}

DiscreteSampler::DiscreteSampler(std::vector<double> weights)
    : cdf_(std::move(weights)) {
  CL_EXPECTS(!cdf_.empty());
  CL_EXPECTS(cdf_.size() <= std::numeric_limits<std::uint32_t>::max());
  double sum = 0;
  for (double& v : cdf_) {
    CL_EXPECTS(v >= 0);
    sum += v;
    v = sum;
  }
  CL_EXPECTS(sum > 0);
  for (auto& v : cdf_) v /= sum;
  cdf_.back() = 1.0;

  // About one guide bucket per CDF entry, capped at 2^16 buckets (256 KiB).
  const std::size_t buckets =
      std::size_t{1} << std::min(16, static_cast<int>(
                                         std::bit_width(cdf_.size())));
  guide_scale_ = static_cast<double>(buckets);
  guide_.resize(buckets + 1);
  std::size_t i = 0;
  for (std::size_t k = 0; k <= buckets; ++k) {
    // k·2^-b is exact, and the CDF is non-decreasing, so one forward scan
    // finds every bucket's lower_bound.
    const double edge = static_cast<double>(k) / guide_scale_;
    while (cdf_[i] < edge) ++i;  // stops at back() == 1 >= edge
    guide_[k] = static_cast<std::uint32_t>(i);
  }
}

std::size_t DiscreteSampler::operator()(Rng& rng) const {
  const double u = rng.uniform();
  // u < 1 is a multiple of 2^-53, so u·2^b is exact and its floor k picks
  // the bucket [k·2^-b, (k+1)·2^-b) holding u: lower_bound(cdf, u) lies
  // in [guide_[k], guide_[k+1]].
  const auto k = static_cast<std::size_t>(u * guide_scale_);
  const auto first = cdf_.begin() + guide_[k];
  const auto last = cdf_.begin() + guide_[k + 1];
  return static_cast<std::size_t>(std::lower_bound(first, last, u) -
                                  cdf_.begin());
}

double DiscreteSampler::probability(std::size_t k) const {
  CL_EXPECTS(k < cdf_.size());
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace cl
