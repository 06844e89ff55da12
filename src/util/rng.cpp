#include "util/rng.h"

#include <math.h>  // lgamma_r

#include <algorithm>
#include <bit>
#include <bitset>
#include <cmath>
#include <limits>
#include <utility>

#include "util/error.h"
#include "util/parallel.h"

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

using State = std::array<std::uint64_t, 4>;

/// The xoshiro256 state update: operator() without its output scrambler.
/// Every operation is a shift, rotation or XOR, so it is linear over GF(2).
void step(State& s) {
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
}

/// A GF(2) polynomial of degree < 256: bit i is the coefficient of xⁱ.
using Poly = std::array<std::uint64_t, 4>;

bool coefficient(const Poly& a, unsigned i) {
  return ((a[i / 64] >> (i % 64)) & 1U) != 0;
}

/// The state update's characteristic polynomial x²⁵⁶ + p(x); returns p.
/// Found once, by Berlekamp–Massey over 512 steps of one state bit: the
/// polynomial is primitive (the period is 2²⁵⁶ − 1), so it is the minimal
/// polynomial of every nonzero bit sequence the update produces.
const Poly& characteristic() {
  static const Poly poly = [] {
    constexpr std::size_t kDegree = 256;
    std::bitset<2 * kDegree> seq;
    State s{1, 0, 0, 0};
    for (std::size_t k = 0; k < seq.size(); ++k) {
      seq[k] = (s[0] & 1U) != 0;
      step(s);
    }
    // Connection polynomials c(x) = 1 + c₁x + … + c_len·x^len, with
    // seq[k] = Σ cᵢ·seq[k − i] once len is final.
    std::bitset<2 * kDegree + 1> c;
    std::bitset<2 * kDegree + 1> b;
    c[0] = b[0] = true;
    std::size_t len = 0;
    std::size_t shift = 1;
    for (std::size_t k = 0; k < seq.size(); ++k) {
      bool discrepancy = seq[k];
      for (std::size_t i = 1; i <= len; ++i) {
        discrepancy ^= c[i] && seq[k - i];
      }
      if (!discrepancy) {
        ++shift;
        continue;
      }
      const auto prev = c;
      c ^= b << shift;
      if (2 * len <= k) {
        len = k + 1 - len;
        b = prev;
        shift = 1;
      } else {
        ++shift;
      }
    }
    CL_ENSURES(len == kDegree);
    // The characteristic polynomial is c reversed: xʲ has coefficient
    // c_{256−j}.
    Poly p{};
    for (unsigned j = 0; j < kDegree; ++j) {
      if (c[kDegree - j]) p[j / 64] |= std::uint64_t{1} << (j % 64);
    }
    return p;
  }();
  return poly;
}

/// a·x mod x²⁵⁶ + p.
Poly times_x(const Poly& a, const Poly& p) {
  Poly r{a[0] << 1, (a[1] << 1) | (a[0] >> 63), (a[2] << 1) | (a[1] >> 63),
         (a[3] << 1) | (a[2] >> 63)};
  if ((a[3] >> 63) != 0) {
    for (std::size_t k = 0; k < r.size(); ++k) r[k] ^= p[k];
  }
  return r;
}

/// a² mod x²⁵⁶ + p. Squaring over GF(2) moves the bit of xⁱ to x²ⁱ; then
/// the top half clears from the highest term down, x²⁵⁶⁺ⁱ = xⁱ·p.
Poly square(const Poly& a, const Poly& p) {
  std::array<std::uint64_t, 8> w{};
  for (unsigned i = 0; i < 256; ++i) {
    if (coefficient(a, i)) w[i / 32] |= std::uint64_t{1} << (2 * i % 64);
  }
  for (unsigned i = 256; i-- > 0;) {
    const unsigned top = 256 + i;
    const std::uint64_t bit = std::uint64_t{1} << (top % 64);
    if ((w[top / 64] & bit) == 0) continue;
    w[top / 64] ^= bit;
    const unsigned words = i / 64;
    const unsigned bits = i % 64;
    for (unsigned k = 0; k < 4; ++k) {
      w[k + words] ^= p[k] << bits;
      if (bits != 0) w[k + words + 1] ^= p[k] >> (64 - bits);
    }
  }
  return {w[0], w[1], w[2], w[3]};
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
  step(s_);
  return result;
}

void Rng::discard(std::uint64_t n) {
  // A jump costs 256 steps plus the polynomial powering, so short skips
  // just step.
  if (n < 1024) {
    for (; n > 0; --n) step(s_);
    return;
  }
  // xⁿ mod the characteristic polynomial, by square-and-multiply.
  const Poly& p = characteristic();
  Poly r{1, 0, 0, 0};
  for (int bit = std::bit_width(n) - 1; bit >= 0; --bit) {
    r = square(r, p);
    if (((n >> bit) & 1U) != 0) r = times_x(r, p);
  }
  // Tⁿ·s = Σ rᵢ·Tⁱ·s (Cayley–Hamilton): accumulate the next 256 states.
  State jumped{};
  for (unsigned i = 0; i < 256; ++i) {
    if (coefficient(r, i)) {
      for (std::size_t k = 0; k < jumped.size(); ++k) jumped[k] ^= s_[k];
    }
    step(s_);
  }
  s_ = jumped;
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

void fill_in_chunks(
    const Rng& stream, std::size_t n, std::uint64_t draws_per_item,
    unsigned threads, std::size_t min_chunk,
    const std::function<void(Rng&, std::size_t, std::size_t)>& fill) {
  CL_EXPECTS(min_chunk > 0);
  const std::size_t chunks = std::min<std::size_t>(
      resolve_threads(threads, n), std::max<std::size_t>(1, n / min_chunk));
  if (chunks <= 1) {
    Rng rng = stream;
    fill(rng, 0, n);
    return;
  }
  const auto chunk_begin = [&](std::size_t c) { return n * c / chunks; };
  // Each chunk's stream where it starts, then where its fill left it.
  std::vector<Rng> start(chunks, stream);
  std::vector<Rng> end(chunks, stream);
  parallel_for_dynamic(chunks, threads, [&](std::size_t c) {
    // Draw from a local copy: neighbouring slots share cache lines.
    Rng rng = stream;
    rng.discard(draws_per_item * chunk_begin(c));
    start[c] = rng;
    fill(rng, chunk_begin(c), chunk_begin(c + 1));
    end[c] = rng;
  });
  for (std::size_t c = 1; c < chunks; ++c) {
    if (end[c - 1] == start[c]) continue;
    Rng rng = end[c - 1];
    fill(rng, chunk_begin(c), n);
    return;
  }
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

std::size_t DiscreteSampler::find(double u) const {
  // u·2^b is exact (a power-of-two scaling) and u < 1, so its floor k
  // picks the bucket [k·2^-b, (k+1)·2^-b) holding u: lower_bound(cdf, u)
  // lies in [guide_[k], guide_[k+1]].
  const auto k = static_cast<std::size_t>(u * guide_scale_);
  const auto first = cdf_.begin() + guide_[k];
  const auto last = cdf_.begin() + guide_[k + 1];
  return static_cast<std::size_t>(std::lower_bound(first, last, u) -
                                  cdf_.begin());
}

std::size_t DiscreteSampler::operator()(Rng& rng) const {
  return find(rng.uniform());
}

double DiscreteSampler::probability(std::size_t k) const {
  CL_EXPECTS(k < cdf_.size());
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace cl
