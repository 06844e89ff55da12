// rng.h — deterministic random number generation and the samplers used by
// the synthetic workload generator.
//
// Reproducibility is a hard requirement: the same seed must generate the
// same trace on every platform and standard library. We therefore implement
// the generator (xoshiro256++) and every distribution sampler ourselves
// rather than relying on <random>'s unspecified distribution algorithms.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace cl {

/// xoshiro256++ pseudo-random generator, seeded via SplitMix64.
///
/// Satisfies std::uniform_random_bit_generator, so it can also drive
/// standard algorithms (e.g. std::shuffle) when cross-platform bit-exact
/// output is not required.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next 64 random bits.
  result_type operator()();

  /// Advances the stream by `n` draws, exactly as `n` calls of operator()
  /// would, in O(log n). The xoshiro256 state update is linear over GF(2),
  /// so n steps equal the polynomial xⁿ reduced modulo the update's
  /// characteristic polynomial, applied to the state (Haramoto et al.
  /// 2008). Short skips just step.
  void discard(std::uint64_t n);

  /// Same state, so the same draws from here on.
  friend bool operator==(const Rng&, const Rng&) = default;

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponential variate with rate lambda (> 0).
  double exponential(double lambda);

  /// Poisson variate with mean `mean` (>= 0). Uses inversion for small
  /// means and the PTRS transformed-rejection method for large means.
  std::uint64_t poisson(double mean);

  /// Standard normal variate (Box–Muller, no cached spare: deterministic
  /// consumption of exactly two uniforms per call).
  double normal();

  /// Normal variate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal variate parameterised by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma);

  /// Derives an independent child generator; used to give each simulated
  /// entity its own stream so insertion order does not perturb results.
  Rng split();

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Fills items [0, n) from one serial stream, split into contiguous chunks
/// that run concurrently, with the result of one serial
/// `fill(stream, 0, n)`.
///
/// `fill(rng, begin, end)` fills items [begin, end), drawing from `rng` in
/// item order, normally `draws_per_item` draws an item. Chunk [b, e)
/// starts from `stream` advanced by draws_per_item·b (Rng::discard), so
/// no chunk waits for another. A sampler may draw more than its share
/// (uniform_index rejects a draw with probability < bound/2⁶⁴), shifting
/// the rest of the stream; so each chunk's end state is checked against
/// the next chunk's start, and from the first mismatch on the items are
/// refilled serially from the true end state. Chunks hold at least
/// `min_chunk` items, one per worker at most; a single chunk is one plain
/// serial fill and jumps nowhere.
void fill_in_chunks(
    const Rng& stream, std::size_t n, std::uint64_t draws_per_item,
    unsigned threads, std::size_t min_chunk,
    const std::function<void(Rng&, std::size_t, std::size_t)>& fill);

/// Samples an index from an arbitrary non-negative weight vector.
///
/// A draw is exactly `std::lower_bound(cdf, u)` for one `u = rng.uniform()`,
/// where cdf is the normalised inclusive prefix sum of the weights. A guide
/// table narrows that search: bucket k holds lower_bound(cdf, k·2⁻ᵇ), and
/// since u·2ᵇ is exact, u's bucket brackets the answer. A draw over the
/// 3.3 M-user paper population therefore searches a few dozen entries
/// instead of binary-searching the whole 26 MB CDF, and returns the same
/// index. find(u) is that search on its own, so a caller can take a batch
/// of uniforms first and resolve them together: at paper scale each
/// search misses cache, and independent searches overlap their misses.
class DiscreteSampler {
 public:
  /// Precondition: weights non-empty, all >= 0, sum > 0. The vector is
  /// turned into the CDF in place, so pass a temporary to avoid a copy.
  explicit DiscreteSampler(std::vector<double> weights);

  /// The index lower_bound(cdf, u), for any u in [0, 1).
  [[nodiscard]] std::size_t find(double u) const;

  /// find(rng.uniform()): one draw.
  std::size_t operator()(Rng& rng) const;

  [[nodiscard]] double probability(std::size_t k) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;           // inclusive prefix sums, back() == 1
  double guide_scale_ = 1;            // 2^b guide buckets over [0, 1)
  std::vector<std::uint32_t> guide_;  // 2^b + 1 bucket starts into cdf_
};

}  // namespace cl
