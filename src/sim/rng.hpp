#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

/// \file rng.hpp
/// Seedable random number generation and the distributions used by the
/// ICDCS'99 workload: Uniform, Exponential (transaction lengths, deadlines,
/// Poisson inter-arrivals) and Zipf (skewed shared-region accesses).
///
/// We implement xoshiro256** seeded via SplitMix64 rather than relying on
/// std::mt19937_64 so that streams are cheap to split per-client (one
/// independent deterministic stream per workload source).

namespace rtdb::sim {

/// SplitMix64 — used to expand a single 64-bit seed into xoshiro state and
/// to derive independent per-client sub-seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64-bit value.
  std::uint64_t next() {
    std::uint64_t z = (state_ += UINT64_C(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — fast, high-quality, 2^256-1 period.
///
/// Satisfies std::uniform_random_bit_generator so it also plugs into
/// standard-library distributions if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; equal seeds give equal streams.
  explicit Rng(std::uint64_t seed = UINT64_C(0x9E3779B97F4A7C15)) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return UINT64_MAX; }

  /// Raw 64 random bits.
  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform01() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform01();
  }

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    assert(lo <= hi);
    return lo + bounded(hi - lo + 1);
  }

  /// Exponential variate with the given mean (not rate). mean > 0.
  double exponential(double mean) {
    assert(mean > 0);
    // 1 - uniform01() lies in (0, 1], so the log is finite.
    return -mean * std::log1p(-uniform01());
  }

  /// Bernoulli trial: true with probability p.
  bool bernoulli(double p) { return uniform01() < p; }

  /// Derives an independent generator (e.g. one per simulated client).
  Rng split() {
    return Rng((*this)() ^ UINT64_C(0xD1B54A32D192ED03));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// Unbiased bounded integer in [0, n) via Lemire's method (n == 0 -> 0).
  std::uint64_t bounded(std::uint64_t n) {
    if (n == 0) return 0;  // full 2^64 range requested: wraps to raw draw
    // Rejection sampling on the top of the range removes modulo bias.
    const std::uint64_t threshold = (-n) % n;
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  std::uint64_t s_[4];
};

/// Zipf(θ)-distributed integers over {0, 1, ..., n-1}; rank 0 is hottest.
///
/// P(k) ∝ 1 / (k+1)^θ. Sampling searches the precomputed CDF (the workload
/// dimensions — 10,000 to 100,000 objects — make the O(n) table affordable
/// and exact). A guide table narrows the search first: guide_[j] is the
/// first rank whose CDF reaches j/G, G a power of two, so a draw u with
/// j = floor(u·G) (exact in binary) has its rank in [guide_[j],
/// guide_[j+1]] and the search returns exactly what std::lower_bound over
/// the whole CDF returns — a handful of comparisons instead of ~17.
class ZipfDistribution {
 public:
  /// n >= 1 items, skew theta >= 0 (theta = 0 degenerates to Uniform).
  ZipfDistribution(std::size_t n, double theta);

  /// Samples a rank in [0, n).
  std::size_t sample(Rng& rng) const { return rank_of(rng.uniform01()); }

  /// The rank a uniform draw u in [0, 1) maps to: the first rank whose CDF
  /// reaches u.
  [[nodiscard]] std::size_t rank_of(double u) const;

  /// Probability mass of rank k.
  double pmf(std::size_t k) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }
  [[nodiscard]] double theta() const { return theta_; }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  ///< G + 1 entries, see above
  double guide_scale_ = 0;            ///< G, as a double
  double theta_;
};

}  // namespace rtdb::sim
