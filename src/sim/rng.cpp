#include "sim/rng.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace rtdb::sim {

ZipfDistribution::ZipfDistribution(std::size_t n, double theta)
    : theta_(theta) {
  if (n == 0) throw std::invalid_argument("ZipfDistribution: n must be >= 1");
  if (theta < 0) throw std::invalid_argument("ZipfDistribution: theta >= 0");
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("ZipfDistribution: n must fit 32 bits");
  }
  cdf_.resize(n);
  double acc = 0;
  if (theta == 0) {
    // Uniform: every weight is pow(k + 1, 0) == 1 exactly, so skipping the
    // n pow() calls leaves every partial sum bit-identical.
    for (std::size_t k = 0; k < n; ++k) cdf_[k] = acc += 1.0;
  } else {
    for (std::size_t k = 0; k < n; ++k) {
      acc += 1.0 / std::pow(static_cast<double>(k + 1), theta);
      cdf_[k] = acc;
    }
  }
  // About four ranks per guide bucket on average.
  const std::size_t buckets = std::max<std::size_t>(1, std::bit_floor(n) / 4);
  guide_scale_ = static_cast<double>(buckets);
  guide_.resize(buckets + 1);
  // Normalize so the last entry is exactly 1 (guards the search), filling
  // the guide in the same pass: bucket j starts at the first rank whose
  // CDF reaches j / buckets (a power-of-two division, exact).
  std::size_t j = 0;
  double bucket_start = 0.0;  // j / buckets
  for (std::size_t k = 0; k < n; ++k) {
    const double c = k + 1 == n ? 1.0 : cdf_[k] / acc;
    cdf_[k] = c;
    while (j <= buckets && c >= bucket_start) {
      guide_[j++] = static_cast<std::uint32_t>(k);
      bucket_start = static_cast<double>(j) / guide_scale_;
    }
  }
}

std::size_t ZipfDistribution::rank_of(double u) const {
  // u < 1, so j < buckets.
  const auto j = static_cast<std::size_t>(u * guide_scale_);
  const auto first = cdf_.begin() + guide_[j];
  const auto last = cdf_.begin() + guide_[j + 1] + 1;
  return static_cast<std::size_t>(std::lower_bound(first, last, u) -
                                  cdf_.begin());
}

double ZipfDistribution::pmf(std::size_t k) const {
  if (k >= cdf_.size()) return 0;
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace rtdb::sim
