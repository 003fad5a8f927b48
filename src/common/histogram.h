// Histogram primitives shared by mechanisms, estimators and metrics.
//
// A distribution over the canonical domain [0, 1] is represented as a
// d-bucket probability vector (std::vector<double>, non-negative, sum 1).
// Bucket i covers [i/d, (i+1)/d); the last bucket is closed on the right.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace numdist {
namespace hist {

/// Index of the bucket containing `v` in a `d`-bucket grid over [0, 1].
/// Values are clamped into [0, 1] first (robustness against FP round-off).
/// `v` must not be NaN. Inline so batch bucketizers (e.g.
/// SwEstimator::BucketizeInto) run this exact arithmetic in their loops.
inline size_t BucketOf(double v, size_t d) {
  assert(d > 0);
  v = std::clamp(v, 0.0, 1.0);
  const size_t i = static_cast<size_t>(v * static_cast<double>(d));
  return std::min(i, d - 1);
}

/// Index of the bucket containing `v` in a `d`-bucket grid over [lo, hi).
inline size_t BucketOf(double v, size_t d, double lo, double hi) {
  assert(hi > lo);
  return BucketOf((v - lo) / (hi - lo), d);
}

/// Center of bucket `i` in a `d`-bucket grid over [0, 1].
double BucketCenter(size_t i, size_t d);

/// Raw counts of `values` over a `d`-bucket grid on [0, 1].
std::vector<uint64_t> Counts(const std::vector<double>& values, size_t d);

/// Normalized frequencies of `values` over a `d`-bucket grid on [0, 1].
std::vector<double> FromSamples(const std::vector<double>& values, size_t d);

/// Sum of all entries.
double Sum(const std::vector<double>& x);

/// Scales `x` in place so it sums to 1 (no-op if the sum is <= 0).
void Normalize(std::vector<double>* x);

/// Prefix sums: out[i] = x[0] + ... + x[i]. out.size() == x.size().
std::vector<double> Cdf(const std::vector<double>& x);

/// True iff all entries are >= -tol and the sum is within tol of 1.
bool IsDistribution(const std::vector<double>& x, double tol = 1e-9);

}  // namespace hist
}  // namespace numdist
