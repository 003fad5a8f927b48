#include "common/histogram.h"

#include <cassert>
#include <cmath>

namespace numdist {
namespace hist {

double BucketCenter(size_t i, size_t d) {
  assert(i < d);
  return (static_cast<double>(i) + 0.5) / static_cast<double>(d);
}

std::vector<uint64_t> Counts(const std::vector<double>& values, size_t d) {
  std::vector<uint64_t> counts(d, 0);
  for (double v : values) ++counts[BucketOf(v, d)];
  return counts;
}

std::vector<double> FromSamples(const std::vector<double>& values, size_t d) {
  std::vector<double> freq(d, 0.0);
  if (values.empty()) return freq;
  const double w = 1.0 / static_cast<double>(values.size());
  for (double v : values) freq[BucketOf(v, d)] += w;
  return freq;
}

double Sum(const std::vector<double>& x) {
  double s = 0.0;
  for (double v : x) s += v;
  return s;
}

void Normalize(std::vector<double>* x) {
  const double s = Sum(*x);
  if (s <= 0.0) return;
  for (double& v : *x) v /= s;
}

std::vector<double> Cdf(const std::vector<double>& x) {
  std::vector<double> out(x.size());
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    acc += x[i];
    out[i] = acc;
  }
  return out;
}

bool IsDistribution(const std::vector<double>& x, double tol) {
  for (double v : x) {
    if (v < -tol || std::isnan(v)) return false;
  }
  return std::fabs(Sum(x) - 1.0) <= tol;
}

}  // namespace hist
}  // namespace numdist
