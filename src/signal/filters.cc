#include "signal/filters.h"

#include <cmath>

#include "common/check.h"

namespace cit::signal {

std::vector<double> L1Median(const std::vector<std::vector<double>>& points,
                             int64_t max_iters, double tol) {
  CIT_CHECK(!points.empty());
  const size_t dim = points[0].size();
  // Start at the coordinate-wise mean.
  std::vector<double> y(dim, 0.0);
  for (const auto& p : points) {
    CIT_CHECK_EQ(p.size(), dim);
    for (size_t d = 0; d < dim; ++d) y[d] += p[d];
  }
  for (size_t d = 0; d < dim; ++d) y[d] /= static_cast<double>(points.size());

  for (int64_t iter = 0; iter < max_iters; ++iter) {
    std::vector<double> next(dim, 0.0);
    double weight_sum = 0.0;
    for (const auto& p : points) {
      double dist2 = 0.0;
      for (size_t d = 0; d < dim; ++d) {
        const double diff = p[d] - y[d];
        dist2 += diff * diff;
      }
      const double dist = std::sqrt(dist2);
      // A point coinciding with the current estimate would blow up the
      // weight; Weiszfeld's convention is to return it directly.
      if (dist < 1e-12) return p;
      const double w = 1.0 / dist;
      weight_sum += w;
      for (size_t d = 0; d < dim; ++d) next[d] += w * p[d];
    }
    double shift = 0.0;
    for (size_t d = 0; d < dim; ++d) {
      next[d] /= weight_sum;
      shift += std::fabs(next[d] - y[d]);
    }
    y = std::move(next);
    if (shift < tol) break;
  }
  return y;
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  CIT_CHECK_EQ(a.size(), b.size());
  const size_t n = a.size();
  if (n == 0) return 0.0;
  double ma = 0.0, mb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

}  // namespace cit::signal
