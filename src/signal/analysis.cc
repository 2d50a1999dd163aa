#include "signal/analysis.h"

#include <cmath>

#include "common/check.h"
#include "signal/wavelet.h"

namespace cit::signal {

double VarianceRatio(const std::vector<double>& returns, int64_t q) {
  CIT_CHECK_GE(q, 1);
  const int64_t n = static_cast<int64_t>(returns.size());
  if (n < q + 2) return 1.0;
  double mean = 0.0;
  for (double r : returns) mean += r;
  mean /= static_cast<double>(n);

  double var1 = 0.0;
  for (double r : returns) var1 += (r - mean) * (r - mean);
  var1 /= static_cast<double>(n - 1);
  if (var1 <= 0.0) return 1.0;

  // Overlapping q-period sums.
  double varq = 0.0;
  const int64_t count = n - q + 1;
  for (int64_t t = 0; t < count; ++t) {
    double sum = 0.0;
    for (int64_t i = 0; i < q; ++i) sum += returns[t + i];
    const double d = sum - static_cast<double>(q) * mean;
    varq += d * d;
  }
  varq /= static_cast<double>(count);
  return varq / (static_cast<double>(q) * var1);
}

double AnnualizedVolatility(const std::vector<double>& daily_returns,
                            double periods_per_year) {
  if (daily_returns.size() < 2) return 0.0;
  double mean = 0.0;
  for (double r : daily_returns) mean += r;
  mean /= static_cast<double>(daily_returns.size());
  double var = 0.0;
  for (double r : daily_returns) var += (r - mean) * (r - mean);
  var /= static_cast<double>(daily_returns.size() - 1);
  return std::sqrt(var * periods_per_year);
}

std::vector<double> BandEnergyFractions(const std::vector<double>& x,
                                        int64_t num_bands) {
  const auto bands = SplitHorizonBands(x, num_bands);
  std::vector<double> energy(num_bands, 0.0);
  double total = 0.0;
  for (int64_t b = 0; b < num_bands; ++b) {
    for (double v : bands[b]) energy[b] += v * v;
    total += energy[b];
  }
  if (total > 0.0) {
    for (double& e : energy) e /= total;
  }
  return energy;
}

}  // namespace cit::signal
