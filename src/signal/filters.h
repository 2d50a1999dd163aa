#ifndef CIT_SIGNAL_FILTERS_H_
#define CIT_SIGNAL_FILTERS_H_

#include <cstdint>
#include <vector>

namespace cit::signal {

// Geometric L1-median of a set of points (Weiszfeld's algorithm), used by
// the RMR baseline's robust price estimate. `points` is [n][dim].
std::vector<double> L1Median(const std::vector<std::vector<double>>& points,
                             int64_t max_iters = 200, double tol = 1e-9);

// Pearson correlation of two equal-length vectors; 0 when degenerate.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

}  // namespace cit::signal

#endif  // CIT_SIGNAL_FILTERS_H_
