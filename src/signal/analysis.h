#ifndef CIT_SIGNAL_ANALYSIS_H_
#define CIT_SIGNAL_ANALYSIS_H_

#include <cstdint>
#include <vector>

namespace cit::signal {

// Lo-MacKinlay variance ratio VR(q) = Var(q-period returns) /
// (q * Var(1-period returns)) of a *return* series. VR > 1 indicates
// positive serial correlation (momentum) at horizon q, VR < 1 indicates
// mean reversion. Used to characterize the simulator's horizon structure.
double VarianceRatio(const std::vector<double>& returns, int64_t q);

// Annualized realized volatility of a daily log-return series.
double AnnualizedVolatility(const std::vector<double>& daily_returns,
                            double periods_per_year = 252.0);

// Per-band energy fractions of a signal under `num_bands` horizon bands:
// element b is sum(band_b^2) / sum over all bands. Measures how the
// signal's variance distributes across horizons.
std::vector<double> BandEnergyFractions(const std::vector<double>& x,
                                        int64_t num_bands);

}  // namespace cit::signal

#endif  // CIT_SIGNAL_ANALYSIS_H_
