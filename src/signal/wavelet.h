#ifndef CIT_SIGNAL_WAVELET_H_
#define CIT_SIGNAL_WAVELET_H_

#include <cstdint>
#include <vector>

namespace cit::signal {

// Doubles of scratch SplitHorizonBandsInto needs for a length-n signal
// split into `num_bands` bands.
int64_t BandSplitScratchSize(int64_t n, int64_t num_bands);

// Splits x[0, n) into `num_bands` horizon sub-series with a
// (num_bands-1)-level Haar DWT (paper Eq. (1)) and writes band b to
// bands[b*n, (b+1)*n). Band 0 is the longest horizon (the approximation
// a^L alone) and band b >= 1 keeps detail d^{L+1-b} alone, so increasing
// band index means increasingly short horizon; every other coefficient is
// masked to +0.0 and the band is inverse-transformed. Odd-length levels
// are padded by repeating their final sample, and the padding is dropped
// on reconstruction. A signal too short for the requested depth yields
// all-zero surplus bands, so the bands always sum to x (linearity of the
// DWT, property-tested). num_bands == 1 copies x.
//
// One in-place pass over caller-owned memory: `scratch` holds
// BandSplitScratchSize(n, num_bands) doubles, `bands` num_bands*n, and
// nothing is allocated. Requires n >= 1 and num_bands >= 1.
void SplitHorizonBandsInto(const double* x, int64_t n, int64_t num_bands,
                           double* scratch, double* bands);

// SplitHorizonBandsInto returning one vector per band (tools, analysis).
std::vector<std::vector<double>> SplitHorizonBands(
    const std::vector<double>& x, int64_t num_bands);

}  // namespace cit::signal

#endif  // CIT_SIGNAL_WAVELET_H_
