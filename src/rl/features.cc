#include "rl/features.h"

#include <algorithm>

#include "common/check.h"
#include "signal/wavelet.h"

namespace cit::rl {

int64_t FeatureBlockSize(int64_t num_assets, int64_t window,
                         int64_t num_bands, int64_t flat_days) {
  return (1 + num_bands) * num_assets * (window + flat_days);
}

int64_t FeatureBlockScratchSize(int64_t window, int64_t num_bands) {
  CIT_CHECK_GE(window, 1);
  CIT_CHECK_GE(num_bands, 0);
  // One asset's window, its bands, then the band split's own scratch.
  int64_t size = (1 + num_bands) * window;
  if (num_bands > 0) size += signal::BandSplitScratchSize(window, num_bands);
  return size;
}

void FeatureBlockInto(const market::PanelView& panel, int64_t day,
                      int64_t window, int64_t num_bands, int64_t flat_days,
                      double* scratch, float* out, float scale) {
  CIT_CHECK_GE(window, 1);
  CIT_CHECK(flat_days >= 0 && flat_days <= window);
  CIT_CHECK_GE(day, window - 1);
  CIT_CHECK_LT(day, panel.num_days());
  CIT_CHECK_GE(num_bands, 0);
  const int64_t m = panel.num_assets();
  const int64_t window_size = m * window;
  const int64_t flat_size = m * flat_days;
  float* flats = out + (1 + num_bands) * window_size;
  // Row k holds the closes of day - window + 1 + k; row window-1 is `day`.
  const double* rows = panel.Row(day - window + 1);
  // values[j*window, (j+1)*window) is one asset's window j: the series,
  // then its bands.
  double* values = scratch;
  double* split_scratch = values + (1 + num_bands) * window;
  for (int64_t i = 0; i < m; ++i) {
    const double anchor = rows[(window - 1) * m + i];
    for (int64_t k = 0; k < window; ++k) {
      values[k] = scale * (rows[k * m + i] / anchor - 1.0);
    }
    if (num_bands > 0) {
      signal::SplitHorizonBandsInto(values, window, num_bands, split_scratch,
                                    values + window);
    }
    for (int64_t j = 0; j <= num_bands; ++j) {
      const double* v = values + j * window;
      float* w = out + j * window_size + i * window;
      for (int64_t k = 0; k < window; ++k) w[k] = static_cast<float>(v[k]);
      std::copy_n(w + window - flat_days, flat_days,
                  flats + j * flat_size + i * flat_days);
    }
  }
}

Tensor NormalizedWindow(const market::PanelView& panel, int64_t day,
                        int64_t window, float scale) {
  Tensor out({panel.num_assets(), 1, window});
  std::vector<double> scratch(FeatureBlockScratchSize(window, 0));
  FeatureBlockInto(panel, day, window, 0, 0, scratch.data(), out.data(),
                   scale);
  return out;
}

Tensor FlatWindow(const market::PanelView& panel, int64_t day,
                  int64_t window, float scale) {
  const int64_t m = panel.num_assets();
  return NormalizedWindow(panel, day, window, scale)
      .Reshape({m, window})
      .Transpose2D()
      .Reshape({window * m});
}

std::vector<Tensor> HorizonBandWindows(const market::PanelView& panel,
                                       int64_t day, int64_t window,
                                       int64_t num_bands, float scale) {
  CIT_CHECK_GE(num_bands, 1);
  const int64_t m = panel.num_assets();
  Tensor block({FeatureBlockSize(m, window, num_bands, 0)});
  std::vector<double> scratch(FeatureBlockScratchSize(window, num_bands));
  FeatureBlockInto(panel, day, window, num_bands, 0, scratch.data(),
                   block.data(), scale);
  std::vector<Tensor> bands;
  bands.reserve(num_bands);
  for (int64_t b = 1; b <= num_bands; ++b) {
    bands.push_back(
        block.Slice(0, b * m * window, m * window).Reshape({m, 1, window}));
  }
  return bands;
}

Tensor OneHot(int64_t index, int64_t n) {
  CIT_CHECK(index >= 0 && index < n);
  Tensor out({n});
  out[index] = 1.0f;
  return out;
}

}  // namespace cit::rl
