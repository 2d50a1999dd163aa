#ifndef CIT_RL_FEATURES_H_
#define CIT_RL_FEATURES_H_

#include <cstdint>
#include <vector>

#include "market/source.h"
#include "math/tensor.h"

namespace cit::rl {

using math::Tensor;

// One day's feature block, built in one pass. With m assets, window z,
// n bands and c flat days, the block holds 1 + n windows of m*z floats,
// then 1 + n flats of m*c floats:
//   window 0       the normalized trailing price window ending at `day`,
//                    v(i, k) = scale * (p_i(day - z + 1 + k) / p_i(day) - 1),
//                  in NormalizedWindow's [m, 1, z] layout;
//   window 1 + b   its horizon band b (HorizonBandWindows' layout);
//   flat j         window j's trailing c days of every asset, asset-major
//                  ([c * m], the critic's market-state input).
// FeatureBlockSize gives its floats, FeatureBlockScratchSize the doubles
// of scratch FeatureBlockInto needs.
int64_t FeatureBlockSize(int64_t num_assets, int64_t window,
                         int64_t num_bands, int64_t flat_days);
int64_t FeatureBlockScratchSize(int64_t window, int64_t num_bands);

// Writes the block for `day` to `out`. Prices are read through the panel's
// row pointer, and nothing is allocated. Requires window >= 1,
// 0 <= flat_days <= window and window - 1 <= day < num_days.
void FeatureBlockInto(const market::PanelView& panel, int64_t day,
                      int64_t window, int64_t num_bands, int64_t flat_days,
                      double* scratch, float* out, float scale = 10.0f);

// The normalized window as [num_assets, 1, window] (assets = conv batch,
// 1 channel), the layout consumed by Tcn/Gru backbones.
Tensor NormalizedWindow(const market::PanelView& panel, int64_t day,
                        int64_t window, float scale = 10.0f);

// Same window flattened to [window * num_assets] (time-major) for MLP
// baselines.
Tensor FlatWindow(const market::PanelView& panel, int64_t day,
                  int64_t window, float scale = 10.0f);

// Splits the normalized window of every asset into `num_bands` horizon
// sub-series with the Haar DWT (paper Sec. IV-A). Returns num_bands tensors
// of shape [num_assets, 1, window]; element 0 is the longest horizon.
// The bands of each asset sum to its original normalized window.
std::vector<Tensor> HorizonBandWindows(const market::PanelView& panel,
                                       int64_t day, int64_t window,
                                       int64_t num_bands,
                                       float scale = 10.0f);

// One-hot encoding of a policy id as a [n] tensor.
Tensor OneHot(int64_t index, int64_t n);

}  // namespace cit::rl

#endif  // CIT_RL_FEATURES_H_
