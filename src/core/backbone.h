#ifndef CIT_CORE_BACKBONE_H_
#define CIT_CORE_BACKBONE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/gru.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace cit::core {

using ag::Var;
using math::Rng;
using math::Tensor;

// The actor feature extractor (paper Fig. 3(b)): a temporal encoder (TCN or
// GRU) over each asset's horizon sub-series, optionally followed by the
// spatial attention layer with residual mixing, reduced to per-asset
// features at the last time step. Variants implement the Fig. 7 ablation.
class ActorBackbone : public nn::Module {
 public:
  ActorBackbone(BackboneKind kind, int64_t num_assets, int64_t window,
                int64_t feature_dim, int64_t tcn_blocks, int64_t kernel_size,
                Rng& rng);

  // x stacks B request windows along axis 0 ([B * num_assets, 1, window]);
  // the result stacks their per-asset features the same way
  // ([B * num_assets, f]). B is read from x's leading dimension. The
  // temporal encoders are per-row, so they run once over the whole stack;
  // spatial attention mixes across the asset axis, so it runs per request
  // block (contiguous axis-0 slices — O(1) views). Every output row is
  // bitwise identical to a batch of one on that request's own window, and a
  // batch of one records no slice or concat around the attention.
  Var Forward(const Var& x) const;

  int64_t feature_dim() const { return feature_dim_; }
  BackboneKind kind() const { return kind_; }

  void CollectParameters(const std::string& prefix,
                         std::vector<nn::NamedParam>* out) const override;

 private:
  BackboneKind kind_;
  int64_t num_assets_;
  int64_t window_;
  int64_t feature_dim_;
  std::unique_ptr<nn::Tcn> tcn_;
  std::unique_ptr<nn::Gru> gru_;
  std::unique_ptr<nn::SpatialAttention> attention_;
  std::unique_ptr<nn::Mlp> mlp_;
};

}  // namespace cit::core

#endif  // CIT_CORE_BACKBONE_H_
