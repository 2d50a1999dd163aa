#include "core/actor.h"

#include "common/check.h"
#include "rl/features.h"

namespace cit::core {

HorizonActor::HorizonActor(const CrossInsightConfig& config,
                           int64_t num_assets, int64_t policy_id, Rng& rng)
    : num_policies_(config.num_policies),
      policy_id_(policy_id),
      backbone_(config.backbone, num_assets, config.window,
                config.feature_dim, config.tcn_blocks, config.kernel_size,
                rng),
      score_bound_(static_cast<float>(config.score_bound)),
      head_({config.feature_dim + 1 + config.num_policies,
             config.head_hidden, 1},
            rng),
      log_std_(Var::Param(Tensor::Full({num_assets},
                                       config.init_log_std))) {}

Var HorizonActor::Forward(const Tensor& band_windows,
                          const Tensor& prev) const {
  const int64_t rows = band_windows.dim(0);  // B * m
  CIT_CHECK_EQ(prev.numel(), rows);
  Var features = backbone_.Forward(Var::Constant(band_windows));
  // Per-asset state rows [B*m, f + 1 + n]: the asset's encoded features
  // (already cross-asset-mixed by the attention layer), its previously
  // executed weight, and the policy's one-hot ID. The head is shared
  // across assets (an "identical evaluator"), so the policy learns
  // relational rules rather than memorizing asset identities.
  Tensor id_rows({rows, num_policies_});
  for (int64_t i = 0; i < rows; ++i) {
    id_rows.At({i, policy_id_}) = 1.0f;
  }
  Var state = ag::Concat(
      {features, Var::Constant(prev), Var::Constant(id_rows)},
      /*axis=*/1);
  Var scores = ag::Reshape(head_.Forward(state), {rows});
  return ag::MulScalar(ag::Tanh(ag::MulScalar(scores, 1.0f / score_bound_)),
                       score_bound_);
}

void HorizonActor::CollectParameters(
    const std::string& prefix, std::vector<nn::NamedParam>* out) const {
  backbone_.CollectParameters(prefix + "backbone.", out);
  head_.CollectParameters(prefix + "head.", out);
  out->push_back({prefix + "log_std", log_std_});
}

CrossInsightActor::CrossInsightActor(const CrossInsightConfig& config,
                                     int64_t num_assets, Rng& rng)
    : num_assets_(num_assets),
      num_policies_(config.num_policies),
      backbone_(config.backbone, num_assets, config.window,
                config.feature_dim, config.tcn_blocks, config.kernel_size,
                rng),
      score_bound_(static_cast<float>(config.score_bound)),
      head_({config.feature_dim + config.num_policies,
             config.head_hidden, 1},
            rng),
      log_std_(Var::Param(Tensor::Full({num_assets},
                                       config.init_log_std))) {}

Var CrossInsightActor::Forward(const Tensor& market_windows,
                               const Tensor& pre_decisions) const {
  const int64_t rows = market_windows.dim(0);  // B * m
  const int64_t batch = rows / num_assets_;
  CIT_CHECK_EQ(pre_decisions.numel(), rows * num_policies_);
  Var features = backbone_.Forward(Var::Constant(market_windows));
  // Per-asset state rows [B*m, f + n]: the asset's market features plus
  // the weight each horizon policy pre-assigned to this asset. The shared
  // head fuses the horizon insights per asset.
  Var state = features;
  if (num_policies_ > 0) {
    // Per-request [n*m] -> [m, n] as one permute over the stack,
    // [B, n, m] -> [B, m, n] -> rows [B*m, n], rather than a raw scatter
    // loop: expressed as ops, the rearrangement stays visible to the plan
    // recorder, so compiled replays rebind pre_decisions instead of baking
    // the first call's values. Pure data movement, so each request block
    // carries exactly the values a per-request transpose would.
    Var pre_rows = ag::Reshape(
        ag::Permute(ag::Reshape(Var::Constant(pre_decisions),
                                {batch, num_policies_, num_assets_}),
                    {0, 2, 1}),
        {rows, num_policies_});
    state = ag::Concat({features, pre_rows}, /*axis=*/1);
  }
  Var scores = ag::Reshape(head_.Forward(state), {rows});
  return ag::MulScalar(ag::Tanh(ag::MulScalar(scores, 1.0f / score_bound_)),
                       score_bound_);
}

void CrossInsightActor::CollectParameters(
    const std::string& prefix, std::vector<nn::NamedParam>* out) const {
  backbone_.CollectParameters(prefix + "backbone.", out);
  head_.CollectParameters(prefix + "head.", out);
  out->push_back({prefix + "log_std", log_std_});
}

}  // namespace cit::core
