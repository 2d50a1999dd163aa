#include "core/backbone.h"

#include "common/check.h"
#include "obs/telemetry.h"

namespace cit::core {

const char* BackboneKindName(BackboneKind kind) {
  switch (kind) {
    case BackboneKind::kTcnAttention:
      return "ours";
    case BackboneKind::kGruAttention:
      return "ours(GRU)";
    case BackboneKind::kGru:
      return "GRU";
    case BackboneKind::kMlp:
      return "MLP";
  }
  return "?";
}

const char* CreditModeName(CreditMode mode) {
  switch (mode) {
    case CreditMode::kCounterfactual:
      return "counterfactual";
    case CreditMode::kSharedQ:
      return "shared-Q";
    case CreditMode::kDecCritic:
      return "dec-critic";
  }
  return "?";
}

ActorBackbone::ActorBackbone(BackboneKind kind, int64_t num_assets,
                             int64_t window, int64_t feature_dim,
                             int64_t tcn_blocks, int64_t kernel_size,
                             Rng& rng)
    : kind_(kind),
      num_assets_(num_assets),
      window_(window),
      feature_dim_(feature_dim) {
  switch (kind_) {
    case BackboneKind::kTcnAttention:
      tcn_ = std::make_unique<nn::Tcn>(1, feature_dim, tcn_blocks,
                                       kernel_size, rng);
      attention_ = std::make_unique<nn::SpatialAttention>(
          num_assets, feature_dim, window, rng);
      break;
    case BackboneKind::kGruAttention:
      gru_ = std::make_unique<nn::Gru>(1, feature_dim, rng);
      attention_ = std::make_unique<nn::SpatialAttention>(
          num_assets, feature_dim, window, rng);
      break;
    case BackboneKind::kGru:
      gru_ = std::make_unique<nn::Gru>(1, feature_dim, rng);
      break;
    case BackboneKind::kMlp:
      mlp_ = std::make_unique<nn::Mlp>(
          std::vector<int64_t>{num_assets * window, num_assets * feature_dim,
                               num_assets * feature_dim},
          rng);
      break;
  }
}

Var ActorBackbone::Forward(const Var& x) const {
  // The forward-pass side of the env-step vs forward split (rollout.slot
  // minus env.step time is dominated by these calls).
  CIT_OBS_SPAN("backbone.forward");
  CIT_OBS_COUNT("backbone.forward_calls", 1);
  CIT_CHECK_EQ(x.value().ndim(), 3);
  CIT_CHECK_EQ(x.value().dim(0) % num_assets_, 0);
  CIT_CHECK_EQ(x.value().dim(2), window_);
  const int64_t batch = x.value().dim(0) / num_assets_;
  switch (kind_) {
    case BackboneKind::kTcnAttention:
    case BackboneKind::kGruAttention: {
      // Conv taps and GRU steps read one axis-0 row at a time, so the
      // stacked encode is row-for-row the same arithmetic as per-request
      // encodes — one kernel launch instead of `batch`.
      Var h = kind_ == BackboneKind::kTcnAttention
                  ? tcn_->Forward(x)
                  : gru_->ForwardSequence(x);           // [B*m, f, z]
      if (batch == 1) {
        h = attention_->Forward(h);
      } else {
        std::vector<Var> blocks;
        blocks.reserve(static_cast<size_t>(batch));
        for (int64_t b = 0; b < batch; ++b) {
          Var hb = ag::Slice(h, /*axis=*/0, b * num_assets_, num_assets_);
          blocks.push_back(attention_->Forward(hb));
        }
        h = ag::Concat(blocks, /*axis=*/0);             // [B*m, f, z]
      }
      return ag::Reshape(ag::Slice(h, /*axis=*/2, window_ - 1, 1),
                         {batch * num_assets_, feature_dim_});
    }
    case BackboneKind::kGru:
      return gru_->ForwardLast(x);                      // [B*m, f]
    case BackboneKind::kMlp: {
      // The MLP flattens per request, so the batch maps onto the Linear
      // batch dimension directly.
      Var flat = ag::Reshape(x, {batch, num_assets_ * window_});
      Var h = mlp_->Forward(flat);                      // [B, m*f]
      return ag::Reshape(h, {batch * num_assets_, feature_dim_});
    }
  }
  CIT_CHECK(false);
  return Var();
}

void ActorBackbone::CollectParameters(
    const std::string& prefix, std::vector<nn::NamedParam>* out) const {
  if (tcn_) tcn_->CollectParameters(prefix + "tcn.", out);
  if (gru_) gru_->CollectParameters(prefix + "gru.", out);
  if (attention_) attention_->CollectParameters(prefix + "attn.", out);
  if (mlp_) mlp_->CollectParameters(prefix + "mlp.", out);
}

}  // namespace cit::core
