#ifndef CIT_CORE_ACTOR_H_
#define CIT_CORE_ACTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/backbone.h"
#include "core/config.h"
#include "nn/layers.h"

namespace cit::core {

// A horizon-specific policy (paper Fig. 3(a)): its backbone encodes the
// policy's own DWT band of the price window; the encoded per-asset features
// are concatenated with the policy's one-hot ID (diversity) and the action
// executed at the previous time step (smoothness), then mapped by an MLP
// head to the Gaussian mean over pre-softmax action scores.
class HorizonActor : public nn::Module {
 public:
  HorizonActor(const CrossInsightConfig& config, int64_t num_assets,
               int64_t policy_id, Rng& rng);

  // band_windows stacks B requests' windows of this policy's horizon
  // sub-series along axis 0 ([B * m, 1, z]); prev their previously executed
  // weights of this policy ([B * m, 1]). Returns the stacked Gaussian means
  // over R^m ([B * m]); row block b depends only on request b. The caller
  // passes both tensors to plan::CompiledFn::Run as varying inputs, so
  // replays rebind them instead of baking the first call's values.
  Var Forward(const Tensor& band_windows, const Tensor& prev) const;

  const Var& log_std() const { return log_std_; }
  int64_t policy_id() const { return policy_id_; }

  void CollectParameters(const std::string& prefix,
                         std::vector<nn::NamedParam>* out) const override;

 private:
  int64_t num_policies_;
  int64_t policy_id_;
  ActorBackbone backbone_;
  float score_bound_;
  nn::Mlp head_;
  Var log_std_;
};

// The cross-insight policy (paper Sec. IV-B1): makes the final trade
// decision from the horizon policies' pre-decisions plus market features
// extracted from the original (un-decomposed) price series.
class CrossInsightActor : public nn::Module {
 public:
  CrossInsightActor(const CrossInsightConfig& config, int64_t num_assets,
                    Rng& rng);

  // market_windows: axis-0-stacked windows of the original normalized
  // prices ([B * m, 1, z]); pre_decisions: back-to-back per-request blocks
  // of the n policies' concatenated pre-decision weights ([B * n * m];
  // empty when num_policies == 0, the A2C degenerate mode). Returns the
  // stacked final means ([B * m]), row block b depending only on request b.
  Var Forward(const Tensor& market_windows,
              const Tensor& pre_decisions) const;

  const Var& log_std() const { return log_std_; }

  void CollectParameters(const std::string& prefix,
                         std::vector<nn::NamedParam>* out) const override;

 private:
  int64_t num_assets_;
  int64_t num_policies_;
  ActorBackbone backbone_;
  float score_bound_;
  nn::Mlp head_;
  Var log_std_;
};

}  // namespace cit::core

#endif  // CIT_CORE_ACTOR_H_
