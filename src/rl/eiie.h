#ifndef CIT_RL_EIIE_H_
#define CIT_RL_EIIE_H_

#include <memory>
#include <string>
#include <vector>

#include "env/backtest.h"
#include "market/source.h"
#include "math/plan.h"
#include "math/rng.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "rl/config.h"
#include "rl/gaussian_policy.h"

namespace cit::rl {

// Ensemble of identical independent evaluators (Jiang et al. 2017). Each
// asset is scored by the same convolutional evaluator over its own price
// window, with the previously held weight as an extra feature (the
// portfolio-vector-memory idea); scores are softmax-normalized into
// weights. Training maximizes the cost-adjusted log return directly over
// random consecutive segments — the original paper's "direct policy
// gradient through the differentiable reward".
class EiieAgent : public env::TradingAgent {
 public:
  struct EiieConfig : RlTrainConfig {
    int64_t conv_channels = 6;
    int64_t segment_len = 8;
  };

  EiieAgent(int64_t num_assets, const EiieConfig& config);

  // Trains on the panel's training split through rl::RunTrainLoop. EIIE
  // keeps no checkpoint, so a config that sets resume_from, or
  // checkpoint_every with checkpoint_path, aborts.
  std::vector<double> Train(const market::PanelView& panel,
                            int64_t curve_points = 20);

  std::string name() const override { return "EIIE"; }
  void Reset() override;
  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t day) override;

 private:
  // Scores for all assets given the window and previous weights (Var [m]).
  ag::Var Scores(const market::PanelView& panel, int64_t day,
                 const ag::Var& prev_weights) const;

  // Same scores with the normalized window already materialized, so
  // DecideWeights can bind it as a varying input of the compiled plan.
  ag::Var ScoresFromWindow(const Tensor& window,
                           const ag::Var& prev_weights) const;

  int64_t num_assets_;
  EiieConfig config_;
  math::Rng rng_;
  std::unique_ptr<nn::CausalConv1d> conv1_;
  std::unique_ptr<nn::CausalConv1d> conv2_;
  std::unique_ptr<nn::Linear> head_;  // shared per-asset scorer
  std::unique_ptr<nn::Adam> opt_;
  std::vector<double> held_;
  // Compiled scorer forward for the deterministic DecideWeights path.
  plan::CompiledFn decide_plan_;
};

}  // namespace cit::rl

#endif  // CIT_RL_EIIE_H_
