#include "rl/sarl.h"

#include <cmath>

#include "common/check.h"
#include "rl/features.h"

namespace cit::rl {

SarlAgent::SarlAgent(int64_t num_assets, const RlTrainConfig& config)
    : A2cAgent(num_assets, config, /*extra_state_dim=*/num_assets) {
  predictor_ = std::make_unique<nn::Linear>(config.window, 1, rng_);
  predictor_opt_ = std::make_unique<nn::Adam>(
      nn::ParamVars(*predictor_), 1e-2f);
  predictor_steps_ = std::max<int64_t>(50, config.train_steps / 2);
}

Tensor SarlAgent::PredictMovement(const market::PanelView& panel,
                                  int64_t day) const {
  // Shared logistic predictor applied to every asset's normalized window.
  // Only the probabilities leave this function (they re-enter the policy
  // input as a constant), so the forward is graph-free even mid-rollout.
  ag::NoGradGuard no_grad;
  Tensor window = NormalizedWindow(panel, day, config_.window);  // [m,1,z]
  ag::Var flat = ag::Var::Constant(
      window.Reshape({num_assets_, config_.window}));
  ag::Var probs = ag::Sigmoid(predictor_->Forward(flat));  // [m, 1]
  return probs.value().Reshape({num_assets_});
}

Tensor SarlAgent::ExtraState(const market::PanelView& panel,
                             int64_t day) const {
  return PredictMovement(panel, day);
}

nn::ModuleGroup SarlAgent::AllModules() const {
  nn::ModuleGroup group = A2cAgent::AllModules();
  group.Add("predictor.", predictor_.get());
  return group;
}

void SarlAgent::TrainPredictor(const market::PanelView& panel) {
  const int64_t lo = config_.window;
  const int64_t hi = panel.train_end() - 2;
  CIT_CHECK_GT(hi, lo);
  for (int64_t step = 0; step < predictor_steps_; ++step) {
    const int64_t day = lo + rng_.UniformInt(hi - lo);
    Tensor window = NormalizedWindow(panel, day, config_.window);
    ag::Var flat = ag::Var::Constant(
        window.Reshape({num_assets_, config_.window}));
    ag::Var probs = ag::Sigmoid(predictor_->Forward(flat));  // [m,1]
    // Binary cross-entropy against next-day up/down moves.
    Tensor labels({num_assets_, 1});
    for (int64_t i = 0; i < num_assets_; ++i) {
      labels.At({i, 0}) =
          panel.PriceRelative(day + 1, i) > 1.0 ? 1.0f : 0.0f;
    }
    ag::Var y = ag::Var::Constant(labels);
    ag::Var eps_p = ag::Clamp(probs, 1e-5f, 1.0f - 1e-5f);
    ag::Var bce = ag::Neg(ag::Mean(ag::Add(
        ag::Mul(y, ag::Log(eps_p)),
        ag::Mul(ag::AddScalar(ag::Neg(y), 1.0f),
                ag::Log(ag::AddScalar(ag::Neg(eps_p), 1.0f))))));
    predictor_opt_->ZeroGrad();
    bce.Backward();
    predictor_opt_->Step();
  }
}

std::vector<double> SarlAgent::Train(const market::PanelView& panel,
                                     int64_t curve_points) {
  TrainPredictor(panel);
  return A2cAgent::Train(panel, curve_points);
}

}  // namespace cit::rl
