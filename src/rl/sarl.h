#ifndef CIT_RL_SARL_H_
#define CIT_RL_SARL_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "rl/a2c.h"

namespace cit::rl {

// State-augmented RL baseline in the spirit of SARL (Ye et al. 2020): the
// trading policy's state is augmented with per-asset movement predictions
// from an auxiliary encoder. The paper's SARL learns the encoder from price
// and news; with no news feed available, our encoder is a logistic
// up/down-movement predictor pre-trained on the price windows of the
// training split (DESIGN.md documents the substitution). The policy itself
// is the same actor-critic as A2C over the augmented state.
class SarlAgent : public A2cAgent {
 public:
  SarlAgent(int64_t num_assets, const RlTrainConfig& config);

  std::string name() const override { return "SARL"; }

  // Pre-trains the movement predictor, then runs A2C training.
  std::vector<double> Train(const market::PanelView& panel,
                            int64_t curve_points = 20);

  // Exposed for tests: predicted up-probabilities for all assets at `day`.
  Tensor PredictMovement(const market::PanelView& panel, int64_t day) const;

 protected:
  Tensor ExtraState(const market::PanelView& panel,
                    int64_t day) const override;
  // A2C's checkpoint set plus the movement predictor.
  nn::ModuleGroup AllModules() const override;

 private:
  void TrainPredictor(const market::PanelView& panel);

  std::unique_ptr<nn::Linear> predictor_;  // [window] -> 1 logit, shared
  std::unique_ptr<nn::Adam> predictor_opt_;
  int64_t predictor_steps_;
};

}  // namespace cit::rl

#endif  // CIT_RL_SARL_H_
