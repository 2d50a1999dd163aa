#ifndef CIT_RL_A2C_H_
#define CIT_RL_A2C_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "env/backtest.h"
#include "market/source.h"
#include "math/plan.h"
#include "math/rng.h"
#include "nn/checkpoint.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "rl/config.h"
#include "rl/gaussian_policy.h"
#include "rl/train_loop.h"

namespace cit::rl {

// Advantage actor-critic baseline (Mnih et al. 2016 style, synchronous):
// a Gaussian policy over pre-softmax scores with an MLP backbone on the
// flattened price window plus the previously held weights, and a state-value
// critic trained on n-step discounted returns. This is the "A2C" row of the
// paper's Tables III and IV.
class A2cAgent : public env::TradingAgent {
 public:
  A2cAgent(int64_t num_assets, const RlTrainConfig& config)
      : A2cAgent(num_assets, config, /*extra_state_dim=*/0) {}

  // Trains on the panel's training split (days < train_end). Returns the
  // average training reward per rollout (a learning-curve sample per
  // `curve_points` evenly spaced checkpoints).
  std::vector<double> Train(const market::PanelView& panel,
                            int64_t curve_points = 20);

  std::string name() const override { return "A2C"; }
  void Reset() override;
  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t day) override;

  // Full crash-safe training state (weights + Adam states + progress),
  // written atomically; driven by config.checkpoint_every / resume_from. A
  // resumed run is bitwise identical to the uninterrupted one. Loading is
  // transactional: on any error the agent is unchanged.
  Status SaveCheckpoint(const std::string& path) const;
  Status LoadCheckpoint(const std::string& path);

 protected:
  // Subclasses (e.g. SARL) may extend the state with `extra_state_dim`
  // additional features produced by ExtraState().
  A2cAgent(int64_t num_assets, const RlTrainConfig& config,
           int64_t extra_state_dim);

  // Extra state features appended to the flattened window + held weights;
  // must return a tensor of shape [extra_state_dim].
  virtual Tensor ExtraState(const market::PanelView& panel,
                            int64_t day) const;

  // Builds the state input from the flattened window, the given previously
  // held weights, and ExtraState(). Takes `held` explicitly: a training
  // rollout passes its own holdings, not the decide path's held_.
  ag::Var PolicyInput(const market::PanelView& panel, int64_t day,
                      const std::vector<double>& held) const;

  // Actor + critic + log_std under stable names — the checkpoint parameter
  // set.
  nn::ModuleGroup AllModules() const;
  // Everything SaveCheckpoint writes and LoadCheckpoint restores.
  TrainerCheckpointParts CheckpointParts() const;

  int64_t num_assets_;
  int64_t extra_state_dim_;
  RlTrainConfig config_;
  math::Rng rng_;
  std::unique_ptr<nn::Mlp> actor_;
  std::unique_ptr<nn::Mlp> critic_;
  ag::Var log_std_;
  std::unique_ptr<nn::Adam> actor_opt_;
  std::unique_ptr<nn::Adam> critic_opt_;
  std::vector<double> held_;  // previous weights (part of the state)
  TrainProgress progress_;    // in-flight training progress (checkpointed)
  // Compiled actor forward for the deterministic DecideWeights path; the
  // plan re-records itself after any parameter mutation (training steps,
  // checkpoint restore) via per-parameter version snapshots.
  plan::CompiledFn decide_plan_;
};

}  // namespace cit::rl

#endif  // CIT_RL_A2C_H_
