#ifndef CIT_RL_PPO_H_
#define CIT_RL_PPO_H_

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
#include "rl/rollout.h"

namespace cit::rl {

// Proximal policy optimization baseline (Schulman et al. 2017): clipped
// surrogate objective with GAE advantages over rollout segments; same
// state/action interface as A2C.
class PpoAgent : public env::TradingAgent {
 public:
  struct PpoConfig : RlTrainConfig {
    double clip = 0.2;
    int64_t epochs = 4;
  };

  PpoAgent(int64_t num_assets, const PpoConfig& config);

  std::vector<double> Train(const market::PanelView& panel,
                            int64_t curve_points = 20);

  std::string name() const override { return "PPO"; }
  void Reset() override;
  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t day) override;

  // Full crash-safe training state (weights + Adam states + progress),
  // written atomically; driven by config.checkpoint_every / resume_from. A
  // resumed run is bitwise identical to the uninterrupted one. Loading is
  // transactional: on any error the agent is unchanged.
  Status SaveCheckpoint(const std::string& path) const;
  Status LoadCheckpoint(const std::string& path);

 private:
  // Takes `held` explicitly (rather than reading held_) so parallel
  // rollout slots can pass their own copies.
  Tensor StateTensor(const market::PanelView& panel, int64_t day,
                     const std::vector<double>& held) const;

  // Actor + critic + log_std under stable names — the checkpoint parameter
  // set.
  nn::ModuleGroup AllModules() const;

  int64_t num_assets_;
  PpoConfig config_;
  math::Rng rng_;
  std::unique_ptr<nn::Mlp> actor_;
  std::unique_ptr<nn::Mlp> critic_;
  ag::Var log_std_;
  std::unique_ptr<nn::Adam> actor_opt_;
  std::unique_ptr<nn::Adam> critic_opt_;
  std::vector<double> held_;
  TrainProgress progress_;  // in-flight training progress (checkpointed)
  // Compiled actor forward for the deterministic DecideWeights path.
  plan::CompiledFn decide_plan_;
};

}  // namespace cit::rl

#endif  // CIT_RL_PPO_H_
