#ifndef CIT_RL_DDPG_H_
#define CIT_RL_DDPG_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "env/backtest.h"
#include "env/portfolio_env.h"
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

// Deep deterministic policy gradient baseline (Lillicrap et al. 2016).
// The deterministic actor outputs pre-softmax scores mapped onto the
// simplex; exploration adds Gaussian noise to the scores. The critic is
// Q(s, a) over the concatenated state and executed weights, trained from a
// uniform replay buffer with soft-updated target networks.
class DdpgAgent : public env::TradingAgent {
 public:
  struct DdpgConfig : RlTrainConfig {
    int64_t replay_capacity = 4096;
    int64_t batch_size = 32;
    int64_t warmup_steps = 64;
    double tau = 0.01;            // target-network soft update rate
    double explore_noise = 0.3;   // stddev of score-space noise
  };

  DdpgAgent(int64_t num_assets, const DdpgConfig& config);

  std::vector<double> Train(const market::PanelView& panel,
                            int64_t curve_points = 20);

  std::string name() const override { return "DDPG"; }
  void Reset() override;
  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t day) override;

  // Full crash-safe training state, written atomically; driven by
  // config.checkpoint_every / resume_from. On top of the shared sections
  // (weights incl. target nets, both Adam states, progress) DDPG
  // checkpoints its sequential RNG, the replay buffer, the env cursor, and
  // the held weights, so a resumed run is bitwise identical to the
  // uninterrupted one. Loading is transactional: on any error the agent is
  // unchanged.
  Status SaveCheckpoint(const std::string& path) const;
  Status LoadCheckpoint(const std::string& path);

 private:
  struct Transition {
    Tensor state;
    Tensor action;  // executed weights [m]
    double reward;
    Tensor next_state;
  };

  Tensor StateTensor(const market::PanelView& panel, int64_t day) const;
  void UpdateFromReplay();

  // All four networks under stable names — the checkpoint parameter set.
  // Target networks are included: soft updates make them distinct state.
  nn::ModuleGroup AllModules() const;
  nn::CheckpointMeta Meta() const;

  int64_t num_assets_;
  DdpgConfig config_;
  math::Rng rng_;
  std::unique_ptr<nn::Mlp> actor_;
  std::unique_ptr<nn::Mlp> critic_;
  std::unique_ptr<nn::Mlp> target_actor_;
  std::unique_ptr<nn::Mlp> target_critic_;
  std::unique_ptr<nn::Adam> actor_opt_;
  std::unique_ptr<nn::Adam> critic_opt_;
  std::vector<Transition> replay_;
  int64_t replay_next_ = 0;
  std::vector<double> held_;
  TrainProgress progress_;  // in-flight training progress (checkpointed)
  // Where Train's env stood after the last completed update; restored on
  // resume so the episode continues mid-stream.
  env::PortfolioEnv::EnvCursor env_cursor_;
  bool has_env_cursor_ = false;
  // Compiled actor forward for the deterministic DecideWeights path.
  plan::CompiledFn decide_plan_;
};

}  // namespace cit::rl

#endif  // CIT_RL_DDPG_H_
