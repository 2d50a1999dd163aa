#include "rl/a2c.h"

#include <cmath>

#include "common/check.h"
#include "env/portfolio_env.h"
#include "obs/telemetry.h"
#include "rl/features.h"
#include "rl/returns.h"
#include "rl/train_loop.h"

namespace cit::rl {

A2cAgent::A2cAgent(int64_t num_assets, const RlTrainConfig& config,
                   int64_t extra_state_dim)
    : num_assets_(num_assets),
      extra_state_dim_(extra_state_dim),
      config_(config),
      rng_(config.seed) {
  const int64_t input =
      config_.window * num_assets_ + num_assets_ + extra_state_dim_;
  actor_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{input, config_.hidden, num_assets_}, rng_);
  critic_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{input, config_.hidden, 1}, rng_);
  log_std_ = ag::Var::Param(
      Tensor::Full({num_assets_}, config_.init_log_std));

  std::vector<ag::Var> actor_params = nn::ParamVars(*actor_);
  actor_params.push_back(log_std_);
  actor_opt_ = std::make_unique<nn::Adam>(
      std::move(actor_params), static_cast<float>(config_.lr), 0.9f, 0.999f,
      1e-8f, static_cast<float>(config_.weight_decay));
  critic_opt_ = std::make_unique<nn::Adam>(
      nn::ParamVars(*critic_), static_cast<float>(config_.lr), 0.9f, 0.999f,
      1e-8f, static_cast<float>(config_.weight_decay));
  Reset();
}

void A2cAgent::Reset() {
  held_.assign(num_assets_, 1.0 / static_cast<double>(num_assets_));
}

Tensor A2cAgent::ExtraState(const market::PanelView&, int64_t) const {
  return Tensor();
}

ag::Var A2cAgent::PolicyInput(const market::PanelView& panel, int64_t day,
                              const std::vector<double>& held) const {
  Tensor window = FlatWindow(panel, day, config_.window);
  Tensor prev({num_assets_});
  for (int64_t i = 0; i < num_assets_; ++i) {
    prev[i] = static_cast<float>(held[i]);
  }
  std::vector<ag::Var> parts = {ag::Var::Constant(window),
                                ag::Var::Constant(prev)};
  if (extra_state_dim_ > 0) {
    Tensor extra = ExtraState(panel, day);
    CIT_CHECK_EQ(extra.numel(), extra_state_dim_);
    parts.push_back(ag::Var::Constant(extra));
  }
  return ag::Concat(parts, /*axis=*/0);
}

std::vector<double> A2cAgent::Train(const market::PanelView& panel,
                                    int64_t curve_points) {
  CIT_CHECK_GE(config_.rollout_len, 1);
  CIT_CHECK_GT(panel.train_end(), config_.window + config_.rollout_len + 2);
  env::EnvConfig env_config;
  env_config.window = config_.window;
  env_config.transaction_cost = config_.transaction_cost;
  env_config.end_day = panel.train_end() - 1;
  env::PortfolioEnv env(panel, env_config);
  // Rollouts start at a random day in [lo, hi).
  const int64_t lo = env.earliest_start();
  const int64_t hi = env.end_day() - config_.rollout_len - 1;

  auto update = [&](int64_t step) -> double {
    std::vector<ag::Var> log_probs;
    std::vector<ag::Var> values;
    std::vector<ag::Var> entropies;
    std::vector<double> rewards;
    std::vector<double> targets;
    CollectRollout(config_.seed, step, [&](math::Rng& rng) {
      env.ResetAt(lo + rng.UniformInt(std::max<int64_t>(1, hi - lo)));
      std::vector<double> held(num_assets_,
                               1.0 / static_cast<double>(num_assets_));
      for (int64_t t = 0; t < config_.rollout_len && !env.done(); ++t) {
        ag::Var input = PolicyInput(panel, env.current_day(), held);
        ag::Var mean = actor_->Forward(input);
        GaussianAction action = SampleGaussianSimplex(mean, log_std_, &rng);
        values.push_back(critic_->Forward(input));
        log_probs.push_back(action.log_prob);
        entropies.push_back(GaussianEntropy(log_std_));
        const env::StepResult r = env.Step(action.weights);
        rewards.push_back(r.reward * config_.reward_scale);
        held = env.previous_weights();
      }
      // Bootstrap value of the final state: a detached scalar, so the
      // critic forward runs graph-free.
      double bootstrap = 0.0;
      if (!env.done()) {
        ag::NoGradGuard no_grad;
        ag::Var input = PolicyInput(panel, env.current_day(), held);
        bootstrap = critic_->Forward(input).value().Item();
      }
      targets = DiscountedReturns(rewards, config_.gamma, bootstrap);
    });

    // Losses: policy gradient with advantage (target - V), value MSE.
    {
    CIT_OBS_SPAN("train.update_losses");
    actor_opt_->ZeroGrad();
    critic_opt_->ZeroGrad();
    ag::Var policy_loss = ag::Var::Constant(Tensor::Scalar(0.0f));
    ag::Var value_loss = ag::Var::Constant(Tensor::Scalar(0.0f));
    for (size_t t = 0; t < rewards.size(); ++t) {
      const float advantage =
          static_cast<float>(targets[t]) - values[t].value().Item();
      policy_loss =
          ag::Sub(policy_loss, ag::MulScalar(log_probs[t], advantage));
      policy_loss = ag::Sub(
          policy_loss,
          ag::MulScalar(entropies[t],
                        static_cast<float>(config_.entropy_coef)));
      ag::Var err =
          ag::AddScalar(values[t], -static_cast<float>(targets[t]));
      value_loss = ag::Add(value_loss, ag::Square(err));
    }
    const float inv_len = 1.0f / static_cast<float>(rewards.size());
    ag::Var total = ag::Add(ag::MulScalar(policy_loss, inv_len),
                            ag::MulScalar(value_loss, inv_len));
    total.Backward();
    CIT_OBS_GAUGE("train.actor_loss", policy_loss.value().Item());
    CIT_OBS_GAUGE("train.critic_loss", value_loss.value().Item());
    [[maybe_unused]] const float actor_gn = actor_opt_->ClipGradNorm(5.0f);
    [[maybe_unused]] const float critic_gn = critic_opt_->ClipGradNorm(5.0f);
    CIT_OBS_GAUGE("train.actor_grad_norm", actor_gn);
    CIT_OBS_GAUGE("train.critic_grad_norm", critic_gn);
    actor_opt_->Step();
    critic_opt_->Step();
    }

    double reward_sum = 0.0;
    for (double r : rewards) reward_sum += r;
    return reward_sum / static_cast<double>(rewards.size());
  };

  std::vector<double> curve = RunTrainLoop(
      config_, curve_points, &progress_,
      {.update = update,
       .load = [this](const std::string& p) { return LoadCheckpoint(p); },
       .save = [this](const std::string& p) { return SaveCheckpoint(p); }});
  Reset();
  return curve;
}

nn::ModuleGroup A2cAgent::AllModules() const {
  nn::ModuleGroup group;
  group.Add("actor.", actor_.get());
  group.Add("critic.", critic_.get());
  group.AddVar("log_std", log_std_);
  return group;
}

TrainerCheckpointParts A2cAgent::CheckpointParts() const {
  TrainerCheckpointParts parts;
  parts.meta.trainer = name();
  parts.meta.num_assets = num_assets_;
  parts.meta.seed = config_.seed;
  parts.meta.arch_tag = config_.hidden;
  parts.modules = AllModules();
  parts.opt_actor = actor_opt_.get();
  parts.opt_critic = critic_opt_.get();
  // Saving only reads through it; LoadCheckpoint, which writes, is
  // non-const.
  parts.progress = const_cast<TrainProgress*>(&progress_);
  return parts;
}

Status A2cAgent::SaveCheckpoint(const std::string& path) const {
  return SaveTrainerCheckpoint(CheckpointParts(), path);
}

Status A2cAgent::LoadCheckpoint(const std::string& path) {
  return LoadTrainerCheckpoint(CheckpointParts(), path);
}

std::vector<double> A2cAgent::DecideWeights(const market::PanelView& panel,
                                            int64_t day) {
  ag::NoGradGuard no_grad;
  // The state parts are built here (not inside the compiled forward) so
  // the plan binds them as varying inputs; SARL's movement predictor runs
  // interpreted as part of ExtraState, outside the compiled region.
  Tensor window = FlatWindow(panel, day, config_.window);
  Tensor prev({num_assets_});
  for (int64_t i = 0; i < num_assets_; ++i) {
    prev[i] = static_cast<float>(held_[i]);
  }
  auto forward = [&](const Tensor* extra) {
    std::vector<ag::Var> parts = {ag::Var::Constant(window),
                                  ag::Var::Constant(prev)};
    if (extra != nullptr) parts.push_back(ag::Var::Constant(*extra));
    return actor_->Forward(ag::Concat(parts, /*axis=*/0));
  };
  Tensor mean;
  if (extra_state_dim_ > 0) {
    Tensor extra = ExtraState(panel, day);
    CIT_CHECK_EQ(extra.numel(), extra_state_dim_);
    mean = decide_plan_.Run({&window, &prev, &extra},
                            [&] { return forward(&extra); });
  } else {
    mean = decide_plan_.Run({&window, &prev},
                            [&] { return forward(nullptr); });
  }
  // Deterministic action: softmax of the Gaussian mean (what
  // SampleGaussianSimplex returns for rng == nullptr).
  held_ = SoftmaxWeights(mean);
  return held_;
}

}  // namespace cit::rl
