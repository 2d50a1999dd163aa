#include "rl/ppo.h"

#include <cmath>

#include "common/check.h"
#include "env/portfolio_env.h"
#include "obs/telemetry.h"
#include "rl/features.h"
#include "rl/returns.h"
#include "rl/train_loop.h"

namespace cit::rl {

PpoAgent::PpoAgent(int64_t num_assets, const PpoConfig& config)
    : num_assets_(num_assets), config_(config), rng_(config.seed) {
  const int64_t input = config_.window * num_assets_ + num_assets_;
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

void PpoAgent::Reset() {
  held_.assign(num_assets_, 1.0 / static_cast<double>(num_assets_));
}

Tensor PpoAgent::StateTensor(const market::PanelView& panel, int64_t day,
                             const std::vector<double>& held) const {
  Tensor window = FlatWindow(panel, day, config_.window);
  Tensor state({config_.window * num_assets_ + num_assets_});
  for (int64_t i = 0; i < window.numel(); ++i) state[i] = window[i];
  for (int64_t i = 0; i < num_assets_; ++i) {
    state[window.numel() + i] = static_cast<float>(held[i]);
  }
  return state;
}

std::vector<double> PpoAgent::Train(const market::PanelView& panel,
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
    // The old policy's rollout statistics, frozen as plain numbers.
    std::vector<Tensor> states;
    std::vector<Tensor> raw_actions;
    std::vector<double> old_log_probs;
    std::vector<double> rewards;
    std::vector<double> adv;
    std::vector<double> targets;
    CollectRollout(config_.seed, step, [&](math::Rng& rng) {
      // The surrogate epochs rebuild the graph from the frozen statistics,
      // so the entire collection pass is graph-free.
      ag::NoGradGuard no_grad;
      env.ResetAt(lo + rng.UniformInt(std::max<int64_t>(1, hi - lo)));
      std::vector<double> held(num_assets_,
                               1.0 / static_cast<double>(num_assets_));
      std::vector<double> values;
      for (int64_t t = 0; t < config_.rollout_len && !env.done(); ++t) {
        Tensor state = StateTensor(panel, env.current_day(), held);
        ag::Var input = ag::Var::Constant(state);
        ag::Var mean = actor_->Forward(input);
        GaussianAction action = SampleGaussianSimplex(mean, log_std_, &rng);
        values.push_back(critic_->Forward(input).value().Item());
        states.push_back(std::move(state));
        raw_actions.push_back(action.raw);
        old_log_probs.push_back(action.log_prob.value().Item());
        const env::StepResult r = env.Step(action.weights);
        rewards.push_back(r.reward * config_.reward_scale);
        held = env.previous_weights();
      }
      double bootstrap = 0.0;
      if (!env.done()) {
        bootstrap =
            critic_
                ->Forward(ag::Var::Constant(
                    StateTensor(panel, env.current_day(), held)))
                .value()
                .Item();
      }
      values.push_back(bootstrap);
      adv = GaeAdvantages(rewards, values, config_.gamma, 0.95);
      targets.resize(adv.size());
      for (size_t t = 0; t < adv.size(); ++t) {
        targets[t] = adv[t] + values[t];
      }
    });

    // Clipped-surrogate epochs over the rollout, one optimizer step each.
    const float inv_len = 1.0f / static_cast<float>(states.size());
    for (int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
      CIT_OBS_SPAN("train.update_epoch");
      actor_opt_->ZeroGrad();
      critic_opt_->ZeroGrad();
      ag::Var loss = ag::Var::Constant(Tensor::Scalar(0.0f));
      for (size_t t = 0; t < states.size(); ++t) {
        ag::Var input = ag::Var::Constant(states[t]);
        ag::Var mean = actor_->Forward(input);
        ag::Var logp = GaussianLogProb(mean, log_std_, raw_actions[t]);
        ag::Var ratio = ag::Exp(
            ag::AddScalar(logp, -static_cast<float>(old_log_probs[t])));
        const float a = static_cast<float>(adv[t]);
        ag::Var surr1 = ag::MulScalar(ratio, a);
        ag::Var surr2 = ag::MulScalar(
            ag::Clamp(ratio, 1.0f - static_cast<float>(config_.clip),
                      1.0f + static_cast<float>(config_.clip)),
            a);
        loss = ag::Sub(loss, ag::Min(surr1, surr2));
        loss = ag::Sub(
            loss, ag::MulScalar(GaussianEntropy(log_std_),
                                static_cast<float>(config_.entropy_coef)));
        ag::Var v = critic_->Forward(input);
        ag::Var err = ag::AddScalar(v, -static_cast<float>(targets[t]));
        loss = ag::Add(loss, ag::MulScalar(ag::Square(err), 0.5f));
      }
      loss = ag::MulScalar(loss, inv_len);
      loss.Backward();
      CIT_OBS_GAUGE("train.loss", loss.value().Item());
      [[maybe_unused]] const float actor_gn = actor_opt_->ClipGradNorm(5.0f);
      [[maybe_unused]] const float critic_gn =
          critic_opt_->ClipGradNorm(5.0f);
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

nn::ModuleGroup PpoAgent::AllModules() const {
  nn::ModuleGroup group;
  group.Add("actor.", actor_.get());
  group.Add("critic.", critic_.get());
  group.AddVar("log_std", log_std_);
  return group;
}

TrainerCheckpointParts PpoAgent::CheckpointParts() const {
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

Status PpoAgent::SaveCheckpoint(const std::string& path) const {
  return SaveTrainerCheckpoint(CheckpointParts(), path);
}

Status PpoAgent::LoadCheckpoint(const std::string& path) {
  return LoadTrainerCheckpoint(CheckpointParts(), path);
}

std::vector<double> PpoAgent::DecideWeights(const market::PanelView& panel,
                                            int64_t day) {
  ag::NoGradGuard no_grad;
  Tensor state = StateTensor(panel, day, held_);
  Tensor mean = decide_plan_.Run({&state}, [&] {
    return actor_->Forward(ag::Var::Constant(state));
  });
  // Deterministic action: softmax of the Gaussian mean (what
  // SampleGaussianSimplex returns for rng == nullptr).
  held_ = SoftmaxWeights(mean);
  return held_;
}

}  // namespace cit::rl
