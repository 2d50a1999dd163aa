#include "rl/a2c.h"

#include <cmath>

#include "common/check.h"
#include "env/portfolio_env.h"
#include "obs/telemetry.h"
#include "rl/features.h"
#include "rl/returns.h"
#include "rl/rollout.h"

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
  CIT_CHECK_GT(panel.train_end(), config_.window + config_.rollout_len + 2);
  env::EnvConfig env_config;
  env_config.window = config_.window;
  env_config.transaction_cost = config_.transaction_cost;
  env_config.end_day = panel.train_end() - 1;
  env::PortfolioEnv env(panel, env_config);

  const int64_t curve_every =
      std::max<int64_t>(1, config_.train_steps / curve_points);
  const int64_t num_slots =
      std::max<int64_t>(1, config_.rollouts_per_update);
  // Each slot's stream is Split(seed, step, slot): trajectories are a pure
  // function of (params, step, slot), independent of worker scheduling.
  RolloutRunner runner(config_.seed, num_slots);

  // Resuming restores weights, Adam moments, and progress_; counter-split
  // streams make the continuation bitwise identical to an uninterrupted
  // run.
  if (!config_.resume_from.empty()) {
    const Status resume = LoadCheckpoint(config_.resume_from);
    CIT_CHECK_MSG(resume.ok(), resume.message().c_str());
  } else {
    progress_ = {};
  }
  runner.set_next_step(progress_.next_update);

  // Observational only: phase spans, loss/grad-norm gauges, optional
  // trace/snapshot files; the curve is bitwise identical either way.
  obs::TelemetrySession telemetry(config_.telemetry);

  // Everything one rollout slot collects; graphs are retained and reduced
  // serially in slot order after the parallel phase.
  struct SlotData {
    std::vector<ag::Var> log_probs;
    std::vector<ag::Var> values;
    std::vector<ag::Var> entropies;
    std::vector<double> rewards;
    std::vector<double> targets;
  };

  while (runner.next_step() < config_.train_steps) {
    CIT_OBS_SPAN("train.update");
    const int64_t step = runner.next_step();
    // Random segment start within the training range, per slot.
    const int64_t lo = env.earliest_start();
    const int64_t hi = env.end_day() - config_.rollout_len - 1;
    std::vector<SlotData> slots(num_slots);

    {
    CIT_OBS_SPAN("train.rollout");
    runner.Collect([&](int64_t slot, math::Rng& rng) {
      SlotData& sd = slots[slot];
      env::PortfolioEnv senv = env.CloneAt(
          lo + rng.UniformInt(std::max<int64_t>(1, hi - lo)));
      // Views are immutable and safe to share; the slot reads prices
      // through its env clone's view, the one that env steps on.
      const market::PanelView& view = senv.view();
      std::vector<double> held(num_assets_,
                               1.0 / static_cast<double>(num_assets_));
      for (int64_t t = 0; t < config_.rollout_len && !senv.done(); ++t) {
        ag::Var input = PolicyInput(view, senv.current_day(), held);
        ag::Var mean = actor_->Forward(input);
        GaussianAction action = SampleGaussianSimplex(mean, log_std_, &rng);
        sd.values.push_back(critic_->Forward(input));
        sd.log_probs.push_back(action.log_prob);
        sd.entropies.push_back(GaussianEntropy(log_std_));
        const env::StepResult r = senv.Step(action.weights);
        sd.rewards.push_back(r.reward * config_.reward_scale);
        held = senv.previous_weights();
      }
      // Bootstrap value of the final state: a detached scalar, so the
      // critic forward runs graph-free (thread-local guard — the worker's
      // taped forwards above are unaffected).
      double bootstrap = 0.0;
      if (!senv.done()) {
        ag::NoGradGuard no_grad;
        ag::Var input = PolicyInput(view, senv.current_day(), held);
        bootstrap = critic_->Forward(input).value().Item();
      }
      sd.targets = DiscountedReturns(sd.rewards, config_.gamma, bootstrap);
    });
    }

    // Losses: policy gradient with advantage (target - V), value MSE.
    // Per-slot gradients accumulate in slot order; one optimizer step.
    {
    CIT_OBS_SPAN("train.update_losses");
    actor_opt_->ZeroGrad();
    critic_opt_->ZeroGrad();
    for (SlotData& sd : slots) {
      if (sd.rewards.empty()) continue;
      ag::Var policy_loss = ag::Var::Constant(Tensor::Scalar(0.0f));
      ag::Var value_loss = ag::Var::Constant(Tensor::Scalar(0.0f));
      for (size_t t = 0; t < sd.rewards.size(); ++t) {
        const float advantage = static_cast<float>(sd.targets[t]) -
                                sd.values[t].value().Item();
        policy_loss = ag::Sub(
            policy_loss, ag::MulScalar(sd.log_probs[t], advantage));
        policy_loss = ag::Sub(
            policy_loss, ag::MulScalar(sd.entropies[t],
                                       static_cast<float>(
                                           config_.entropy_coef)));
        ag::Var err = ag::AddScalar(sd.values[t],
                                    -static_cast<float>(sd.targets[t]));
        value_loss = ag::Add(value_loss, ag::Square(err));
      }
      const float inv_len =
          1.0f / static_cast<float>(sd.rewards.size() * num_slots);
      ag::Var total = ag::Add(ag::MulScalar(policy_loss, inv_len),
                              ag::MulScalar(value_loss, inv_len));
      total.Backward();
      CIT_OBS_GAUGE("train.actor_loss", policy_loss.value().Item());
      CIT_OBS_GAUGE("train.critic_loss", value_loss.value().Item());
    }
    [[maybe_unused]] const float actor_gn = actor_opt_->ClipGradNorm(5.0f);
    [[maybe_unused]] const float critic_gn = critic_opt_->ClipGradNorm(5.0f);
    CIT_OBS_GAUGE("train.actor_grad_norm", actor_gn);
    CIT_OBS_GAUGE("train.critic_grad_norm", critic_gn);
    actor_opt_->Step();
    critic_opt_->Step();
    }

    double step_reward = 0.0;
    for (const SlotData& sd : slots) {
      double mean_reward = 0.0;
      for (double r : sd.rewards) mean_reward += r;
      if (!sd.rewards.empty()) {
        step_reward += mean_reward / static_cast<double>(sd.rewards.size());
      }
    }
    CIT_OBS_GAUGE("train.reward",
                  step_reward / static_cast<double>(num_slots));
    progress_.curve_acc += step_reward / static_cast<double>(num_slots);
    ++progress_.curve_n;
    if ((step + 1) % curve_every == 0) {
      progress_.curve.push_back(progress_.curve_acc /
                                static_cast<double>(progress_.curve_n));
      progress_.curve_acc = 0.0;
      progress_.curve_n = 0;
    }
    progress_.next_update = step + 1;
    if (config_.checkpoint_every > 0 && !config_.checkpoint_path.empty() &&
        (step + 1) % config_.checkpoint_every == 0) {
      CIT_OBS_SPAN("train.checkpoint");
      const Status saved = SaveCheckpoint(config_.checkpoint_path);
      CIT_CHECK_MSG(saved.ok(), saved.message().c_str());
    }
    telemetry.Tick(step);
  }
  std::vector<double> curve = std::move(progress_.curve);
  progress_ = {};
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

Status A2cAgent::SaveCheckpoint(const std::string& path) const {
  nn::ModuleGroup all = AllModules();
  TrainerCheckpointParts parts;
  parts.meta.trainer = name();
  parts.meta.num_assets = num_assets_;
  parts.meta.seed = config_.seed;
  parts.meta.arch_tag = config_.hidden;
  parts.modules = &all;
  parts.opt_actor = actor_opt_.get();
  parts.opt_critic = critic_opt_.get();
  // SaveTrainerCheckpoint only reads through the non-const pointers.
  parts.progress = const_cast<TrainProgress*>(&progress_);
  return SaveTrainerCheckpoint(parts, path);
}

Status A2cAgent::LoadCheckpoint(const std::string& path) {
  nn::ModuleGroup all = AllModules();
  TrainerCheckpointParts parts;
  parts.meta.trainer = name();
  parts.meta.num_assets = num_assets_;
  parts.meta.seed = config_.seed;
  parts.meta.arch_tag = config_.hidden;
  parts.modules = &all;
  parts.opt_actor = actor_opt_.get();
  parts.opt_critic = critic_opt_.get();
  parts.progress = &progress_;
  return LoadTrainerCheckpoint(parts, path);
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
