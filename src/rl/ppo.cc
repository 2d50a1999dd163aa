#include "rl/ppo.h"

#include <cmath>

#include "common/check.h"
#include "env/portfolio_env.h"
#include "obs/telemetry.h"
#include "rl/features.h"
#include "rl/returns.h"
#include "rl/rollout.h"

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

  // One slot's frozen (old-policy) rollout statistics; the surrogate
  // epochs below re-walk slots serially in slot order.
  struct SlotData {
    std::vector<Tensor> states;
    std::vector<Tensor> raw_actions;
    std::vector<double> old_log_probs;
    std::vector<double> rewards;
    std::vector<double> adv;
    std::vector<double> targets;
  };

  while (runner.next_step() < config_.train_steps) {
    CIT_OBS_SPAN("train.update");
    const int64_t step = runner.next_step();
    const int64_t lo = env.earliest_start();
    const int64_t hi = env.end_day() - config_.rollout_len - 1;
    std::vector<SlotData> slots(num_slots);

    {
    CIT_OBS_SPAN("train.rollout");
    runner.Collect([&](int64_t slot, math::Rng& rng) {
      // PPO freezes the old policy's statistics as plain numbers and
      // rebuilds the graph in the surrogate epochs, so the entire
      // collection pass is graph-free (guard is per worker thread).
      ag::NoGradGuard no_grad;
      SlotData& sd = slots[slot];
      env::PortfolioEnv senv = env.CloneAt(
          lo + rng.UniformInt(std::max<int64_t>(1, hi - lo)));
      // Views are immutable and safe to share; the slot reads prices
      // through its env clone's view, the one that env steps on.
      const market::PanelView& view = senv.view();
      std::vector<double> held(num_assets_,
                               1.0 / static_cast<double>(num_assets_));
      std::vector<double> values;
      for (int64_t t = 0; t < config_.rollout_len && !senv.done(); ++t) {
        Tensor state = StateTensor(view, senv.current_day(), held);
        ag::Var input = ag::Var::Constant(state);
        ag::Var mean = actor_->Forward(input);
        GaussianAction action = SampleGaussianSimplex(mean, log_std_, &rng);
        values.push_back(critic_->Forward(input).value().Item());
        sd.states.push_back(std::move(state));
        sd.raw_actions.push_back(action.raw);
        sd.old_log_probs.push_back(action.log_prob.value().Item());
        const env::StepResult r = senv.Step(action.weights);
        sd.rewards.push_back(r.reward * config_.reward_scale);
        held = senv.previous_weights();
      }
      double bootstrap = 0.0;
      if (!senv.done()) {
        bootstrap =
            critic_
                ->Forward(ag::Var::Constant(
                    StateTensor(view, senv.current_day(), held)))
                .value()
                .Item();
      }
      values.push_back(bootstrap);
      sd.adv = GaeAdvantages(sd.rewards, values, config_.gamma, 0.95);
      sd.targets.resize(sd.adv.size());
      for (size_t t = 0; t < sd.adv.size(); ++t) {
        sd.targets[t] = sd.adv[t] + values[t];
      }
    });
    }

    int64_t total_steps = 0;
    for (const SlotData& sd : slots) {
      total_steps += static_cast<int64_t>(sd.states.size());
    }
    if (total_steps == 0) {
      progress_.next_update = step + 1;
      continue;
    }

    // Clipped-surrogate epochs over all collected segments; per-slot
    // gradients accumulate in slot order, one optimizer step per epoch.
    for (int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
      CIT_OBS_SPAN("train.update_epoch");
      actor_opt_->ZeroGrad();
      critic_opt_->ZeroGrad();
      for (const SlotData& sd : slots) {
        if (sd.states.empty()) continue;
        ag::Var loss = ag::Var::Constant(Tensor::Scalar(0.0f));
        for (size_t t = 0; t < sd.states.size(); ++t) {
          ag::Var input = ag::Var::Constant(sd.states[t]);
          ag::Var mean = actor_->Forward(input);
          ag::Var logp = GaussianLogProb(mean, log_std_, sd.raw_actions[t]);
          ag::Var ratio = ag::Exp(ag::AddScalar(
              logp, -static_cast<float>(sd.old_log_probs[t])));
          const float a = static_cast<float>(sd.adv[t]);
          ag::Var surr1 = ag::MulScalar(ratio, a);
          ag::Var surr2 = ag::MulScalar(
              ag::Clamp(ratio, 1.0f - static_cast<float>(config_.clip),
                        1.0f + static_cast<float>(config_.clip)),
              a);
          loss = ag::Sub(loss, ag::Min(surr1, surr2));
          loss = ag::Sub(loss,
                         ag::MulScalar(GaussianEntropy(log_std_),
                                       static_cast<float>(
                                           config_.entropy_coef)));
          ag::Var v = critic_->Forward(input);
          ag::Var err = ag::AddScalar(v, -static_cast<float>(sd.targets[t]));
          loss = ag::Add(loss, ag::MulScalar(ag::Square(err), 0.5f));
        }
        loss = ag::MulScalar(loss, 1.0f / static_cast<float>(total_steps));
        loss.Backward();
        CIT_OBS_GAUGE("train.loss", loss.value().Item());
      }
      [[maybe_unused]] const float actor_gn = actor_opt_->ClipGradNorm(5.0f);
      [[maybe_unused]] const float critic_gn =
          critic_opt_->ClipGradNorm(5.0f);
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

nn::ModuleGroup PpoAgent::AllModules() const {
  nn::ModuleGroup group;
  group.Add("actor.", actor_.get());
  group.Add("critic.", critic_.get());
  group.AddVar("log_std", log_std_);
  return group;
}

Status PpoAgent::SaveCheckpoint(const std::string& path) const {
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

Status PpoAgent::LoadCheckpoint(const std::string& path) {
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
