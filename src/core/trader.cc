#include "core/trader.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "env/portfolio_env.h"
#include "obs/telemetry.h"
#include "rl/features.h"
#include "rl/gaussian_policy.h"
#include "nn/serialize.h"
#include "rl/returns.h"
#include "rl/train_loop.h"

namespace cit::core {
namespace {

using rl::GaussianAction;
using rl::SampleGaussianSimplex;
using rl::SoftmaxWeights;

Tensor WeightsTensor(const std::vector<double>& w) {
  Tensor t({static_cast<int64_t>(w.size())});
  for (size_t i = 0; i < w.size(); ++i) t[i] = static_cast<float>(w[i]);
  return t;
}

// Previous action [m] -> the [m, 1] input of HorizonActor::Forward.
Tensor PrevTensor(const std::vector<double>& w) {
  return WeightsTensor(w).Reshape({static_cast<int64_t>(w.size()), 1});
}

Tensor ConcatWeights(const std::vector<std::vector<double>>& all,
                     int64_t m) {
  Tensor t({static_cast<int64_t>(all.size()) * m});
  int64_t pos = 0;
  for (const auto& w : all) {
    for (double v : w) t[pos++] = static_cast<float>(v);
  }
  return t;
}

// Replaces slot k of a [n*m] pre-decision tensor with `weights`.
Tensor ReplaceSlot(const Tensor& pre, int64_t k, int64_t m,
                   const std::vector<double>& weights) {
  Tensor out = pre;
  for (int64_t i = 0; i < m; ++i) {
    out[k * m + i] = static_cast<float>(weights[i]);
  }
  return out;
}

}  // namespace

CrossInsightTrader::CrossInsightTrader(int64_t num_assets,
                                       const CrossInsightConfig& config)
    : num_assets_(num_assets), config_(config), rng_(config.seed) {
  CIT_CHECK_GE(config_.num_policies, 0);
  config_.critic_market_days =
      std::min(config_.critic_market_days, config_.window);
  for (int64_t k = 0; k < config_.num_policies; ++k) {
    actors_.push_back(
        std::make_unique<HorizonActor>(config_, num_assets_, k, rng_));
  }
  cross_actor_ =
      std::make_unique<CrossInsightActor>(config_, num_assets_, rng_);

  std::vector<Var> actor_params;
  for (auto& a : actors_) {
    for (auto& v : nn::ParamVars(*a)) actor_params.push_back(v);
  }
  for (auto& v : nn::ParamVars(*cross_actor_)) actor_params.push_back(v);
  actor_opt_ = std::make_unique<nn::Adam>(
      std::move(actor_params), static_cast<float>(config_.lr), 0.9f, 0.999f,
      1e-8f, static_cast<float>(config_.weight_decay));

  std::vector<Var> critic_params;
  if (config_.credit == CreditMode::kDecCritic) {
    for (int64_t k = 0; k < config_.num_policies + 1; ++k) {
      dec_critics_.push_back(std::make_unique<DecentralizedCritic>(
          config_, num_assets_, rng_));
      for (auto& v : nn::ParamVars(*dec_critics_.back())) {
        critic_params.push_back(v);
      }
    }
  } else {
    critic_ = std::make_unique<CentralizedCritic>(config_, num_assets_,
                                                  rng_);
    critic_params = nn::ParamVars(*critic_);
  }
  critic_opt_ = std::make_unique<nn::Adam>(
      std::move(critic_params), static_cast<float>(config_.lr), 0.9f,
      0.999f, 1e-8f, static_cast<float>(config_.weight_decay));
  actor_plans_ = std::vector<plan::CompiledFn>(config_.num_policies);
  Reset();
}

void CrossInsightTrader::Reset() {
  held_actions_.assign(
      std::max<int64_t>(config_.num_policies, 1),
      std::vector<double>(num_assets_,
                          1.0 / static_cast<double>(num_assets_)));
}

CrossInsightTrader::DayFeatures CrossInsightTrader::ComputeFeatures(
    const market::PanelView& panel, int64_t day) const {
  const int64_t m = num_assets_;
  const int64_t z = config_.window;
  const int64_t n = config_.num_policies;
  // Critic inputs use the trailing `critic_market_days` of each window.
  const int64_t cd = std::min(config_.critic_market_days, z);
  const int64_t window_size = m * z;
  const int64_t flat_size = m * cd;
  Tensor block({rl::FeatureBlockSize(m, z, n, cd)});
  // Per call, never per trader: a block is built once per (source, day),
  // and a member would make this const function stateful.
  std::vector<double> scratch(rl::FeatureBlockScratchSize(z, n));
  rl::FeatureBlockInto(panel, day, z, n, cd, scratch.data(), block.data());

  auto window_view = [&](int64_t j) {
    return block.Slice(0, j * window_size, window_size).Reshape({m, 1, z});
  };
  auto flat_view = [&](int64_t j) {
    return block.Slice(0, (1 + n) * window_size + j * flat_size, flat_size);
  };
  DayFeatures features;
  features.market = window_view(0);
  features.market_flat = flat_view(0);
  features.bands.reserve(n);
  features.band_flats.reserve(n);
  for (int64_t k = 0; k < n; ++k) {
    features.bands.push_back(window_view(1 + k));
    features.band_flats.push_back(flat_view(1 + k));
  }
  return features;
}

const CrossInsightTrader::DayFeatures& CrossInsightTrader::FeaturesAt(
    const market::PanelView& panel, int64_t day) {
  if (cached_source_ != panel.source_id()) {
    feature_cache_.clear();
    cached_source_ = panel.source_id();
  }
  auto it = feature_cache_.find(day);
  if (it == feature_cache_.end()) {
    it = feature_cache_.emplace(day, ComputeFeatures(panel, day)).first;
  }
  return it->second;
}

Tensor CrossInsightTrader::PolicyMean(int64_t k, const Tensor& bands,
                                      const Tensor& prev) {
  return actor_plans_[k].Run(
      {&bands, &prev}, [&] { return actors_[k]->Forward(bands, prev); });
}

std::vector<double> CrossInsightTrader::PolicyWeights(
    const market::PanelView& panel, int64_t day, int64_t k,
    const std::vector<double>& prev_action) {
  CIT_CHECK(k >= 0 && k < config_.num_policies);
  ag::NoGradGuard no_grad;
  const DayFeatures& f = FeaturesAt(panel, day);
  return SoftmaxWeights(PolicyMean(k, f.bands[k], PrevTensor(prev_action)));
}

std::vector<double> CrossInsightTrader::DecideWeights(
    const market::PanelView& panel, int64_t day) {
  ag::NoGradGuard no_grad;
  const int64_t n = config_.num_policies;
  std::vector<Tensor> prev;
  prev.reserve(static_cast<size_t>(n));
  for (int64_t k = 0; k < n; ++k) prev.push_back(PrevTensor(held_actions_[k]));
  std::vector<std::vector<std::vector<double>>> pre;
  std::vector<double> weights =
      std::move(DecideStacked({&FeaturesAt(panel, day)}, prev, &pre)[0]);
  for (int64_t k = 0; k < n; ++k) held_actions_[k] = std::move(pre[0][k]);
  return weights;
}

std::vector<std::vector<double>> CrossInsightTrader::DecideWeightsBatch(
    const std::vector<market::PanelView>& panels) {
  if (panels.empty()) return {};
  ag::NoGradGuard no_grad;
  // Request panels are short-lived (the daemon builds one per request), so
  // the source-keyed FeaturesAt cache is skipped on purpose.
  std::vector<DayFeatures> feats;
  feats.reserve(panels.size());
  for (const market::PanelView& p : panels) {
    feats.push_back(ComputeFeatures(p, p.num_days() - 1));
  }
  std::vector<const DayFeatures*> stack;
  stack.reserve(feats.size());
  for (const DayFeatures& f : feats) stack.push_back(&f);
  // Uniform previous actions, as Reset() hands DecideWeights: the serving
  // contract is one stateless decision per request.
  const int64_t rows = static_cast<int64_t>(panels.size()) * num_assets_;
  Tensor uniform({rows, 1});
  const float u = static_cast<float>(1.0 / static_cast<double>(num_assets_));
  for (int64_t i = 0; i < rows; ++i) uniform[i] = u;
  std::vector<std::vector<std::vector<double>>> pre;
  return DecideStacked(
      stack, std::vector<Tensor>(config_.num_policies, uniform), &pre);
}

std::vector<std::vector<double>> CrossInsightTrader::DecideStacked(
    const std::vector<const DayFeatures*>& feats,
    const std::vector<Tensor>& prev,
    std::vector<std::vector<std::vector<double>>>* pre) {
  const int64_t batch = static_cast<int64_t>(feats.size());
  const int64_t m = num_assets_;
  const int64_t n = config_.num_policies;
  const int64_t z = config_.window;
  auto stack_windows = [&](auto&& window_of) -> Tensor {
    if (batch == 1) return window_of(0);  // O(1): shares the storage
    Tensor stacked({batch * m, 1, z});
    for (int64_t b = 0; b < batch; ++b) {
      std::memcpy(stacked.data() + b * m * z, window_of(b).data(),
                  static_cast<size_t>(m * z) * sizeof(float));
    }
    return stacked;
  };

  pre->assign(static_cast<size_t>(batch), {});
  for (int64_t k = 0; k < n; ++k) {
    Tensor bands = stack_windows(
        [&](int64_t b) -> const Tensor& { return feats[b]->bands[k]; });
    Tensor mean = PolicyMean(k, bands, prev[k]);
    for (int64_t b = 0; b < batch; ++b) {
      (*pre)[b].push_back(rl::SoftmaxWeightsRange(mean, b * m, m));
    }
  }
  // Back-to-back per-request [n*m] blocks, each laid out like
  // ConcatWeights.
  Tensor pre_dec({batch * n * m});
  int64_t pos = 0;
  for (const std::vector<std::vector<double>>& request : *pre) {
    for (const std::vector<double>& w : request) {
      for (double v : w) pre_dec[pos++] = static_cast<float>(v);
    }
  }
  Tensor market = stack_windows(
      [&](int64_t b) -> const Tensor& { return feats[b]->market; });
  auto cross_forward = [&] { return cross_actor_->Forward(market, pre_dec); };
  // pre_dec only feeds the forward when there are horizon policies; with
  // n == 0 it is an empty placeholder and must not be bound as an input.
  Tensor cross_mean = n > 0
                          ? cross_plan_.Run({&market, &pre_dec}, cross_forward)
                          : cross_plan_.Run({&market}, cross_forward);
  std::vector<std::vector<double>> out(static_cast<size_t>(batch));
  for (int64_t b = 0; b < batch; ++b) {
    out[b] = rl::SoftmaxWeightsRange(cross_mean, b * m, m);
  }
  return out;
}

namespace {

// Everything remembered about one rollout step for the update phase.
struct StepRecord {
  std::vector<Var> horizon_logp;           // n
  Var cross_logp;
  std::vector<std::vector<double>> mu;     // Gaussian-mean weights  [n][m]
  Tensor pre_dec;                          // executed pre-decisions [n*m]
  std::vector<double> action;              // executed final weights [m]
  std::vector<double> cross_mu;            // cross-policy mean weights [m]
  int64_t day = 0;
  double reward = 0.0;
};

}  // namespace

std::vector<double> CrossInsightTrader::Train(
    const market::PanelView& panel, int64_t curve_points) {
  const int64_t n = config_.num_policies;
  CIT_CHECK_GE(config_.rollout_len, 1);
  CIT_CHECK_GT(panel.train_end(),
               config_.window + config_.rollout_len + 2);
  env::EnvConfig env_config;
  env_config.window = config_.window;
  env_config.transaction_cost = config_.transaction_cost;
  env_config.end_day = panel.train_end() - 1;
  env::PortfolioEnv env(panel, env_config);
  // Rollouts start at a random day in [lo, hi).
  const int64_t lo = env.earliest_start();
  const int64_t hi = env.end_day() - config_.rollout_len - 1;

  const float ent_coef = static_cast<float>(config_.entropy_coef);
  const bool dec = config_.credit == CreditMode::kDecCritic;
  const int64_t num_critics = dec ? n + 1 : 1;

  auto mean_of = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  // Critic c's Q-value of (pre_dec, action) on a day's features; c is 0
  // for the centralized critic. The decentralized critic c < n reads band
  // c's flat and policy c's pre-decision (its slot of pre_dec, an O(1)
  // view), critic n the market flat and the action; the centralized critic
  // reads the market flat, every pre-decision and the action.
  auto q = [&](int64_t c, const DayFeatures& f, const Tensor& pre_dec,
               const std::vector<double>& action) -> Var {
    if (!dec) {
      return critic_->Forward(f.market_flat, pre_dec, WeightsTensor(action));
    }
    if (c < n) {
      return dec_critics_[c]->Forward(
          f.band_flats[c], pre_dec.Slice(0, c * num_assets_, num_assets_));
    }
    return dec_critics_[c]->Forward(f.market_flat, WeightsTensor(action));
  };

  auto update = [&](int64_t step) -> double {
    std::vector<StepRecord> rollout;
    std::vector<double> rewards;
    Tensor boot_pre;  // [n*m] deterministic bootstrap means
    std::vector<double> boot_action;
    int64_t boot_day = -1;
    std::vector<std::vector<double>> targets(num_critics);  // [c][len]

    // ---- Rollout (forward passes only: params are read, never written;
    // the sampled forwards retain their policy-gradient graphs) ----
    rl::CollectRollout(config_.seed, step, [&](math::Rng& rng) {
      env.ResetAt(lo + rng.UniformInt(std::max<int64_t>(1, hi - lo)));
      std::vector<std::vector<double>> held(
          std::max<int64_t>(n, 1),
          std::vector<double>(num_assets_,
                              1.0 / static_cast<double>(num_assets_)));
      while (static_cast<int64_t>(rollout.size()) < config_.rollout_len &&
             !env.done()) {
        const int64_t day = env.current_day();
        const DayFeatures& f = FeaturesAt(panel, day);
        StepRecord rec;
        rec.day = day;
        rec.mu.resize(n);
        for (int64_t k = 0; k < n; ++k) {
          Var mean = actors_[k]->Forward(f.bands[k], PrevTensor(held[k]));
          GaussianAction act =
              SampleGaussianSimplex(mean, actors_[k]->log_std(), &rng);
          rec.mu[k] = SoftmaxWeights(mean.value());
          rec.horizon_logp.push_back(act.log_prob);
          held[k] = act.weights;
        }
        // held now holds this step's pre-decisions.
        rec.pre_dec = n > 0 ? ConcatWeights(held, num_assets_) : Tensor({0});
        Var cross_mean = cross_actor_->Forward(f.market, rec.pre_dec);
        GaussianAction cross_act = SampleGaussianSimplex(
            cross_mean, cross_actor_->log_std(), &rng);
        rec.cross_logp = cross_act.log_prob;
        rec.action = cross_act.weights;
        rec.cross_mu = SoftmaxWeights(cross_mean.value());
        const env::StepResult sr = env.Step(rec.action);
        rec.reward = sr.reward * config_.reward_scale;
        rewards.push_back(rec.reward);
        rollout.push_back(std::move(rec));
      }
      const int64_t len = static_cast<int64_t>(rollout.size());

      // Everything below reads forwards as detached numbers (bootstrap
      // means, critic targets), so it runs graph-free; the sampled taped
      // forwards above already captured what the actor update needs.
      ag::NoGradGuard no_grad;

      // Bootstrap actions at the post-rollout state (deterministic means).
      boot_pre = Tensor({std::max<int64_t>(n, 0) * num_assets_});
      if (!env.done()) {
        boot_day = env.current_day();
        const DayFeatures& f = FeaturesAt(panel, boot_day);
        std::vector<std::vector<double>> pre(n);
        for (int64_t k = 0; k < n; ++k) {
          Var mean = actors_[k]->Forward(f.bands[k], PrevTensor(held[k]));
          pre[k] = SoftmaxWeights(mean.value());
        }
        if (n > 0) boot_pre = ConcatWeights(pre, num_assets_);
        Var cm = cross_actor_->Forward(f.market, boot_pre);
        boot_action = SoftmaxWeights(cm.value());
      }

      // ---- Critic targets (Eq. 6-7) from the pre-update critic ----
      for (int64_t c = 0; c < num_critics; ++c) {
        std::vector<double> values(len + 1, 0.0);
        for (int64_t t = 0; t < len; ++t) {
          const StepRecord& rec = rollout[t];
          const DayFeatures& f = FeaturesAt(panel, rec.day);
          values[t] = q(c, f, rec.pre_dec, rec.action).value().Item();
        }
        if (boot_day >= 0) {
          const DayFeatures& f = FeaturesAt(panel, boot_day);
          values[len] = q(c, f, boot_pre, boot_action).value().Item();
        }
        targets[c] = rl::LambdaReturns(rewards, values, config_.gamma,
                                       config_.lambda, config_.n_step);
      }
    });
    const int64_t len = static_cast<int64_t>(rollout.size());

    // ---- Critic update ----
    {
    CIT_OBS_SPAN("train.critic_update");
    critic_opt_->ZeroGrad();
    Var critic_loss = Var::Constant(Tensor::Scalar(0.0f));
    for (int64_t t = 0; t < len; ++t) {
      const StepRecord& rec = rollout[t];
      const DayFeatures& f = FeaturesAt(panel, rec.day);
      for (int64_t c = 0; c < num_critics; ++c) {
        critic_loss = ag::Add(
            critic_loss,
            ag::Square(ag::AddScalar(q(c, f, rec.pre_dec, rec.action),
                                     -static_cast<float>(targets[c][t]))));
      }
    }
    critic_loss =
        ag::MulScalar(critic_loss, 1.0f / static_cast<float>(len));
    critic_loss.Backward();
    CIT_OBS_GAUGE("train.critic_loss", critic_loss.value().Item());
    [[maybe_unused]] const float critic_gn = critic_opt_->ClipGradNorm(5.0f);
    CIT_OBS_GAUGE("train.critic_grad_norm", critic_gn);
    critic_opt_->Step();
    }

    // ---- Advantages from the updated critic (forward-only: every critic
    // read lands in a double, so no graph survives this phase) ----
    std::vector<std::vector<double>> horizon_adv(
        n, std::vector<double>(len, 0.0));
    std::vector<double> cross_adv(len, 0.0);
    {
    CIT_OBS_SPAN("train.advantages");
    ag::NoGradGuard no_grad;
    // Each critic's Q of the executed step; qs[0] is the joint Q of the
    // centralized critic.
    std::vector<std::vector<double>> qs(num_critics,
                                        std::vector<double>(len, 0.0));
    std::vector<std::vector<double>> baselines(
        n, std::vector<double>(len, 0.0));
    std::vector<double> cross_baseline(len, 0.0);
    for (int64_t t = 0; t < len; ++t) {
      const StepRecord& rec = rollout[t];
      const DayFeatures& f = FeaturesAt(panel, rec.day);
      for (int64_t c = 0; c < num_critics; ++c) {
        qs[c][t] = q(c, f, rec.pre_dec, rec.action).value().Item();
      }
      // Counterfactual baseline for the cross-insight policy itself: the
      // executed trade action replaced by the Gaussian-mean action.
      // State-dependent but independent of the sampled action, so it
      // reduces variance without biasing Eq. (3)'s gradient.
      cross_baseline[t] =
          q(num_critics - 1, f, rec.pre_dec, rec.cross_mu).value().Item();
      if (config_.credit == CreditMode::kCounterfactual) {
        for (int64_t k = 0; k < n; ++k) {
          // Counterfactual baseline B^k (Eq. 8): policy k's pre-decision
          // replaced by its Gaussian-mean action.
          Tensor cf = ReplaceSlot(rec.pre_dec, k, num_assets_, rec.mu[k]);
          baselines[k][t] = q(0, f, cf, rec.action).value().Item();
        }
      }
    }
    // Constant (state-independent) baseline for Q-weighted terms: the
    // rollout mean. Reduces variance without biasing the gradient.
    std::vector<double> q_means(num_critics, 0.0);
    for (int64_t c = 0; c < num_critics; ++c) q_means[c] = mean_of(qs[c]);

    // Per-policy advantage series.
    for (int64_t t = 0; t < len; ++t) {
      for (int64_t k = 0; k < n; ++k) {
        switch (config_.credit) {
          case CreditMode::kCounterfactual:
            horizon_adv[k][t] = qs[0][t] - baselines[k][t];
            break;
          case CreditMode::kSharedQ:
            // The ablation's "same Q-value for every policy": the raw
            // Q, no per-policy baseline — Fig. 8's comparison variant.
            horizon_adv[k][t] = qs[0][t];
            break;
          case CreditMode::kDecCritic:
            horizon_adv[k][t] = qs[k][t] - q_means[k];
            break;
        }
      }
      if (config_.credit == CreditMode::kSharedQ) {
        cross_adv[t] = qs[0][t];  // same Q for the cross policy too
      } else {
        cross_adv[t] = qs[num_critics - 1][t] - cross_baseline[t];
      }
    }
    }

    // ---- Actor update ----
    {
    CIT_OBS_SPAN("train.actor_update");
    last_advantages_.assign(n, 0.0);
    actor_opt_->ZeroGrad();
    critic_opt_->ZeroGrad();
    Var actor_loss = Var::Constant(Tensor::Scalar(0.0f));
    for (int64_t t = 0; t < len; ++t) {
      StepRecord& rec = rollout[t];
      for (int64_t k = 0; k < n; ++k) {
        last_advantages_[k] += horizon_adv[k][t] / static_cast<double>(len);
        actor_loss = ag::Sub(
            actor_loss,
            ag::MulScalar(rec.horizon_logp[k],
                          static_cast<float>(horizon_adv[k][t])));
      }
      actor_loss = ag::Sub(
          actor_loss,
          ag::MulScalar(rec.cross_logp, static_cast<float>(cross_adv[t])));
    }
    // Entropy regularization on every policy's exploration scale.
    Var entropy = rl::GaussianEntropy(cross_actor_->log_std());
    for (int64_t k = 0; k < n; ++k) {
      entropy = ag::Add(entropy, rl::GaussianEntropy(actors_[k]->log_std()));
    }
    actor_loss = ag::Sub(
        actor_loss, ag::MulScalar(entropy, ent_coef * static_cast<float>(len)));
    actor_loss = ag::MulScalar(actor_loss, 1.0f / static_cast<float>(len));
    actor_loss.Backward();
    CIT_OBS_GAUGE("train.actor_loss", actor_loss.value().Item());
    [[maybe_unused]] const float actor_gn = actor_opt_->ClipGradNorm(5.0f);
    CIT_OBS_GAUGE("train.actor_grad_norm", actor_gn);
    actor_opt_->Step();
    }

    return mean_of(rewards);
  };

  std::vector<double> curve = rl::RunTrainLoop(
      config_, curve_points, &progress_,
      {.update = update,
       .load = [this](const std::string& p) { return LoadCheckpoint(p); },
       .save = [this](const std::string& p) { return SaveCheckpoint(p); }});
  Reset();
  return curve;
}

namespace {

// Trades one horizon policy's pre-decision alone (Figs. 5-6).
class SinglePolicyAgent : public env::TradingAgent {
 public:
  SinglePolicyAgent(CrossInsightTrader* parent, int64_t k)
      : parent_(parent), k_(k) {
    Reset();
  }

  std::string name() const override {
    return "policy-" + std::to_string(k_ + 1);
  }

  void Reset() override {
    prev_.assign(parent_->num_assets(),
                 1.0 / static_cast<double>(parent_->num_assets()));
  }

  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t day) override {
    prev_ = parent_->PolicyWeights(panel, day, k_, prev_);
    return prev_;
  }

 private:
  CrossInsightTrader* parent_;
  int64_t k_;
  std::vector<double> prev_;
};

}  // namespace

std::unique_ptr<env::TradingAgent> CrossInsightTrader::MakePolicyAgent(
    int64_t k) {
  CIT_CHECK(k >= 0 && k < config_.num_policies);
  return std::make_unique<SinglePolicyAgent>(this, k);
}

nn::ModuleGroup CrossInsightTrader::AllModules() const {
  nn::ModuleGroup group;
  for (size_t k = 0; k < actors_.size(); ++k) {
    group.Add("actor" + std::to_string(k) + ".", actors_[k].get());
  }
  group.Add("cross.", cross_actor_.get());
  if (critic_ != nullptr) group.Add("critic.", critic_.get());
  for (size_t k = 0; k < dec_critics_.size(); ++k) {
    group.Add("dec_critic" + std::to_string(k) + ".",
              dec_critics_[k].get());
  }
  return group;
}

Status CrossInsightTrader::SaveModel(const std::string& path) const {
  nn::ModuleGroup all = AllModules();
  return nn::SaveParameters(all, path);
}

Status CrossInsightTrader::LoadModel(const std::string& path) {
  nn::ModuleGroup all = AllModules();
  return nn::LoadParameters(&all, path);
}

Status CrossInsightTrader::LoadModelFromBytes(
    const std::vector<uint8_t>& bytes) {
  nn::ModuleGroup all = AllModules();
  return nn::LoadParametersFromBytes(&all, bytes);
}

rl::TrainerCheckpointParts CrossInsightTrader::CheckpointParts() const {
  rl::TrainerCheckpointParts parts;
  parts.meta.trainer = "CIT";
  parts.meta.num_assets = num_assets_;
  parts.meta.seed = config_.seed;
  parts.meta.arch_tag = config_.num_policies;
  parts.modules = AllModules();
  parts.opt_actor = actor_opt_.get();
  parts.opt_critic = critic_opt_.get();
  // Saving only reads through it; LoadCheckpoint, which writes, is
  // non-const.
  parts.progress = const_cast<rl::TrainProgress*>(&progress_);
  return parts;
}

Status CrossInsightTrader::SaveCheckpoint(const std::string& path) const {
  return rl::SaveTrainerCheckpoint(CheckpointParts(), path);
}

Status CrossInsightTrader::LoadCheckpoint(const std::string& path) {
  return rl::LoadTrainerCheckpoint(CheckpointParts(), path);
}

}  // namespace cit::core
