#include "rl/ddpg.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "env/portfolio_env.h"
#include "obs/telemetry.h"
#include "rl/features.h"
#include "rl/gaussian_policy.h"

namespace cit::rl {

DdpgAgent::DdpgAgent(int64_t num_assets, const DdpgConfig& config)
    : num_assets_(num_assets), config_(config), rng_(config.seed) {
  const int64_t state_dim = config_.window * num_assets_ + num_assets_;
  actor_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{state_dim, config_.hidden, num_assets_}, rng_);
  critic_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{state_dim + num_assets_, config_.hidden, 1},
      rng_);
  target_actor_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{state_dim, config_.hidden, num_assets_}, rng_);
  target_critic_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{state_dim + num_assets_, config_.hidden, 1},
      rng_);
  nn::CopyParameters(*actor_, target_actor_.get());
  nn::CopyParameters(*critic_, target_critic_.get());
  actor_opt_ = std::make_unique<nn::Adam>(
      nn::ParamVars(*actor_), static_cast<float>(config_.lr), 0.9f, 0.999f,
      1e-8f, static_cast<float>(config_.weight_decay));
  critic_opt_ = std::make_unique<nn::Adam>(
      nn::ParamVars(*critic_), static_cast<float>(config_.lr), 0.9f, 0.999f,
      1e-8f, static_cast<float>(config_.weight_decay));
  Reset();
}

void DdpgAgent::Reset() {
  held_.assign(num_assets_, 1.0 / static_cast<double>(num_assets_));
}

Tensor DdpgAgent::StateTensor(const market::PanelView& panel,
                              int64_t day) const {
  Tensor window = FlatWindow(panel, day, config_.window);
  Tensor state({config_.window * num_assets_ + num_assets_});
  for (int64_t i = 0; i < window.numel(); ++i) state[i] = window[i];
  for (int64_t i = 0; i < num_assets_; ++i) {
    state[window.numel() + i] = static_cast<float>(held_[i]);
  }
  return state;
}

void DdpgAgent::UpdateFromReplay() {
  const int64_t size = static_cast<int64_t>(replay_.size());
  if (size < config_.batch_size) return;

  // Critic update: y = r + gamma * Q'(s', mu'(s')).
  ag::Var critic_loss = ag::Var::Constant(Tensor::Scalar(0.0f));
  std::vector<const Transition*> batch;
  batch.reserve(config_.batch_size);
  for (int64_t b = 0; b < config_.batch_size; ++b) {
    batch.push_back(&replay_[rng_.UniformInt(size)]);
  }
  for (const Transition* tr : batch) {
    float y;
    {
      // Target-network bootstrap: consumed as a number, never
      // differentiated — run it graph-free.
      ag::NoGradGuard no_grad;
      ag::Var next_state = ag::Var::Constant(tr->next_state);
      ag::Var next_scores = target_actor_->Forward(next_state);
      ag::Var next_action = ag::Softmax(next_scores);
      ag::Var next_q = target_critic_->Forward(
          ag::Concat({next_state, next_action}, 0));
      y = static_cast<float>(tr->reward) +
          static_cast<float>(config_.gamma) * next_q.value().Item();
    }
    ag::Var q = critic_->Forward(
        ag::Concat({ag::Var::Constant(tr->state),
                    ag::Var::Constant(tr->action)},
                   0));
    critic_loss = ag::Add(critic_loss, ag::Square(ag::AddScalar(q, -y)));
  }
  critic_loss = ag::MulScalar(
      critic_loss, 1.0f / static_cast<float>(config_.batch_size));
  critic_opt_->ZeroGrad();
  critic_loss.Backward();
  CIT_OBS_GAUGE("train.critic_loss", critic_loss.value().Item());
  [[maybe_unused]] const float critic_gn = critic_opt_->ClipGradNorm(5.0f);
  CIT_OBS_GAUGE("train.critic_grad_norm", critic_gn);
  critic_opt_->Step();

  // Actor update: maximize Q(s, softmax(actor(s))).
  ag::Var actor_loss = ag::Var::Constant(Tensor::Scalar(0.0f));
  for (const Transition* tr : batch) {
    ag::Var state = ag::Var::Constant(tr->state);
    ag::Var action = ag::Softmax(actor_->Forward(state));
    ag::Var q = critic_->Forward(ag::Concat({state, action}, 0));
    actor_loss = ag::Sub(actor_loss, q);
  }
  actor_loss = ag::MulScalar(
      actor_loss, 1.0f / static_cast<float>(config_.batch_size));
  actor_opt_->ZeroGrad();
  critic_opt_->ZeroGrad();  // clear grads the actor pass pushed into Q
  actor_loss.Backward();
  CIT_OBS_GAUGE("train.actor_loss", actor_loss.value().Item());
  [[maybe_unused]] const float actor_gn = actor_opt_->ClipGradNorm(5.0f);
  CIT_OBS_GAUGE("train.actor_grad_norm", actor_gn);
  actor_opt_->Step();

  nn::SoftUpdateParameters(*actor_, target_actor_.get(),
                           static_cast<float>(config_.tau));
  nn::SoftUpdateParameters(*critic_, target_critic_.get(),
                           static_cast<float>(config_.tau));
}

std::vector<double> DdpgAgent::Train(const market::PanelView& panel,
                                     int64_t curve_points) {
  env::EnvConfig env_config;
  env_config.window = config_.window;
  env_config.transaction_cost = config_.transaction_cost;
  env_config.end_day = panel.train_end() - 1;
  env::PortfolioEnv env(panel, env_config);
  env.ResetAt(env.earliest_start());
  Reset();

  const int64_t total_steps = config_.train_steps;
  const int64_t curve_every = std::max<int64_t>(1, total_steps / curve_points);

  // Resuming restores weights (incl. target nets), Adam moments, the
  // sequential RNG, the replay buffer, held_, and progress_; the env is
  // put back exactly where the checkpointed run stood, so the continuation
  // is bitwise identical to an uninterrupted run.
  if (!config_.resume_from.empty()) {
    const Status resume = LoadCheckpoint(config_.resume_from);
    CIT_CHECK_MSG(resume.ok(), resume.message().c_str());
    if (has_env_cursor_) {
      const Status cursor = env.RestoreCursor(env_cursor_);
      CIT_CHECK_MSG(cursor.ok(), cursor.message().c_str());
    }
  } else {
    progress_ = {};
    has_env_cursor_ = false;
  }

  // Observational only: phase spans, loss/grad-norm gauges, optional
  // trace/snapshot files; the curve is bitwise identical either way.
  obs::TelemetrySession telemetry(config_.telemetry);

  for (int64_t step = progress_.next_update; step < total_steps; ++step) {
    CIT_OBS_SPAN("train.update");
    if (env.done()) {
      env.ResetAt(env.earliest_start() +
                  rng_.UniformInt(std::max<int64_t>(
                      1, env.end_day() - env.earliest_start() - 2)));
      Reset();
    }
    env::StepResult r;
    {
    CIT_OBS_SPAN("train.rollout");  // acting + replay insert
    Tensor state = StateTensor(panel, env.current_day());
    Tensor noisy;
    {
      // Acting is forward-only; the graph for the actor update is rebuilt
      // later from the replay batch.
      ag::NoGradGuard no_grad;
      noisy = actor_->Forward(ag::Var::Constant(state)).value();
    }
    for (int64_t i = 0; i < num_assets_; ++i) {
      noisy[i] += static_cast<float>(
          rng_.Normal(0.0, config_.explore_noise));
    }
    std::vector<double> weights = SoftmaxWeights(noisy);
    r = env.Step(weights);
    held_ = env.previous_weights();
    Tensor action({num_assets_});
    for (int64_t i = 0; i < num_assets_; ++i) {
      action[i] = static_cast<float>(weights[i]);
    }
    Tensor next_state = env.done() ? state
                                   : StateTensor(panel, env.current_day());
    Transition tr{std::move(state), std::move(action),
                  r.reward * config_.reward_scale, std::move(next_state)};
    if (static_cast<int64_t>(replay_.size()) < config_.replay_capacity) {
      replay_.push_back(std::move(tr));
    } else {
      replay_[replay_next_] = std::move(tr);
      replay_next_ = (replay_next_ + 1) % config_.replay_capacity;
    }
    }
    if (step >= config_.warmup_steps) {
      CIT_OBS_SPAN("train.replay_update");
      UpdateFromReplay();
    }

    CIT_OBS_GAUGE("train.reward", r.reward * config_.reward_scale);
    progress_.curve_acc += r.reward * config_.reward_scale;
    ++progress_.curve_n;
    if ((step + 1) % curve_every == 0) {
      progress_.curve.push_back(progress_.curve_acc /
                                static_cast<double>(progress_.curve_n));
      progress_.curve_acc = 0.0;
      progress_.curve_n = 0;
    }
    progress_.next_update = step + 1;
    env_cursor_ = env.Cursor();
    has_env_cursor_ = true;
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
  has_env_cursor_ = false;
  Reset();
  return curve;
}

nn::ModuleGroup DdpgAgent::AllModules() const {
  nn::ModuleGroup group;
  group.Add("actor.", actor_.get());
  group.Add("critic.", critic_.get());
  group.Add("target_actor.", target_actor_.get());
  group.Add("target_critic.", target_critic_.get());
  return group;
}

nn::CheckpointMeta DdpgAgent::Meta() const {
  nn::CheckpointMeta meta;
  meta.trainer = name();
  meta.num_assets = num_assets_;
  meta.seed = config_.seed;
  meta.arch_tag = config_.hidden;
  return meta;
}

Status DdpgAgent::SaveCheckpoint(const std::string& path) const {
  nn::ModuleGroup all = AllModules();
  TrainerCheckpointParts parts;
  parts.meta = Meta();
  parts.modules = &all;
  parts.opt_actor = actor_opt_.get();
  parts.opt_critic = critic_opt_.get();
  // SaveTrainerCheckpoint only reads through the non-const pointers.
  parts.progress = const_cast<TrainProgress*>(&progress_);
  return SaveTrainerCheckpoint(parts, path, [&](nn::CheckpointWriter* w) {
    {
      nn::ByteWriter b;
      const math::Rng::State rs = rng_.SaveState();
      for (uint64_t word : rs.s) b.U64(word);
      b.U8(rs.has_cached_normal ? 1 : 0);
      b.F64(rs.cached_normal);
      w->AddSection("rng", b.Take());
    }
    {
      nn::ByteWriter b;
      b.U64(replay_.size());
      b.U64(static_cast<uint64_t>(replay_next_));
      for (const Transition& tr : replay_) {
        b.TensorPayload(tr.state);
        b.TensorPayload(tr.action);
        b.F64(tr.reward);
        b.TensorPayload(tr.next_state);
      }
      w->AddSection("replay", b.Take());
    }
    {
      nn::ByteWriter b;
      b.U8(has_env_cursor_ ? 1 : 0);
      b.I64(env_cursor_.day);
      b.F64(env_cursor_.wealth);
      b.DoubleVec(env_cursor_.held);
      b.DoubleVec(held_);
      w->AddSection("env", b.Take());
    }
  });
}

Status DdpgAgent::LoadCheckpoint(const std::string& path) {
  nn::ModuleGroup all = AllModules();
  TrainerCheckpointParts parts;
  parts.meta = Meta();
  parts.modules = &all;
  parts.opt_actor = actor_opt_.get();
  parts.opt_critic = critic_opt_.get();
  parts.progress = &progress_;

  // Trainer-specific state is staged here by the parse callback and only
  // committed after every section of the checkpoint validated.
  math::Rng::State rng_state;
  std::vector<Transition> replay;
  int64_t replay_next = 0;
  env::PortfolioEnv::EnvCursor cursor;
  bool has_cursor = false;
  std::vector<double> held;
  const int64_t state_dim = config_.window * num_assets_ + num_assets_;

  auto finite = [](const Tensor& t) {
    for (int64_t j = 0; j < t.numel(); ++j) {
      if (!std::isfinite(t[j])) return false;
    }
    return true;
  };

  const Status status = LoadTrainerCheckpoint(
      parts, path, [&](const nn::CheckpointReader& ckpt) -> Status {
        {
          auto section = ckpt.Section("rng");
          if (!section.ok()) return section.status();
          nn::ByteReader b = section.value();
          for (uint64_t& word : rng_state.s) word = b.U64();
          const uint8_t cached = b.U8();
          rng_state.cached_normal = b.F64();
          if (!b.ok() || !b.AtEnd() || cached > 1 ||
              (cached == 1 && !std::isfinite(rng_state.cached_normal))) {
            return Status::InvalidArgument("corrupt rng section");
          }
          rng_state.has_cached_normal = cached == 1;
        }
        {
          auto section = ckpt.Section("replay");
          if (!section.ok()) return section.status();
          nn::ByteReader b = section.value();
          const uint64_t size = b.U64();
          const uint64_t next = b.U64();
          if (!b.ok() ||
              size > static_cast<uint64_t>(config_.replay_capacity) ||
              next > size ||
              next >= static_cast<uint64_t>(config_.replay_capacity)) {
            return Status::InvalidArgument("corrupt replay header");
          }
          replay.reserve(size);
          for (uint64_t i = 0; i < size; ++i) {
            Transition tr;
            tr.state = b.TensorPayload();
            tr.action = b.TensorPayload();
            tr.reward = b.F64();
            tr.next_state = b.TensorPayload();
            if (!b.ok() || tr.state.numel() != state_dim ||
                tr.action.numel() != num_assets_ ||
                tr.next_state.numel() != state_dim ||
                !std::isfinite(tr.reward) || !finite(tr.state) ||
                !finite(tr.action) || !finite(tr.next_state)) {
              return Status::InvalidArgument("corrupt replay transition");
            }
            replay.push_back(std::move(tr));
          }
          if (!b.AtEnd()) {
            return Status::InvalidArgument(
                "trailing bytes in replay section");
          }
          replay_next = static_cast<int64_t>(next);
        }
        {
          auto section = ckpt.Section("env");
          if (!section.ok()) return section.status();
          nn::ByteReader b = section.value();
          const uint8_t flag = b.U8();
          cursor.day = b.I64();
          cursor.wealth = b.F64();
          cursor.held = b.DoubleVec();
          held = b.DoubleVec();
          if (!b.ok() || !b.AtEnd() || flag > 1 ||
              static_cast<int64_t>(held.size()) != num_assets_ ||
              !env::IsValidPortfolio(held)) {
            return Status::InvalidArgument("corrupt env section");
          }
          if (flag == 1 &&
              (static_cast<int64_t>(cursor.held.size()) != num_assets_ ||
               !env::IsValidPortfolio(cursor.held) ||
               !std::isfinite(cursor.wealth) || cursor.wealth <= 0.0)) {
            return Status::InvalidArgument("corrupt env cursor");
          }
          has_cursor = flag == 1;
        }
        return Status::OK();
      });
  if (!status.ok()) return status;

  rng_.RestoreState(rng_state);
  replay_ = std::move(replay);
  replay_next_ = replay_next;
  env_cursor_ = std::move(cursor);
  has_env_cursor_ = has_cursor;
  held_ = std::move(held);
  return Status::OK();
}

std::vector<double> DdpgAgent::DecideWeights(const market::PanelView& panel,
                                             int64_t day) {
  ag::NoGradGuard no_grad;
  Tensor state = StateTensor(panel, day);
  Tensor scores = decide_plan_.Run({&state}, [&] {
    return actor_->Forward(ag::Var::Constant(state));
  });
  std::vector<double> weights = SoftmaxWeights(scores);
  held_ = weights;
  return weights;
}

}  // namespace cit::rl
