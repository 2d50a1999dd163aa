#include "rl/train_loop.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/telemetry.h"

namespace cit::rl {

std::vector<double> RunTrainLoop(const TrainLoopSettings& settings,
                                 TrainProgress* progress,
                                 const TrainerHooks& hooks) {
  const bool checkpoints =
      settings.checkpoint_every > 0 && !settings.checkpoint_path.empty();
  CIT_CHECK_MSG(settings.resume_from.empty() || hooks.load,
                "resume_from is set, but this trainer has no checkpoint to "
                "resume from");
  CIT_CHECK_MSG(!checkpoints || hooks.save,
                "checkpoint_every and checkpoint_path are set, but this "
                "trainer writes no checkpoints");
  CIT_CHECK_MSG(settings.curve_points >= 1,
                "curve_points must be at least 1");
  const int64_t curve_every =
      std::max<int64_t>(1, settings.train_steps / settings.curve_points);

  // Resuming restores weights, optimizer moments and *progress; an update
  // draws only from its own counter-split stream, so continuing from
  // update k replays exactly what the uninterrupted run computed.
  if (!settings.resume_from.empty()) {
    const Status resume = hooks.load(settings.resume_from);
    CIT_CHECK_MSG(resume.ok(), resume.message().c_str());
  } else {
    *progress = {};
  }

  // Scopes this run's telemetry: flips the runtime flag, starts/stops the
  // trace, and appends periodic snapshot lines. Observational only — the
  // curve is bitwise identical with telemetry on or off.
  obs::TelemetrySession telemetry(settings.telemetry);

  for (int64_t step = progress->next_update; step < settings.train_steps;
       ++step) {
    CIT_OBS_SPAN("train.update");
    const double reward = hooks.update(step);
    CIT_OBS_GAUGE("train.reward", reward);
    progress->curve_acc += reward;
    ++progress->curve_n;
    if ((step + 1) % curve_every == 0) {
      progress->curve.push_back(progress->curve_acc /
                                static_cast<double>(progress->curve_n));
      progress->curve_acc = 0.0;
      progress->curve_n = 0;
    }
    progress->next_update = step + 1;
    if (checkpoints && (step + 1) % settings.checkpoint_every == 0) {
      CIT_OBS_SPAN("train.checkpoint");
      const Status saved = hooks.save(settings.checkpoint_path);
      CIT_CHECK_MSG(saved.ok(), saved.message().c_str());
    }
    telemetry.Tick(step);
  }
  std::vector<double> curve = std::move(progress->curve);
  *progress = {};
  return curve;
}

void CollectRollout(uint64_t seed, int64_t step,
                    const std::function<void(math::Rng&)>& collect) {
  CIT_OBS_SPAN("train.rollout");
  // The same interval as train.rollout, kept under its own name because
  // the end-to-end benchmark reports it; with env.step_us it splits a
  // rollout into env-step vs forward-pass cost.
  CIT_OBS_SPAN("rollout.slot");
  CIT_OBS_COUNT("rollout.slots", 1);
  math::Rng rng =
      math::Rng::Split(seed, static_cast<uint64_t>(step), /*slot=*/0);
  collect(rng);
}

void AppendTrainProgress(const TrainProgress& progress, nn::ByteWriter* out) {
  out->I64(progress.next_update);
  out->DoubleVec(progress.curve);
  out->F64(progress.curve_acc);
  out->I64(progress.curve_n);
}

Status ParseTrainProgress(nn::ByteReader* in, TrainProgress* out) {
  out->next_update = in->I64();
  out->curve = in->DoubleVec();
  out->curve_acc = in->F64();
  out->curve_n = in->I64();
  if (!in->ok() || out->next_update < 0 || out->curve_n < 0) {
    return Status::InvalidArgument("corrupt training progress section");
  }
  // A non-finite curve point or accumulator would reach the resumed run's
  // learning curve.
  bool finite = std::isfinite(out->curve_acc);
  for (double v : out->curve) finite = finite && std::isfinite(v);
  if (!finite) {
    return Status::InvalidArgument("non-finite value in training progress");
  }
  return Status::OK();
}

Status SaveTrainerCheckpoint(
    const TrainerCheckpointParts& parts, const std::string& path,
    const std::function<void(nn::CheckpointWriter*)>& extra) {
  CIT_CHECK(parts.opt_actor && parts.opt_critic && parts.progress);
  nn::CheckpointWriter writer;
  {
    nn::ByteWriter b;
    nn::AppendMeta(parts.meta, &b);
    writer.AddSection("meta", b.Take());
  }
  {
    nn::ByteWriter b;
    nn::AppendModuleParameters(parts.modules, &b);
    writer.AddSection("params", b.Take());
  }
  {
    nn::ByteWriter b;
    parts.opt_actor->SaveState(&b);
    writer.AddSection("opt_actor", b.Take());
  }
  {
    nn::ByteWriter b;
    parts.opt_critic->SaveState(&b);
    writer.AddSection("opt_critic", b.Take());
  }
  {
    nn::ByteWriter b;
    AppendTrainProgress(*parts.progress, &b);
    writer.AddSection("progress", b.Take());
  }
  if (extra) extra(&writer);
  return writer.WriteAtomic(path);
}

Status LoadTrainerCheckpoint(
    const TrainerCheckpointParts& parts, const std::string& path,
    const std::function<Status(const nn::CheckpointReader&)>& parse_extra) {
  CIT_CHECK(parts.opt_actor && parts.opt_critic && parts.progress);
  auto opened = nn::CheckpointReader::Open(path);
  if (!opened.ok()) return opened.status();
  const nn::CheckpointReader& ckpt = opened.value();

  auto meta_r = ckpt.Section("meta");
  if (!meta_r.ok()) return meta_r.status();
  nn::ByteReader meta = meta_r.value();
  if (Status s = nn::ValidateMeta(&meta, parts.meta); !s.ok()) return s;

  // Stage every section before committing anything.
  auto params_r = ckpt.Section("params");
  if (!params_r.ok()) return params_r.status();
  nn::ByteReader params = params_r.value();
  std::vector<math::Tensor> staged_params;
  if (Status s = nn::ParseParameters(&params, parts.modules, &staged_params);
      !s.ok()) {
    return s;
  }
  if (!params.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in params section");
  }

  nn::Optimizer::StagedState actor_state, critic_state;
  auto opt_a_r = ckpt.Section("opt_actor");
  if (!opt_a_r.ok()) return opt_a_r.status();
  nn::ByteReader opt_a = opt_a_r.value();
  if (Status s = parts.opt_actor->ParseState(&opt_a, &actor_state); !s.ok()) {
    return s;
  }
  auto opt_c_r = ckpt.Section("opt_critic");
  if (!opt_c_r.ok()) return opt_c_r.status();
  nn::ByteReader opt_c = opt_c_r.value();
  if (Status s = parts.opt_critic->ParseState(&opt_c, &critic_state);
      !s.ok()) {
    return s;
  }

  auto progress_r = ckpt.Section("progress");
  if (!progress_r.ok()) return progress_r.status();
  nn::ByteReader progress_bytes = progress_r.value();
  TrainProgress progress;
  if (Status s = ParseTrainProgress(&progress_bytes, &progress); !s.ok()) {
    return s;
  }

  if (parse_extra) {
    if (Status s = parse_extra(ckpt); !s.ok()) return s;
  }

  nn::CommitParameters(std::move(staged_params), parts.modules);
  parts.opt_actor->CommitState(std::move(actor_state));
  parts.opt_critic->CommitState(std::move(critic_state));
  *parts.progress = std::move(progress);
  return Status::OK();
}

}  // namespace cit::rl
