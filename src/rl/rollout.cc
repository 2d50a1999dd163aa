#include "rl/rollout.h"

#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/telemetry.h"

namespace cit::rl {

RolloutRunner::RolloutRunner(uint64_t seed, int64_t num_slots)
    : seed_(seed), num_slots_(num_slots) {
  CIT_CHECK_GE(num_slots, 1);
}

void RolloutRunner::Collect(
    int64_t step,
    const std::function<void(int64_t, math::Rng&)>& body) const {
  ThreadPool::Global().ParallelFor(0, num_slots_, [&](int64_t slot) {
    // Per-slot wall time; together with env.step_us this splits a rollout
    // into env-step vs forward-pass cost.
    CIT_OBS_SPAN("rollout.slot");
    CIT_OBS_COUNT("rollout.slots", 1);
    math::Rng rng = math::Rng::Split(seed_, static_cast<uint64_t>(step),
                                     static_cast<uint64_t>(slot));
    body(slot, rng);
  });
}

void RolloutRunner::ForEachSlot(
    const std::function<void(int64_t)>& body) const {
  ThreadPool::Global().ParallelFor(0, num_slots_, body);
}

void RolloutRunner::Collect(
    const std::function<void(int64_t, math::Rng&)>& body) {
  Collect(next_step_, body);
  ++next_step_;
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
  return Status::OK();
}

Status SaveTrainerCheckpoint(
    const TrainerCheckpointParts& parts, const std::string& path,
    const std::function<void(nn::CheckpointWriter*)>& extra) {
  CIT_CHECK(parts.modules && parts.opt_actor && parts.opt_critic &&
            parts.progress);
  nn::CheckpointWriter writer;
  {
    nn::ByteWriter b;
    nn::AppendMeta(parts.meta, &b);
    writer.AddSection("meta", b.Take());
  }
  {
    nn::ByteWriter b;
    nn::AppendModuleParameters(*parts.modules, &b);
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
  CIT_CHECK(parts.modules && parts.opt_actor && parts.opt_critic &&
            parts.progress);
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
  if (Status s = nn::ParseParameters(&params, *parts.modules, &staged_params);
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

  nn::CommitParameters(std::move(staged_params), *parts.modules);
  parts.opt_actor->CommitState(std::move(actor_state));
  parts.opt_critic->CommitState(std::move(critic_state));
  *parts.progress = std::move(progress);
  return Status::OK();
}

}  // namespace cit::rl
