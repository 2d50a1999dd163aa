#ifndef CIT_RL_TRAIN_LOOP_H_
#define CIT_RL_TRAIN_LOOP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "math/rng.h"
#include "nn/checkpoint.h"
#include "nn/optimizer.h"
#include "obs/telemetry.h"

namespace cit::rl {

// Mutable progress of a training loop, checkpointed alongside parameters
// and optimizer state: the next update index plus the partially-filled
// learning-curve accumulators.
struct TrainProgress {
  int64_t next_update = 0;
  std::vector<double> curve;
  double curve_acc = 0.0;
  int64_t curve_n = 0;
};

void AppendTrainProgress(const TrainProgress& progress, nn::ByteWriter* out);
// Parses into `*out` (overwriting it) with validation; on error `*out` is
// unspecified — parse into a temporary when transactionality matters.
Status ParseTrainProgress(nn::ByteReader* in, TrainProgress* out);

// A trainer as RunTrainLoop drives it. `update(step)` runs optimizer update
// `step` on the calling thread and returns its reward, the sample the
// learning curve averages. `load` and `save` restore and write the
// trainer's full checkpoint, the loop's TrainProgress included; a trainer
// without checkpoints leaves both empty.
struct TrainerHooks {
  std::function<double(int64_t step)> update;
  std::function<Status(const std::string& path)> load = nullptr;
  std::function<Status(const std::string& path)> save = nullptr;
};

// The loop's settings, which every trainer config (RlTrainConfig,
// core::CrossInsightConfig) names alike; see the RunTrainLoop template.
struct TrainLoopSettings {
  int64_t train_steps = 0;
  int64_t curve_points = 20;
  int64_t checkpoint_every = 0;
  std::string checkpoint_path;
  std::string resume_from;
  obs::TelemetryConfig telemetry;
};

// The training loop every trainer runs:
//  1. resumes through hooks.load when resume_from is set (the load restores
//     *progress), or starts *progress afresh; then opens the run's
//     telemetry session (settings.telemetry);
//  2. runs updates next_update .. train_steps - 1, each in a train.update
//     span: the update, the train.reward gauge, the learning curve (one
//     point per max(1, train_steps / curve_points) updates, the mean of
//     their rewards), a checkpoint through hooks.save every
//     checkpoint_every updates when checkpoint_path is set, and the
//     telemetry tick;
//  3. returns the curve and clears *progress.
// A resumed run is bitwise identical to the uninterrupted one when
// update(step) depends only on `step` and on state the checkpoint holds.
// Asking a trainer without load (save) to resume (checkpoint) aborts, and
// so does a curve_points below 1.
std::vector<double> RunTrainLoop(const TrainLoopSettings& settings,
                                 TrainProgress* progress,
                                 const TrainerHooks& hooks);

template <typename Config>
std::vector<double> RunTrainLoop(const Config& config, int64_t curve_points,
                                 TrainProgress* progress,
                                 const TrainerHooks& hooks) {
  return RunTrainLoop(
      TrainLoopSettings{config.train_steps, curve_points,
                        config.checkpoint_every, config.checkpoint_path,
                        config.resume_from, config.telemetry},
      progress, hooks);
}

// Runs `collect`, the one rollout of update `step`, on the calling thread
// with the stream Rng::Split(seed, step, 0). The stream is a pure function
// of (seed, step), so the update index alone fixes every draw of a resumed
// run.
void CollectRollout(uint64_t seed, int64_t step,
                    const std::function<void(math::Rng&)>& collect);

// The checkpoint sections every trainer shares: identity meta, the flat
// parameter blob, two optimizer states, and training progress. The
// modules behind the group, the optimizers and the progress are borrowed;
// they must outlive the Save/Load call.
struct TrainerCheckpointParts {
  nn::CheckpointMeta meta;
  nn::ModuleGroup modules;
  nn::Optimizer* opt_actor = nullptr;
  nn::Optimizer* opt_critic = nullptr;
  TrainProgress* progress = nullptr;
};

// Writes the shared sections (plus any trainer-specific ones added by
// `extra`) atomically to `path`.
Status SaveTrainerCheckpoint(
    const TrainerCheckpointParts& parts, const std::string& path,
    const std::function<void(nn::CheckpointWriter*)>& extra = nullptr);

// Transactional load: every section — including `parse_extra`, which must
// only parse trainer-specific sections into caller-owned staging — is
// validated before anything is committed, so a corrupt or mismatched
// checkpoint leaves the trainer untouched. Callers commit their extra
// staged state only after this returns OK.
Status LoadTrainerCheckpoint(
    const TrainerCheckpointParts& parts, const std::string& path,
    const std::function<Status(const nn::CheckpointReader&)>& parse_extra =
        nullptr);

}  // namespace cit::rl

#endif  // CIT_RL_TRAIN_LOOP_H_
