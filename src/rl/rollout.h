#ifndef CIT_RL_ROLLOUT_H_
#define CIT_RL_ROLLOUT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "math/rng.h"
#include "nn/checkpoint.h"
#include "nn/optimizer.h"

namespace cit::rl {

// Deterministic parallel rollout collection.
//
// Every on-policy trainer in this repo spends most of its wall time
// collecting rollouts: stepping a PortfolioEnv while running policy
// forward passes to sample actions. The rollouts of one update are
// mutually independent — they read frozen parameters and an immutable
// price panel — so a RolloutRunner schedules the K slots of an update
// onto the global ThreadPool and lets each slot fill its own storage.
//
// The determinism contract is the pool's: results are bitwise identical
// for any CIT_NUM_THREADS. Three rules deliver it:
//
//  1. Per-slot RNG streams are counter-split, not sequential: slot j of
//     update `step` draws from Rng::Split(seed, step, slot), a stream
//     that depends only on those integers — never on which thread runs
//     the slot or in which order slots finish.
//  2. A slot writes only its own storage (its env clone, its autograd
//     tape, its record vectors). Shared inputs (panel, parameters,
//     feature caches) are read-only or internally synchronized.
//  3. Consumers walk the slots in index order after Collect returns —
//     in particular, per-rollout losses are backpropagated and their
//     gradients accumulated in fixed slot order on the calling thread.
//
// Kernels never enter the pool: every kernel is a serial loop with a fixed
// per-element reduction order, so a slot computes the same floats on
// whichever thread runs it.
class RolloutRunner {
 public:
  // `seed` is the trainer's config seed; `num_slots` is K, the number of
  // independent rollouts collected per update.
  RolloutRunner(uint64_t seed, int64_t num_slots);

  int64_t num_slots() const { return num_slots_; }

  // Runs body(slot, rng) for every slot in [0, num_slots) on the global
  // ThreadPool, where rng == Rng::Split(seed, step, slot). Returns after
  // every slot finished. `body` must only write per-slot storage.
  void Collect(int64_t step,
               const std::function<void(int64_t, math::Rng&)>& body) const;

  // Parallel sweep over the slots without an RNG stream — used for
  // forward-only recomputation phases (e.g. re-estimating Q-values after
  // a critic update). Same write-isolation contract as Collect.
  void ForEachSlot(const std::function<void(int64_t)>& body) const;

  // Update counter for resumable training. Because the per-slot streams are
  // counter-split on (seed, step, slot), the entire RNG state of an
  // interrupted run is captured by the next update index alone: restore it
  // with set_next_step() and collection continues on exactly the streams an
  // uninterrupted run would have used.
  int64_t next_step() const { return next_step_; }
  void set_next_step(int64_t step) { next_step_ = step; }

  // Stateful form of Collect: uses next_step() as the update index, then
  // advances it.
  void Collect(const std::function<void(int64_t, math::Rng&)>& body);

 private:
  uint64_t seed_;
  int64_t num_slots_;
  int64_t next_step_ = 0;
};

// Mutable progress of a training loop, checkpointed alongside parameters
// and optimizer state: the next update index plus the partially-filled
// learning-curve accumulators. Restoring it and set_next_step() is all a
// counter-split trainer needs to continue a killed run bitwise-identically.
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

// The checkpoint sections every trainer shares: identity meta, the flat
// parameter blob, two optimizer states, and training progress. All members
// are borrowed; they must outlive the Save/Load call.
struct TrainerCheckpointParts {
  nn::CheckpointMeta meta;
  const nn::Module* modules = nullptr;
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

#endif  // CIT_RL_ROLLOUT_H_
