#ifndef CIT_RL_CONFIG_H_
#define CIT_RL_CONFIG_H_

#include <cstdint>
#include <string>

#include "obs/telemetry.h"

namespace cit::rl {

// Shared hyper-parameters of the deep-RL baseline trainers. Defaults are
// sized for the single-core CPU budget; `train_steps` is further multiplied
// by cit::ScaledStepFactor() at experiment level.
struct RlTrainConfig {
  int64_t window = 24;            // observed price-window length z
  double transaction_cost = 1e-3;
  // Prices are exogenous (actions only couple through holdings/costs), so
  // a short effective horizon is appropriate; high discounts only inject
  // future-noise variance into the advantages.
  double gamma = 0.5;
  double lr = 1e-3;
  double weight_decay = 1e-5;     // paper: 1e-5 L2 regularization
  int64_t train_steps = 300;      // optimizer updates
  // Steps of the one rollout each on-policy update (A2C, SARL, PPO)
  // collects; >= 1.
  int64_t rollout_len = 16;
  double entropy_coef = 0.01;
  double reward_scale = 100.0;    // log returns are ~1e-3; rescale for SGD
  int64_t hidden = 32;
  uint64_t seed = 1;
  float init_log_std = -1.0f;

  // Crash-safe checkpointing (see DESIGN.md "Checkpointing"). Every
  // `checkpoint_every` updates the full training state is written
  // atomically to `checkpoint_path`; 0 disables. A non-empty `resume_from`
  // makes Train() restore that checkpoint and continue — bitwise identical
  // to the uninterrupted run, at any CIT_NUM_THREADS.
  int64_t checkpoint_every = 0;
  std::string checkpoint_path;
  std::string resume_from;

  // Telemetry for this run (see DESIGN.md "Observability"): phase timings,
  // loss/grad-norm gauges, optional trace + snapshot files. Off by default;
  // CIT_TELEMETRY / CIT_TRACE / CIT_METRICS override at runtime. Purely
  // observational — curves are bitwise identical with it on or off.
  obs::TelemetryConfig telemetry;
};

}  // namespace cit::rl

#endif  // CIT_RL_CONFIG_H_
