#ifndef CIT_CORE_CONFIG_H_
#define CIT_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "obs/telemetry.h"

namespace cit::core {

// Which temporal/spatial encoder the actors use (Fig. 7 ablation).
enum class BackboneKind {
  kTcnAttention,  // the paper's design: TCN + spatial attention ("ours")
  kGruAttention,  // GRU + spatial attention ("ours (GRU)")
  kGru,           // plain GRU, no asset-correlation modeling
  kMlp,           // plain MLP on the flattened window
};

// How per-policy training signals are derived from the critic (Fig. 8
// ablation).
enum class CreditMode {
  kCounterfactual,  // paper Eq. (8): A^k = Q(x, a~) - Q(x, (a~^-k, mu^k))
  kSharedQ,         // all policies optimized with the same Q-value
  kDecCritic,       // decentralized critics, one per policy
};

const char* BackboneKindName(BackboneKind kind);
const char* CreditModeName(CreditMode mode);

// Hyper-parameters of the cross-insight trader. Defaults are scaled for the
// single-core CPU budget; the paper's GPU setting (50k steps, lr 1e-4) is
// reachable via train_steps/lr.
struct CrossInsightConfig {
  // num_policies == n, the number of horizon-specific policies; 0 makes the
  // framework degenerate into plain A2C (Table IV's first row).
  int64_t num_policies = 5;
  int64_t window = 24;        // z, the observed price-window length
  int64_t feature_dim = 6;    // f, per-asset hidden features
  int64_t tcn_blocks = 2;
  int64_t kernel_size = 3;
  int64_t head_hidden = 24;   // policy-head MLP width
  // Pre-softmax action scores are squashed to (-score_bound, score_bound)
  // by a scaled tanh. Unbounded scores let softmax saturate onto a single
  // asset early in training, killing the policy gradient (weights become
  // insensitive to the Gaussian sample); bounding keeps learning alive.
  double score_bound = 2.5;
  int64_t critic_hidden = 48;
  // Trailing days of the price window fed to the critic as the market
  // state. A compact market summary keeps the critic sensitive to the
  // action/pre-decision slots, which the counterfactual baselines need.
  int64_t critic_market_days = 8;
  // Standardize policy-gradient weights per policy across each rollout
  // (state-independent rescaling). Off by default: with the counterfactual
  // baselines the raw advantage scale is already well-conditioned.
  bool normalize_advantages = false;
  BackboneKind backbone = BackboneKind::kTcnAttention;
  CreditMode credit = CreditMode::kCounterfactual;

  // Prices are exogenous, so a short effective horizon carries the
  // credit signal; the counterfactual baseline cancels most of the
  // remaining future-noise variance.
  double gamma = 0.6;
  double lambda = 0.9;        // TD(lambda) mixing weight, Eq. (6)
  int64_t n_step = 5;         // paper: "maximum n for n-step return is 5"
  double lr = 2e-3;
  double weight_decay = 1e-5; // paper: L2 regularizer 1e-5
  int64_t train_steps = 400;  // optimizer updates, one rollout each
  int64_t rollout_len = 16;   // steps per rollout (>= 1)
  double entropy_coef = 0.01;
  double reward_scale = 100.0;
  double transaction_cost = 1e-3;
  float init_log_std = -1.0f;
  uint64_t seed = 1;

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

}  // namespace cit::core

#endif  // CIT_CORE_CONFIG_H_
