#ifndef CIT_CORE_TRADER_H_
#define CIT_CORE_TRADER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/actor.h"
#include "core/config.h"
#include "common/status.h"
#include "core/critic.h"
#include "env/backtest.h"
#include "market/source.h"
#include "math/plan.h"
#include "math/rng.h"
#include "nn/checkpoint.h"
#include "nn/optimizer.h"
#include "rl/train_loop.h"

namespace cit::core {

// The cross-insight trader: n horizon-specific policies fed with DWT bands
// of the price window, a cross-insight policy fusing their pre-decisions,
// a centralized TD(lambda) critic, and the counterfactual credit-assignment
// mechanism (paper Sec. IV). Implements env::TradingAgent so the common
// backtester evaluates it alongside every baseline.
class CrossInsightTrader : public env::TradingAgent {
 public:
  CrossInsightTrader(int64_t num_assets, const CrossInsightConfig& config);

  // Trains on the panel's training split; returns the learning curve
  // (average scaled reward per rollout, bucketed into `curve_points`
  // checkpoints — the series plotted in Fig. 8).
  std::vector<double> Train(const market::PanelView& panel,
                            int64_t curve_points = 20);

  std::string name() const override { return "CIT"; }
  void Reset() override;
  // A batch of one through the stacked forward: the previous-action input
  // is held_actions_, and features come from the source-keyed cache.
  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t day) override;

  // Stateless batched decision for the serving path: decides every panel
  // at its own last day with uniform previous actions — exactly the
  // semantics of Reset() + DecideWeights(panel, num_days() - 1) per panel
  // — through one axis-0-stacked forward per policy, so N concurrent
  // requests pay one plan replay each instead of N. Each returned weight
  // vector is bitwise identical to the corresponding single-panel call.
  // Bypasses the source-keyed feature cache and mutates no execution
  // state; it drives the same CompiledFn caches as DecideWeights, so the
  // single-owner thread contract applies.
  std::vector<std::vector<double>> DecideWeightsBatch(
      const std::vector<market::PanelView>& panels);

  // An agent that trades policy k's pre-decision alone (deterministic),
  // used for the per-policy analysis of Figs. 5-6. The returned agent
  // borrows this trader, which must outlive it.
  std::unique_ptr<env::TradingAgent> MakePolicyAgent(int64_t k);

  // Deterministic pre-decision weights of policy k at `day`.
  std::vector<double> PolicyWeights(const market::PanelView& panel,
                                    int64_t day, int64_t k,
                                    const std::vector<double>& prev_action);

  // Persists / restores all trained weights (actors + critics). Loading
  // requires a trader constructed with an identical config and asset count.
  Status SaveModel(const std::string& path) const;
  Status LoadModel(const std::string& path);
  // LoadModel from the bytes of a weights file already read into memory.
  Status LoadModelFromBytes(const std::vector<uint8_t>& bytes);

  // Full crash-safe training state (weights + both Adam states + training
  // progress), written atomically. Train() calls this periodically when
  // config.checkpoint_every > 0 and restores from config.resume_from; a
  // resumed run is bitwise identical to the uninterrupted one. Loading is
  // transactional: on any error the trader is unchanged.
  Status SaveCheckpoint(const std::string& path) const;
  Status LoadCheckpoint(const std::string& path);

  const CrossInsightConfig& config() const { return config_; }
  int64_t num_assets() const { return num_assets_; }

  // Counterfactual advantages computed at the most recent training update
  // (diagnostics/tests).
  const std::vector<double>& last_advantages() const {
    return last_advantages_;
  }

 private:
  // One day's features, built in one pass into one tensor block; every
  // member is an axis-0 view into it (cd = the critic's trailing days).
  struct DayFeatures {
    std::vector<Tensor> bands;  // n tensors [m, 1, z]
    Tensor market;              // [m, 1, z]
    Tensor market_flat;         // [cd * m]
    std::vector<Tensor> band_flats;  // n tensors [cd * m]
  };

  // The cached features of `day`, computed on the first request. Features
  // are a pure function of (source, day, config), never of the weights.
  const DayFeatures& FeaturesAt(const market::PanelView& panel,
                                int64_t day);

  DayFeatures ComputeFeatures(const market::PanelView& panel,
                              int64_t day) const;

  // Deterministic Gaussian means of policy k for stacked (bands, prev)
  // ([B*m, 1, z], [B*m, 1]), served through the policy's compiled plan:
  // the first call per input shape records the forward, later calls
  // replay it allocation-free. Shared by every decide path so all of them
  // hit the same plan cache.
  Tensor PolicyMean(int64_t k, const Tensor& bands, const Tensor& prev);

  // The one decide path (paper Sec. IV-B): B requests' band windows,
  // stacked along axis 0, through each policy's plan, then the fusion over
  // the stacked market windows and pre-decisions. prev[k] stacks policy
  // k's previous actions ([B*m, 1]). Returns each request's final weights
  // and fills (*pre)[b][k] with request b's policy-k pre-decision. A batch
  // of one stacks nothing: its windows pass through as they are.
  std::vector<std::vector<double>> DecideStacked(
      const std::vector<const DayFeatures*>& feats,
      const std::vector<Tensor>& prev,
      std::vector<std::vector<std::vector<double>>>* pre);

  // All networks flattened under stable name prefixes — the parameter set
  // for SaveModel/LoadModel and checkpoints.
  nn::ModuleGroup AllModules() const;
  // Everything SaveCheckpoint writes and LoadCheckpoint restores.
  rl::TrainerCheckpointParts CheckpointParts() const;

  int64_t num_assets_;
  CrossInsightConfig config_;
  math::Rng rng_;

  std::vector<std::unique_ptr<HorizonActor>> actors_;
  std::unique_ptr<CrossInsightActor> cross_actor_;
  std::unique_ptr<CentralizedCritic> critic_;
  std::vector<std::unique_ptr<DecentralizedCritic>> dec_critics_;  // n+1

  std::unique_ptr<nn::Adam> actor_opt_;
  std::unique_ptr<nn::Adam> critic_opt_;

  // Execution state (previous action per horizon policy).
  std::vector<std::vector<double>> held_actions_;

  // Compiled-forward caches for the deterministic inference path: one per
  // horizon policy plus one for the cross-insight policy. Batch size is
  // the only varying part of the input-shape key, so each cache holds one
  // live key per batch size (serving mixes sizes 1..max_batch, within
  // plan::CompiledFn::kMaxEntries). Parameter
  // staleness is handled inside the plans (per-parameter version
  // snapshots), so training between backtests just re-records.
  std::vector<plan::CompiledFn> actor_plans_;
  plan::CompiledFn cross_plan_;

  // In-flight training progress; checkpointed and restored on resume.
  rl::TrainProgress progress_;

  // Per-day feature cache, keyed by day; invalidated when the view's
  // source id changes (ids are monotonic and never recycled, so this is
  // immune to address reuse). References returned by FeaturesAt stay
  // valid across inserts: unordered_map never moves mapped values.
  uint64_t cached_source_ = 0;  // 0 = no source cached
  std::unordered_map<int64_t, DayFeatures> feature_cache_;

  std::vector<double> last_advantages_;
};

}  // namespace cit::core

#endif  // CIT_CORE_TRADER_H_
