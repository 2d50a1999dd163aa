#ifndef CIT_RL_DEEPTRADER_H_
#define CIT_RL_DEEPTRADER_H_

#include <memory>
#include <string>
#include <vector>

#include "env/backtest.h"
#include "market/source.h"
#include "math/plan.h"
#include "math/rng.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "rl/config.h"
#include "rl/gaussian_policy.h"

namespace cit::rl {

// DeepTrader-style baseline (Wang et al. 2021): an asset scoring unit (a
// dilated-convolution encoder per asset) produces cross-sectional scores,
// and a market scoring unit maps market-level features to a risk appetite
// rho in (0,1) conditioning how aggressively the portfolio concentrates.
// The original allocates a short side from 1-rho; in this long-only
// reproduction rho instead scales the softmax temperature (bearish market
// -> flatter, more diversified portfolio), and training maximizes the
// risk-penalized log return (DESIGN.md documents the substitution).
class DeepTraderAgent : public env::TradingAgent {
 public:
  struct DeepTraderConfig : RlTrainConfig {
    int64_t conv_channels = 6;
    int64_t segment_len = 8;
    double risk_coef = 4.0;  // weight of the downside penalty
  };

  DeepTraderAgent(int64_t num_assets, const DeepTraderConfig& config);

  std::vector<double> Train(const market::PanelView& panel,
                            int64_t curve_points = 20);

  std::string name() const override { return "DeepTrader"; }
  void Reset() override;
  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t day) override;

  // Exposed for tests/diagnostics: the market unit's risk appetite at day.
  double RiskAppetite(const market::PanelView& panel, int64_t day) const;

 private:
  ag::Var AssetScores(const market::PanelView& panel, int64_t day) const;
  ag::Var MarketRho(const market::PanelView& panel, int64_t day) const;
  ag::Var Weights(const market::PanelView& panel, int64_t day) const;

  // The cross-asset average of a normalized [m, 1, z] window: the
  // synthetic index window feeding the market scoring unit.
  Tensor IndexWindow(const Tensor& window) const;
  // Forward from pre-built feature tensors, so DecideWeights can bind
  // them as varying inputs of the compiled plan.
  ag::Var ScoresFromWindow(const Tensor& window) const;
  ag::Var RhoFromIndex(const Tensor& index) const;
  ag::Var WeightsFromInputs(const Tensor& window, const Tensor& index) const;

  int64_t num_assets_;
  DeepTraderConfig config_;
  math::Rng rng_;
  std::unique_ptr<nn::CausalConv1d> conv1_;
  std::unique_ptr<nn::CausalConv1d> conv2_;
  std::unique_ptr<nn::Linear> score_head_;
  std::unique_ptr<nn::Mlp> market_unit_;
  std::unique_ptr<nn::Adam> opt_;
  std::vector<double> held_;
  // Compiled forward for the deterministic DecideWeights path.
  plan::CompiledFn decide_plan_;
};

}  // namespace cit::rl

#endif  // CIT_RL_DEEPTRADER_H_
