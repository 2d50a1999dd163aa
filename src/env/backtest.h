#ifndef CIT_ENV_BACKTEST_H_
#define CIT_ENV_BACKTEST_H_

#include <string>
#include <vector>

#include "env/metrics.h"
#include "env/portfolio_env.h"
#include "market/panel.h"
#include "market/source.h"

namespace cit::env {

// Common interface for anything that can trade: online-learning strategies,
// RL agents, and the cross-insight trader all implement it, so one
// backtester serves the entire evaluation section of the paper.
class TradingAgent {
 public:
  virtual ~TradingAgent() = default;

  virtual std::string name() const = 0;

  // Called once before a pass over data; clears internal state.
  virtual void Reset() {}

  // Returns target weights (a simplex point of size panel.num_assets())
  // for the transition day -> day+1. Implementations must only read panel
  // data at days <= day (no lookahead); tests enforce this for baselines.
  // The view's source must outlive the call.
  virtual std::vector<double> DecideWeights(const market::PanelView& panel,
                                            int64_t day) = 0;
};

// Outcome of one backtest pass.
struct BacktestResult {
  std::string agent_name;
  std::vector<double> wealth;          // S_0..S_T, S_0 = 1
  std::vector<double> daily_returns;   // length T
  std::vector<int64_t> days;           // panel day index per step
  PerformanceMetrics metrics;
  // Steps whose agent action was off the simplex (NaN, negative, or not
  // summing to 1) and was repaired via NormalizeToSimplex before execution.
  // 0 for a well-behaved agent; a non-zero count flags a defective policy
  // without killing the whole comparison run it is part of.
  int64_t repaired_steps = 0;
  // Total rebalancing turnover sum_t sum_i |w_ti - held_ti| executed over
  // the run — the quantity transaction costs are charged on.
  double turnover = 0.0;
};

// Runs `agent` through the env's day range and records the wealth curve.
// Off-simplex agent actions are projected back via NormalizeToSimplex and
// counted in BacktestResult::repaired_steps rather than aborting the run.
// The view's source must outlive the call.
BacktestResult RunBacktest(TradingAgent& agent,
                           const market::PanelView& view,
                           const EnvConfig& config);

// Convenience: backtests over the panel's test split (days >= train_end).
BacktestResult RunTestBacktest(TradingAgent& agent,
                               const market::PanelView& view,
                               int64_t window = 32,
                               double transaction_cost = 1e-3);

}  // namespace cit::env

#endif  // CIT_ENV_BACKTEST_H_
