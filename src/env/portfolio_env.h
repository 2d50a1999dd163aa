#ifndef CIT_ENV_PORTFOLIO_ENV_H_
#define CIT_ENV_PORTFOLIO_ENV_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "market/panel.h"
#include "market/source.h"

namespace cit::env {

// Environment parameters of the portfolio-management MDP (paper Sec. III).
struct EnvConfig {
  int64_t window = 32;              // length z of the observed price window
  double transaction_cost = 1e-3;   // proportional cost on turnover
  int64_t start_day = -1;           // -1: first day with a full window
  int64_t end_day = -1;             // -1: last day of the panel
};

// Result of one environment transition.
struct StepResult {
  double reward = 0.0;          // log of the net portfolio growth
  double portfolio_return = 0.0;  // gross growth ratio a^T x_t
  double cost = 0.0;            // transaction cost paid this step
  double turnover = 0.0;        // sum_i |w_i - held_i| rebalanced this step
  bool done = false;
};

// The portfolio-management MDP over a fixed price panel. State: the trailing
// window of closing prices per asset (plus, by convention, the previously
// executed weights available via previous_weights()). Action: a point on the
// m-simplex (portfolio weights, long-only, fully invested). Reward: the log
// return of the portfolio value net of proportional transaction costs
// (r_t = log(a_t . x_t) in the paper, extended with costs). The market is
// exogenous: actions do not move prices (s_{t+1} ~ Z(s_t)).
//
// Prices are read through a market::PanelView, so the same env runs over
// in-memory panels, streamed CSVs, on-demand simulators, and scenario
// stacks (DESIGN.md §11). Scenario sources may widen the transaction cost
// on specific days via the view's CostMultiplier.
class PortfolioEnv {
 public:
  // The source behind `view` must outlive the env and all its clones.
  PortfolioEnv(market::PanelView view, EnvConfig config);

  // Moves to `start_day` (or the default) and resets wealth and weights.
  void Reset();
  // Resets to a specific day within [earliest_start, end_day).
  void ResetAt(int64_t day);

  // An independent copy of this env reset at `day`. The price data is
  // shared (sources and views are immutable), all mutable state is
  // private to the clone — this is how parallel rollout collection gives
  // every slot its own env.
  PortfolioEnv CloneAt(int64_t day) const;

  // Executes target weights for the transition day -> day+1. `weights` must
  // be non-negative and sum to ~1 (checked).
  StepResult Step(const std::vector<double>& weights);

  int64_t current_day() const { return day_; }
  double wealth() const { return wealth_; }
  bool done() const { return day_ >= end_day_; }

  // Weights executed at the previous step, drifted by realized returns
  // (what the portfolio currently holds before rebalancing).
  const std::vector<double>& previous_weights() const { return held_; }

  // Snapshot of the mutable MDP state, sufficient to recreate this env's
  // position exactly (the panel and config are reconstructed by the owner).
  // Used by trainer checkpoints.
  struct EnvCursor {
    int64_t day = 0;
    double wealth = 1.0;
    std::vector<double> held;
  };
  EnvCursor Cursor() const;
  // Restores a cursor, validating day range and holdings size/feasibility;
  // on error the env is unchanged.
  Status RestoreCursor(const EnvCursor& cursor);

  // The trailing close-price window ending at the current day, as a
  // [window * num_assets] row-major (time, asset) vector.
  std::vector<double> PriceWindow() const;

  // Trailing price-relative window (p_t/p_{t-1}), same layout.
  std::vector<double> RelativeWindow() const;

  int64_t num_assets() const { return view_.num_assets(); }
  int64_t window() const { return config_.window; }
  int64_t earliest_start() const { return config_.window; }
  int64_t end_day() const { return end_day_; }

  const market::PanelView& view() const { return view_; }

 private:
  market::PanelView view_;
  EnvConfig config_;
  int64_t start_day_;
  int64_t end_day_;
  int64_t day_ = 0;
  double wealth_ = 1.0;
  std::vector<double> held_;  // current (drifted) holdings as weights
};

// Checks simplex feasibility: non-negative, sums to 1 within `tol`.
bool IsValidPortfolio(const std::vector<double>& w, double tol = 1e-4);

// Projects arbitrary non-negative scores onto the simplex by normalization;
// falls back to uniform when the sum is degenerate.
std::vector<double> NormalizeToSimplex(std::vector<double> w);

}  // namespace cit::env

#endif  // CIT_ENV_PORTFOLIO_ENV_H_
