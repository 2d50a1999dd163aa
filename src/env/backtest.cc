#include "env/backtest.h"

#include <cmath>

#include "common/check.h"
#include "math/autograd.h"
#include "obs/telemetry.h"

namespace cit::env {

BacktestResult RunBacktest(TradingAgent& agent,
                           const market::PanelView& view,
                           const EnvConfig& config) {
  PortfolioEnv env(view, config);
  agent.Reset();

  BacktestResult result;
  result.agent_name = agent.name();
  result.wealth.push_back(1.0);
  result.days.push_back(env.current_day());
  // A backtest only ever reads policy outputs, so the whole evaluation loop
  // runs graph-free: model forwards inside DecideWeights allocate no tape.
  ag::NoGradGuard no_grad;
  while (!env.done()) {
    CIT_OBS_SPAN("backtest.step");
    CIT_OBS_COUNT("backtest.steps", 1);
    std::vector<double> weights =
        agent.DecideWeights(view, env.current_day());
    // A single bad action (NaN/negative/unnormalized) from one agent must
    // degrade gracefully, not CHECK-abort a comparison run covering every
    // baseline: repair it onto the simplex and count the repair. A size
    // mismatch stays fatal — that is a wiring bug, not a bad action.
    if (!IsValidPortfolio(weights)) {
      weights = NormalizeToSimplex(std::move(weights));
      ++result.repaired_steps;
      CIT_OBS_COUNT("backtest.repaired_steps", 1);
    }
    const StepResult step = env.Step(weights);
    result.turnover += step.turnover;
    result.wealth.push_back(env.wealth());
    result.days.push_back(env.current_day());
    result.daily_returns.push_back(std::exp(step.reward) - 1.0);
  }
  result.metrics = ComputeMetrics(result.wealth);
  CIT_OBS_GAUGE("backtest.turnover", result.turnover);
  return result;
}

BacktestResult RunTestBacktest(TradingAgent& agent,
                               const market::PanelView& view,
                               int64_t window, double transaction_cost) {
  CIT_CHECK_GT(view.train_end(), window);
  EnvConfig config;
  config.window = window;
  config.transaction_cost = transaction_cost;
  config.start_day = view.train_end();
  config.end_day = view.num_days() - 1;
  return RunBacktest(agent, view, config);
}

}  // namespace cit::env
