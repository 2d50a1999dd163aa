#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "env/backtest.h"
#include "env/metrics.h"
#include "env/portfolio_env.h"
#include "market/panel.h"
#include "market/simulator.h"
#include "math/rng.h"

namespace cit::env {
namespace {

market::PricePanel MakePanel(int64_t days, int64_t assets, uint64_t seed) {
  math::Rng rng(seed);
  market::PricePanel panel(days, assets);
  std::vector<double> price(assets, 100.0);
  for (int64_t t = 0; t < days; ++t) {
    for (int64_t i = 0; i < assets; ++i) {
      if (t > 0) price[i] *= std::exp(rng.Normal(0.0002, 0.01));
      panel.SetClose(t, i, price[i]);
    }
  }
  panel.set_train_end(days * 2 / 3);
  return panel;
}

// ---- Metrics ----------------------------------------------------------------

TEST(Metrics, DailyReturnsKnownValues) {
  const std::vector<double> wealth = {1.0, 1.1, 0.99};
  const auto r = DailyReturns(wealth);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_NEAR(r[0], 0.1, 1e-12);
  EXPECT_NEAR(r[1], 0.99 / 1.1 - 1.0, 1e-12);
}

TEST(Metrics, MaxDrawdownKnownCurve) {
  // Peak 2.0, trough 1.0 -> MDD = 0.5.
  const std::vector<double> wealth = {1.0, 2.0, 1.5, 1.0, 1.8};
  EXPECT_NEAR(MaxDrawdown(wealth), 0.5, 1e-12);
}

TEST(Metrics, MonotoneCurveHasZeroDrawdown) {
  EXPECT_EQ(MaxDrawdown({1.0, 1.1, 1.2, 1.5}), 0.0);
}

TEST(Metrics, AccumulativeReturnMatchesEndpoints) {
  const std::vector<double> wealth = {1.0, 1.05, 1.2};
  EXPECT_NEAR(ComputeMetrics(wealth).accumulative_return, 0.2, 1e-12);
}

TEST(Metrics, SharpeSignMatchesDrift) {
  std::vector<double> up = {1.0}, down = {1.0};
  math::Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    up.push_back(up.back() * std::exp(0.002 + 0.01 * rng.Normal()));
    down.push_back(down.back() * std::exp(-0.002 + 0.01 * rng.Normal()));
  }
  EXPECT_GT(ComputeMetrics(up).sharpe_ratio, 0.0);
  EXPECT_LT(ComputeMetrics(down).sharpe_ratio, 0.0);
}

TEST(Metrics, ConstantCurveHasZeroSharpe) {
  const std::vector<double> wealth(10, 1.0);
  const auto m = ComputeMetrics(wealth);
  EXPECT_EQ(m.sharpe_ratio, 0.0);
  EXPECT_EQ(m.accumulative_return, 0.0);
}

TEST(Metrics, ZeroVarianceGrowthCurveHasZeroSharpe) {
  // Doubling every day: every daily return is exactly 1.0, so the return
  // variance is exactly zero while the mean is large. The unguarded Sharpe
  // divided mean by std == 0 and emitted +Inf here (the constant-curve case
  // has mean == 0 too and hides the bug behind 0/0). Convention: zero-vol
  // series report Sharpe = 0 and a finite zero vol.
  const auto m = ComputeMetrics({1.0, 2.0, 4.0, 8.0});
  EXPECT_EQ(m.sharpe_ratio, 0.0);
  EXPECT_EQ(m.annualized_vol, 0.0);
  EXPECT_TRUE(std::isfinite(m.sharpe_ratio));
  EXPECT_NEAR(m.accumulative_return, 7.0, 1e-12);
  EXPECT_TRUE(std::isfinite(m.annualized_return));
  EXPECT_TRUE(std::isfinite(m.calmar_ratio));
}

TEST(Metrics, TwoPointZeroVolCurveHasZeroSharpe) {
  // Shortest legal curve with a nonzero move: the single return has
  // (n-1 == 0)-guarded variance 0, another mean/0 Sharpe trap.
  const auto m = ComputeMetrics({1.0, 1.07});
  EXPECT_EQ(m.sharpe_ratio, 0.0);
  EXPECT_EQ(m.annualized_vol, 0.0);
  EXPECT_TRUE(std::isfinite(m.annualized_return));
}

TEST(Metrics, TwoPointCurveAnnualizationStaysBounded) {
  // The shortest legal curve: one daily move. Unguarded annualization
  // raises 1.05 to the 252nd power (~2e5) and poisons Calmar; the
  // one-month floor caps extrapolation at ~12x the horizon.
  const auto m = ComputeMetrics({1.0, 1.05});
  EXPECT_TRUE(std::isfinite(m.annualized_return));
  EXPECT_GT(m.annualized_return, 0.0);
  EXPECT_LT(m.annualized_return, std::pow(1.05, 12.1) - 1.0);
  EXPECT_TRUE(std::isfinite(m.calmar_ratio));
  // A large single-day loss must not annualize below -100%.
  const auto loss = ComputeMetrics({1.0, 0.4});
  EXPECT_TRUE(std::isfinite(loss.annualized_return));
  EXPECT_GT(loss.annualized_return, -1.0);
  EXPECT_LT(loss.annualized_return, 0.0);
  EXPECT_TRUE(std::isfinite(loss.calmar_ratio));
  EXPECT_LT(loss.calmar_ratio, 0.0);
}

TEST(Metrics, FlatCurveHasZeroRatesAndRatios) {
  const auto m = ComputeMetrics(std::vector<double>(5, 2.5));
  EXPECT_EQ(m.accumulative_return, 0.0);
  EXPECT_NEAR(m.annualized_return, 0.0, 1e-12);
  EXPECT_EQ(m.annualized_vol, 0.0);
  EXPECT_EQ(m.max_drawdown, 0.0);
  EXPECT_NEAR(m.calmar_ratio, 0.0, 1e-10);
}

TEST(Metrics, AllLossCurveStaysFinite) {
  // Steady decay to ~0.5% of the start: every metric must stay finite
  // and the annualized rate must stay above total loss (-100%).
  std::vector<double> wealth = {1.0};
  for (int i = 0; i < 40; ++i) wealth.push_back(wealth.back() * 0.875);
  const auto m = ComputeMetrics(wealth);
  EXPECT_TRUE(std::isfinite(m.annualized_return));
  EXPECT_GT(m.annualized_return, -1.0);
  EXPECT_LT(m.annualized_return, 0.0);
  EXPECT_LT(m.sharpe_ratio, 0.0);
  EXPECT_TRUE(std::isfinite(m.calmar_ratio));
  EXPECT_GT(m.max_drawdown, 0.99);
}

// ---- Simplex helpers --------------------------------------------------------

TEST(Simplex, IsValidPortfolio) {
  EXPECT_TRUE(IsValidPortfolio({0.5, 0.5}));
  EXPECT_TRUE(IsValidPortfolio({1.0, 0.0}));
  EXPECT_FALSE(IsValidPortfolio({0.7, 0.7}));
  EXPECT_FALSE(IsValidPortfolio({-0.1, 1.1}));
}

TEST(Simplex, NormalizeToSimplexHandlesDegenerateInput) {
  auto w = NormalizeToSimplex({0.0, 0.0, 0.0});
  for (double v : w) EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
  auto w2 = NormalizeToSimplex({2.0, 2.0});
  EXPECT_NEAR(w2[0], 0.5, 1e-12);
  // Negative and NaN entries are clipped to zero.
  auto w3 = NormalizeToSimplex({-1.0, 3.0});
  EXPECT_NEAR(w3[0], 0.0, 1e-12);
  EXPECT_NEAR(w3[1], 1.0, 1e-12);
}

TEST(Simplex, NormalizeToSimplexHandlesNonFiniteSums) {
  // An infinite entry (or finite entries whose sum overflows) must fall
  // back to uniform weights, not emit zeros or NaNs from x/inf.
  const double huge = std::numeric_limits<double>::max();
  for (const auto& bad :
       {std::vector<double>{std::numeric_limits<double>::infinity(), 1.0},
        std::vector<double>{huge, huge},
        std::vector<double>{std::nan(""), std::nan("")}}) {
    const auto w = NormalizeToSimplex(bad);
    ASSERT_EQ(w.size(), bad.size());
    double sum = 0.0;
    for (double v : w) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

// ---- PortfolioEnv -----------------------------------------------------------

TEST(PortfolioEnv, WealthTelescopesWithoutCosts) {
  auto panel = MakePanel(100, 4, 1);
  EnvConfig cfg;
  cfg.window = 8;
  cfg.transaction_cost = 0.0;
  PortfolioEnv env(panel, cfg);
  math::Rng rng(2);
  double product = 1.0;
  while (!env.done()) {
    auto w = rng.Dirichlet(4, 1.0);
    const StepResult r = env.Step(w);
    product *= r.portfolio_return;
    EXPECT_NEAR(std::exp(r.reward), r.portfolio_return, 1e-9);
  }
  EXPECT_NEAR(env.wealth(), product, 1e-9);
}

TEST(PortfolioEnv, UniformBuyAndHoldMatchesIndexWhenCostFree) {
  auto panel = MakePanel(60, 3, 4);
  EnvConfig cfg;
  cfg.window = 4;
  cfg.transaction_cost = 0.0;
  PortfolioEnv env(panel, cfg);
  // Rebalancing to the drifted holdings = buy and hold.
  while (!env.done()) {
    env.Step(env.previous_weights());
  }
  const auto index = panel.IndexLevels(cfg.window);
  EXPECT_NEAR(env.wealth(), index.back(), 1e-9);
}

TEST(PortfolioEnv, TransactionCostsReduceWealth) {
  auto panel = MakePanel(80, 4, 5);
  EnvConfig cheap_cfg;
  cheap_cfg.window = 8;
  cheap_cfg.transaction_cost = 0.0;
  EnvConfig costly_cfg = cheap_cfg;
  costly_cfg.transaction_cost = 0.01;
  PortfolioEnv cheap(panel, cheap_cfg);
  PortfolioEnv costly(panel, costly_cfg);
  math::Rng rng(6);
  while (!cheap.done()) {
    auto w = rng.Dirichlet(4, 0.5);  // high-turnover trading
    cheap.Step(w);
    costly.Step(w);
  }
  EXPECT_LT(costly.wealth(), cheap.wealth());
}

TEST(PortfolioEnv, HeldWeightsDriftWithPrices) {
  market::PricePanel panel(10, 2);
  for (int64_t t = 0; t < 10; ++t) {
    panel.SetClose(t, 0, 100.0 * (1 << t));  // doubles every day
    panel.SetClose(t, 1, 100.0);
  }
  EnvConfig cfg;
  cfg.window = 2;
  cfg.transaction_cost = 0.0;
  PortfolioEnv env(panel, cfg);
  env.Step({0.5, 0.5});
  // Asset 0 doubled, so it now holds 2/3 of wealth.
  EXPECT_NEAR(env.previous_weights()[0], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(env.previous_weights()[1], 1.0 / 3.0, 1e-9);
}

TEST(PortfolioEnv, RejectsOffSimplexAction) {
  auto panel = MakePanel(30, 2, 7);
  EnvConfig cfg;
  cfg.window = 4;
  PortfolioEnv env(panel, cfg);
  EXPECT_DEATH(env.Step({0.9, 0.9}), "simplex");
}

TEST(PortfolioEnv, WindowContentsMatchPanel) {
  auto panel = MakePanel(40, 3, 8);
  EnvConfig cfg;
  cfg.window = 6;
  PortfolioEnv env(panel, cfg);
  const auto window = env.PriceWindow();
  ASSERT_EQ(window.size(), 6u * 3u);
  // Last row of the window is the current day's closes.
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(window[5 * 3 + i], panel.Close(env.current_day(), i));
  }
}

// ---- Backtester -------------------------------------------------------------

class UniformAgent : public TradingAgent {
 public:
  std::string name() const override { return "uniform"; }
  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t) override {
    return std::vector<double>(panel.num_assets(),
                               1.0 / panel.num_assets());
  }
};

TEST(Backtest, WealthCurveConsistentWithMetrics) {
  auto panel = MakePanel(120, 4, 9);
  UniformAgent agent;
  EnvConfig cfg;
  cfg.window = 8;
  const BacktestResult result = RunBacktest(agent, panel, cfg);
  EXPECT_EQ(result.wealth.size(), result.daily_returns.size() + 1);
  EXPECT_NEAR(result.metrics.accumulative_return,
              result.wealth.back() - 1.0, 1e-12);
  // Returns recompute the wealth curve.
  double w = 1.0;
  for (size_t t = 0; t < result.daily_returns.size(); ++t) {
    w *= 1.0 + result.daily_returns[t];
  }
  EXPECT_NEAR(w, result.wealth.back(), 1e-9);
}

TEST(Backtest, TestSplitStartsAtTrainEnd) {
  auto panel = MakePanel(150, 3, 10);
  UniformAgent agent;
  const BacktestResult result = RunTestBacktest(agent, panel, 8);
  EXPECT_EQ(result.days.front(), panel.train_end());
  EXPECT_EQ(result.days.back(), panel.num_days() - 1);
}

// Emits NaN weights on every odd decision (a diverged policy); valid
// uniform weights otherwise.
class NanEveryOtherAgent : public TradingAgent {
 public:
  std::string name() const override { return "nan-agent"; }
  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t) override {
    ++calls_;
    if (calls_ % 2 == 0) {
      return std::vector<double>(panel.num_assets(), std::nan(""));
    }
    return std::vector<double>(panel.num_assets(),
                               1.0 / panel.num_assets());
  }
  void Reset() override { calls_ = 0; }

 private:
  int64_t calls_ = 0;
};

TEST(Backtest, RepairsInvalidAgentActionsInsteadOfAborting) {
  auto panel = MakePanel(120, 4, 11);
  NanEveryOtherAgent agent;
  EnvConfig cfg;
  cfg.window = 8;
  // Must complete without CHECK-aborting, repairing the NaN actions onto
  // the simplex and counting them.
  const BacktestResult result = RunBacktest(agent, panel, cfg);
  EXPECT_GT(result.repaired_steps, 0);
  EXPECT_LT(result.repaired_steps,
            static_cast<int64_t>(result.daily_returns.size()));
  for (double w : result.wealth) {
    EXPECT_TRUE(std::isfinite(w));
    EXPECT_GT(w, 0.0);
  }
  EXPECT_TRUE(std::isfinite(result.metrics.sharpe_ratio));
}

// Always moves everything into asset 0, whatever it holds.
class AllInFirstAssetAgent : public TradingAgent {
 public:
  std::string name() const override { return "all-in-first"; }
  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t) override {
    std::vector<double> w(panel.num_assets(), 0.0);
    w[0] = 1.0;
    return w;
  }
};

TEST(Backtest, ClosedFormTwoAssetCostAccounting) {
  // Hand-checkable panel: asset 0 is flat until day 2, then gains 10% on
  // each of days 3 and 4; asset 1 never moves. Agent goes all-in on
  // asset 0 every step.
  //
  //   step day 2->3: held starts uniform {0.5, 0.5}, target {1, 0}
  //     turnover    = |1-0.5| + |0-0.5| = 1.0
  //     cost_factor = 1 - tc = 0.99
  //     growth      = 1.1,  net = 1.1 * 0.99
  //   step day 3->4: holdings already {1, 0}, target {1, 0}
  //     turnover = 0, growth = net = 1.1
  //
  // so wealth = 1.1 * 0.99 * 1.1 and total turnover = 1.0 exactly.
  market::PricePanel panel(5, 2);
  const double p0[] = {100.0, 100.0, 100.0, 110.0, 121.0};
  for (int64_t t = 0; t < 5; ++t) {
    panel.SetClose(t, 0, p0[t]);
    panel.SetClose(t, 1, 100.0);
  }
  AllInFirstAssetAgent agent;
  EnvConfig cfg;
  cfg.window = 2;
  cfg.transaction_cost = 0.01;
  const BacktestResult result = RunBacktest(agent, panel, cfg);
  ASSERT_EQ(result.wealth.size(), 3u);
  EXPECT_EQ(result.repaired_steps, 0);
  EXPECT_NEAR(result.wealth[1], 1.1 * 0.99, 1e-12);
  EXPECT_NEAR(result.wealth[2], 1.1 * 0.99 * 1.1, 1e-12);
  EXPECT_NEAR(result.turnover, 1.0, 1e-12);
  ASSERT_EQ(result.daily_returns.size(), 2u);
  EXPECT_NEAR(result.daily_returns[0], 1.1 * 0.99 - 1.0, 1e-12);
  EXPECT_NEAR(result.daily_returns[1], 0.1, 1e-12);

  // The same run without costs keeps the full gross growth; the cost run
  // loses exactly tc * turnover of the first step's wealth.
  EnvConfig free_cfg = cfg;
  free_cfg.transaction_cost = 0.0;
  const BacktestResult free_run = RunBacktest(agent, panel, free_cfg);
  EXPECT_NEAR(free_run.wealth.back(), 1.1 * 1.1, 1e-12);
  EXPECT_NEAR(free_run.turnover, result.turnover, 1e-12);
}

TEST(Backtest, TurnoverAccumulatesOverRebalancing) {
  // A rebalancing agent on a drifting panel must rack up turnover; the
  // total is the sum over steps of per-step |target - held| mass.
  auto panel = MakePanel(80, 4, 13);
  UniformAgent agent;
  EnvConfig cfg;
  cfg.window = 8;
  const BacktestResult result = RunBacktest(agent, panel, cfg);
  EXPECT_GT(result.turnover, 0.0);
  // Each step moves at most the whole portfolio (2.0 in L1 mass).
  EXPECT_LE(result.turnover,
            2.0 * static_cast<double>(result.daily_returns.size()));
}

TEST(Backtest, WellBehavedAgentHasNoRepairs) {
  auto panel = MakePanel(100, 3, 12);
  UniformAgent agent;
  EnvConfig cfg;
  cfg.window = 8;
  EXPECT_EQ(RunBacktest(agent, panel, cfg).repaired_steps, 0);
}

}  // namespace
}  // namespace cit::env
