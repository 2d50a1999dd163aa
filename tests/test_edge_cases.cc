// Edge-case and failure-injection tests across modules.
#include <cmath>

#include <gtest/gtest.h>

#include "core/trader.h"
#include "env/portfolio_env.h"
#include "market/simulator.h"
#include "math/autograd.h"
#include "math/rng.h"
#include "olps/strategies.h"
#include "rl/features.h"

namespace cit {
namespace {

using ag::Var;
using math::Tensor;

// ---- Autograd edge cases ----------------------------------------------------

TEST(AutogradEdge, ConcatManyParts) {
  Var a = Var::Param(Tensor({1, 2}, {1, 2}));
  Var b = Var::Param(Tensor({1, 3}, {3, 4, 5}));
  Var c = Var::Param(Tensor({1, 1}, {6}));
  Var out = ag::Concat({a, b, c}, 1);
  EXPECT_EQ(out.shape(), (math::Shape{1, 6}));
  ag::Sum(ag::Square(out)).Backward();
  EXPECT_FLOAT_EQ(a.grad()[1], 4.0f);   // 2*2
  EXPECT_FLOAT_EQ(b.grad()[2], 10.0f);  // 2*5
  EXPECT_FLOAT_EQ(c.grad()[0], 12.0f);  // 2*6
}

TEST(AutogradEdge, PermuteIdentityIsNoOp) {
  math::Rng rng(1);
  Tensor t = Tensor::Uniform({2, 3, 4}, rng, -1, 1);
  Var a = Var::Constant(t);
  EXPECT_TRUE(math::TensorEquals(ag::Permute(a, {0, 1, 2}).value(), t));
}

TEST(AutogradEdge, DoublePermuteRoundTrips) {
  math::Rng rng(2);
  Tensor t = Tensor::Uniform({2, 3, 4}, rng, -1, 1);
  Var a = Var::Constant(t);
  Var p = ag::Permute(ag::Permute(a, {2, 0, 1}), {1, 2, 0});
  EXPECT_TRUE(math::TensorEquals(p.value(), t));
}

TEST(AutogradEdge, BackwardTwiceAccumulates) {
  Var a = Var::Param(Tensor::Scalar(3.0f));
  Var out1 = ag::Square(a);
  out1.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 6.0f);
  Var out2 = ag::Square(a);
  out2.Backward();  // accumulates without ZeroGrad
  EXPECT_FLOAT_EQ(a.grad()[0], 12.0f);
}

TEST(AutogradEdge, DiamondGraphGradient) {
  // f = (a*a) + (a*a): both paths through the same parent.
  Var a = Var::Param(Tensor::Scalar(2.0f));
  Var sq = ag::Square(a);
  ag::Add(sq, sq).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 8.0f);  // 2 * 2a
}

TEST(AutogradEdge, SliceThenConcatReconstructs) {
  math::Rng rng(3);
  Tensor t = Tensor::Uniform({4, 6}, rng, -1, 1);
  Var a = Var::Constant(t);
  Var left = ag::Slice(a, 1, 0, 2);
  Var right = ag::Slice(a, 1, 2, 4);
  EXPECT_TRUE(
      math::TensorEquals(ag::Concat({left, right}, 1).value(), t));
}

TEST(AutogradEdge, ExpOfLogIsIdentityGradient) {
  Var a = Var::Param(Tensor({3}, {0.5f, 1.5f, 2.5f}));
  ag::Sum(ag::Exp(ag::Log(a))).Backward();
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(a.grad()[i], 1.0f, 1e-5f);
}

// ---- Env edge cases ----------------------------------------------------------

market::PricePanel TinyPanel() {
  market::MarketConfig cfg;
  cfg.num_assets = 3;
  cfg.train_days = 60;
  cfg.test_days = 20;
  cfg.seed = 4;
  return market::SimulateMarket(cfg);
}

TEST(EnvEdge, FullConcentrationPortfolioIsLegal) {
  auto panel = TinyPanel();
  env::EnvConfig cfg;
  cfg.window = 4;
  env::PortfolioEnv env(panel, cfg);
  const env::StepResult r = env.Step({1.0, 0.0, 0.0});
  EXPECT_TRUE(std::isfinite(r.reward));
  EXPECT_NEAR(env.previous_weights()[1], 0.0, 1e-12);
}

TEST(EnvEdge, ResetAtOutOfRangeDies) {
  auto panel = TinyPanel();
  env::EnvConfig cfg;
  cfg.window = 4;
  env::PortfolioEnv env(panel, cfg);
  EXPECT_DEATH(env.ResetAt(1), "");                      // before window
  EXPECT_DEATH(env.ResetAt(panel.num_days() + 5), "");   // past end
}

TEST(EnvEdge, DoneExactlyAtEndDay) {
  auto panel = TinyPanel();
  env::EnvConfig cfg;
  cfg.window = 4;
  cfg.start_day = panel.num_days() - 3;
  env::PortfolioEnv env(panel, cfg);
  int steps = 0;
  const std::vector<double> u(3, 1.0 / 3.0);
  while (!env.done()) {
    env.Step(u);
    ++steps;
  }
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(env.current_day(), panel.num_days() - 1);
}

// ---- Features edge cases -----------------------------------------------------

TEST(FeaturesEdge, WindowAtEarliestValidDay) {
  auto panel = TinyPanel();
  const int64_t window = 8;
  // day = window - 1 is the first day with a full window.
  Tensor t = rl::NormalizedWindow(panel, window - 1, window);
  EXPECT_EQ(t.dim(2), window);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(t[i]));
  }
}

TEST(FeaturesEdge, SingleBandEqualsFullWindow) {
  auto panel = TinyPanel();
  Tensor full = rl::NormalizedWindow(panel, 20, 8);
  const auto bands = rl::HorizonBandWindows(panel, 20, 8, 1);
  ASSERT_EQ(bands.size(), 1u);
  EXPECT_TRUE(math::TensorAllClose(bands[0], full, 1e-5f));
}

// ---- Strategy edge cases -----------------------------------------------------

TEST(StrategyEdge, OlmarHandlesFlatPrices) {
  market::PricePanel panel(30, 2);
  for (int64_t t = 0; t < 30; ++t) {
    panel.SetClose(t, 0, 100.0);
    panel.SetClose(t, 1, 100.0);
  }
  olps::Olmar olmar;
  olmar.Reset();
  olmar.DecideWeights(panel, 10);
  const auto w = olmar.DecideWeights(panel, 11);  // denom == 0 path
  EXPECT_NEAR(w[0] + w[1], 1.0, 1e-9);
}

TEST(StrategyEdge, AnticorBeforeWarmupKeepsWeights) {
  auto panel = TinyPanel();
  olps::Anticor anticor(8);
  anticor.Reset();
  anticor.DecideWeights(panel, 10);
  const auto w = anticor.DecideWeights(panel, 11);  // day < 2w
  for (double v : w) EXPECT_NEAR(v, 1.0 / 3.0, 1e-9);
}

TEST(StrategyEdge, SingleAssetMarketIsAlwaysFullyInvested) {
  market::PricePanel panel(40, 1);
  math::Rng rng(5);
  double p = 100.0;
  for (int64_t t = 0; t < 40; ++t) {
    if (t > 0) p *= std::exp(0.01 * rng.Normal());
    panel.SetClose(t, 0, p);
  }
  olps::Eg eg;
  eg.Reset();
  for (int64_t day = 5; day < 30; ++day) {
    const auto w = eg.DecideWeights(panel, day);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_NEAR(w[0], 1.0, 1e-9);
  }
}

// ---- Trader edge cases -------------------------------------------------------

TEST(TraderEdge, SinglePolicyConfigurationWorks) {
  auto panel = TinyPanel();
  core::CrossInsightConfig cfg;
  cfg.num_policies = 1;  // degenerate band split (the raw window)
  cfg.window = 8;
  cfg.feature_dim = 4;
  cfg.tcn_blocks = 1;
  cfg.head_hidden = 8;
  cfg.critic_hidden = 8;
  cfg.train_steps = 4;
  cfg.rollout_len = 4;
  core::CrossInsightTrader trader(panel.num_assets(), cfg);
  trader.Train(panel);
  trader.Reset();
  const auto w = trader.DecideWeights(panel, panel.train_end() + 2);
  EXPECT_TRUE(env::IsValidPortfolio(w));
}

TEST(TraderEdge, WindowLargerThanCriticDaysClamps) {
  auto panel = TinyPanel();
  core::CrossInsightConfig cfg;
  cfg.num_policies = 2;
  cfg.window = 6;
  cfg.critic_market_days = 100;  // clamped to window
  cfg.feature_dim = 4;
  cfg.tcn_blocks = 1;
  cfg.head_hidden = 8;
  cfg.critic_hidden = 8;
  cfg.train_steps = 3;
  cfg.rollout_len = 3;
  core::CrossInsightTrader trader(panel.num_assets(), cfg);
  trader.Train(panel);  // would CHECK-fail on shape mismatch if unclamped
  SUCCEED();
}

}  // namespace
}  // namespace cit
