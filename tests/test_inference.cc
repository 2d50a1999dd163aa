// Grad-mode / inference-path tests. The contract under test: NoGradGuard is
// purely a performance mode. Every number an agent produces — backtest
// wealth curves, training curves, decided weights — must be bitwise
// identical whether the guards are honored (default) or disabled via the
// ag::SetNoGradAllowed kill switch.
// Plus structural tests for the graph-free Var representation, mixed-mode
// constant lifting, guard nesting, and the per-thread buffer arena.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/trader.h"
#include "env/backtest.h"
#include "gradcheck.h"
#include "market/simulator.h"
#include "math/autograd.h"
#include "math/rng.h"
#include "math/tensor.h"
#include "rl/a2c.h"
#include "rl/ddpg.h"
#include "rl/deeptrader.h"
#include "rl/eiie.h"
#include "rl/ppo.h"
#include "rl/sarl.h"

namespace cit {
namespace {

using math::Tensor;

// Restores the process-wide kill switch no matter how a test exits, so a
// failing assertion cannot leak grad-on mode into later tests.
class NoGradAllowedScope {
 public:
  explicit NoGradAllowedScope(bool allowed) : prev_(ag::NoGradAllowed()) {
    ag::SetNoGradAllowed(allowed);
  }
  ~NoGradAllowedScope() { ag::SetNoGradAllowed(prev_); }

 private:
  bool prev_;
};

market::PricePanel SmallPanel(uint64_t seed = 7) {
  market::MarketConfig cfg;
  cfg.num_assets = 4;
  cfg.train_days = 120;
  cfg.test_days = 30;
  cfg.seed = seed;
  return market::SimulateMarket(cfg);
}

rl::RlTrainConfig TinyRlConfig() {
  rl::RlTrainConfig cfg;
  cfg.window = 8;
  cfg.train_steps = 4;
  cfg.rollout_len = 4;
  cfg.hidden = 8;
  return cfg;
}

// Runs `make_agent` through train + test-split backtest twice — once with
// the guards honored, once with them disabled process-wide — and asserts
// every observable number is bitwise identical.
template <typename MakeAgent>
void ExpectInferenceModeIsPureSpeed(const market::PricePanel& panel,
                                    MakeAgent make_agent) {
  std::vector<double> curve_on, curve_off;
  env::BacktestResult res_on, res_off;
  {
    NoGradAllowedScope scope(true);
    auto agent = make_agent();
    curve_on = agent->Train(panel, /*curve_points=*/4);
    res_on = env::RunTestBacktest(*agent, panel, /*window=*/8);
  }
  {
    NoGradAllowedScope scope(false);
    auto agent = make_agent();
    curve_off = agent->Train(panel, /*curve_points=*/4);
    res_off = env::RunTestBacktest(*agent, panel, /*window=*/8);
  }
  ASSERT_EQ(curve_on.size(), curve_off.size());
  for (size_t i = 0; i < curve_on.size(); ++i) {
    EXPECT_EQ(curve_on[i], curve_off[i]) << "training curve point " << i;
  }
  ASSERT_EQ(res_on.wealth.size(), res_off.wealth.size());
  for (size_t i = 0; i < res_on.wealth.size(); ++i) {
    EXPECT_EQ(res_on.wealth[i], res_off.wealth[i]) << "wealth step " << i;
  }
  ASSERT_EQ(res_on.daily_returns.size(), res_off.daily_returns.size());
  for (size_t i = 0; i < res_on.daily_returns.size(); ++i) {
    EXPECT_EQ(res_on.daily_returns[i], res_off.daily_returns[i])
        << "return step " << i;
  }
  EXPECT_EQ(res_on.turnover, res_off.turnover);
  EXPECT_EQ(res_on.repaired_steps, res_off.repaired_steps);
}

// ---- Bitwise identity, per agent -------------------------------------------

TEST(InferenceIdentity, CrossInsightTrader) {
  auto panel = SmallPanel();
  core::CrossInsightConfig cfg;
  cfg.num_policies = 2;
  cfg.window = 8;
  cfg.feature_dim = 4;
  cfg.tcn_blocks = 1;
  cfg.head_hidden = 8;
  cfg.critic_hidden = 8;
  cfg.train_steps = 4;
  cfg.rollout_len = 4;
  ExpectInferenceModeIsPureSpeed(panel, [&] {
    return std::make_unique<core::CrossInsightTrader>(panel.num_assets(),
                                                      cfg);
  });
}

TEST(InferenceIdentity, Ddpg) {
  auto panel = SmallPanel();
  rl::DdpgAgent::DdpgConfig cfg;
  static_cast<rl::RlTrainConfig&>(cfg) = TinyRlConfig();
  cfg.train_steps = 8;
  cfg.warmup_steps = 8;
  cfg.batch_size = 4;
  ExpectInferenceModeIsPureSpeed(panel, [&] {
    return std::make_unique<rl::DdpgAgent>(panel.num_assets(), cfg);
  });
}

TEST(InferenceIdentity, A2c) {
  auto panel = SmallPanel();
  ExpectInferenceModeIsPureSpeed(panel, [&] {
    return std::make_unique<rl::A2cAgent>(panel.num_assets(),
                                          TinyRlConfig());
  });
}

TEST(InferenceIdentity, Ppo) {
  auto panel = SmallPanel();
  rl::PpoAgent::PpoConfig cfg;
  static_cast<rl::RlTrainConfig&>(cfg) = TinyRlConfig();
  cfg.epochs = 2;
  ExpectInferenceModeIsPureSpeed(panel, [&] {
    return std::make_unique<rl::PpoAgent>(panel.num_assets(), cfg);
  });
}

TEST(InferenceIdentity, Sarl) {
  auto panel = SmallPanel();
  ExpectInferenceModeIsPureSpeed(panel, [&] {
    return std::make_unique<rl::SarlAgent>(panel.num_assets(),
                                           TinyRlConfig());
  });
}

TEST(InferenceIdentity, Eiie) {
  auto panel = SmallPanel();
  rl::EiieAgent::EiieConfig cfg;
  cfg.window = 8;
  cfg.train_steps = 4;
  cfg.segment_len = 4;
  cfg.conv_channels = 4;
  ExpectInferenceModeIsPureSpeed(panel, [&] {
    return std::make_unique<rl::EiieAgent>(panel.num_assets(), cfg);
  });
}

TEST(InferenceIdentity, DeepTrader) {
  auto panel = SmallPanel();
  rl::DeepTraderAgent::DeepTraderConfig cfg;
  cfg.window = 8;
  cfg.train_steps = 4;
  cfg.segment_len = 4;
  cfg.conv_channels = 4;
  cfg.hidden = 8;
  ExpectInferenceModeIsPureSpeed(panel, [&] {
    return std::make_unique<rl::DeepTraderAgent>(panel.num_assets(), cfg);
  });
}

// ---- Graph-free Var structure ----------------------------------------------

TEST(GradMode, OpsUnderGuardBuildNoGraph) {
  ag::Var a = ag::Var::Param(Tensor::Scalar(2.0f));
  ag::NoGradGuard no_grad;
  EXPECT_FALSE(ag::GradEnabled());
  ag::Var y = ag::Mul(ag::Square(a), a);
  ASSERT_TRUE(y.defined());
  EXPECT_EQ(y.node(), nullptr);
  EXPECT_FALSE(y.requires_grad());
  EXPECT_FLOAT_EQ(y.value().Item(), 8.0f);
  // Params themselves keep their node (they are leaves, not op outputs):
  // leaving the guard must find them exactly as they were.
  EXPECT_NE(a.node(), nullptr);
}

TEST(GradModeDeathTest, BackwardOnGraphFreeVarDies) {
  ag::Var a = ag::Var::Param(Tensor::Scalar(2.0f));
  ag::Var y;
  {
    ag::NoGradGuard no_grad;
    y = ag::Square(a);
  }
  EXPECT_DEATH(y.Backward(), "graph-free");
}

TEST(GradMode, GuardDoesNotChangeForwardValues) {
  math::Rng rng(3);
  Tensor x = Tensor::Uniform({4, 5}, rng, -2, 2);
  ag::Var taped = ag::Softmax(ag::Var::Param(x));
  Tensor free_value;
  {
    ag::NoGradGuard no_grad;
    free_value = ag::Softmax(ag::Var::Constant(x)).value();
  }
  for (int64_t i = 0; i < free_value.numel(); ++i) {
    EXPECT_EQ(taped.value()[i], free_value[i]) << "element " << i;
  }
}

TEST(GradMode, MixedModeConstantsLiftIntoLaterGraphs) {
  // A value computed graph-free re-enters a taped graph as a constant leaf;
  // gradients must flow to the taped parameters exactly as if the constant
  // had been built with Var::Constant directly.
  math::Rng rng(9);
  Tensor raw = Tensor::Uniform({5}, rng, -1, 1);
  ag::Var detached;
  {
    ag::NoGradGuard no_grad;
    detached = ag::Softmax(ag::Var::Constant(raw));
  }
  ASSERT_EQ(detached.node(), nullptr);
  ag::Var w = ag::Var::Param(Tensor::Ones({5}));
  cit::testing::ExpectGradientsMatch(
      [&] { return ag::Sum(ag::Square(ag::Mul(w, detached))); }, {w});
}

TEST(GradMode, GuardsNestAndRestore) {
  EXPECT_TRUE(ag::GradEnabled());
  {
    ag::NoGradGuard outer;
    EXPECT_FALSE(ag::GradEnabled());
    {
      ag::NoGradGuard inner;
      EXPECT_FALSE(ag::GradEnabled());
    }
    EXPECT_FALSE(ag::GradEnabled());
  }
  EXPECT_TRUE(ag::GradEnabled());
}

TEST(GradMode, KillSwitchForcesGradsOnEverywhere) {
  NoGradAllowedScope scope(false);
  ag::NoGradGuard no_grad;
  EXPECT_TRUE(ag::GradEnabled());
  ag::Var a = ag::Var::Param(Tensor::Scalar(3.0f));
  ag::Var y = ag::Square(a);
  ASSERT_NE(y.node(), nullptr);  // graph built despite the guard
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 6.0f);
}

// ---- Buffer arena -----------------------------------------------------------

TEST(Arena, RepeatedGuardedForwardsRecycleBuffers) {
  math::Rng rng(4);
  const Tensor x = Tensor::Uniform({16, 16}, rng, -1, 1);
  // Warm the pool with one guarded pass, then measure reuse on later ones.
  {
    ag::NoGradGuard no_grad;
    (void)ag::Softmax(ag::MatMul(ag::Var::Constant(x),
                                 ag::Var::Constant(x)));
  }
  const int64_t before = math::ArenaReuseCount();
  for (int rep = 0; rep < 3; ++rep) {
    ag::NoGradGuard no_grad;
    (void)ag::Softmax(ag::MatMul(ag::Var::Constant(x),
                                 ag::Var::Constant(x)));
  }
  EXPECT_GT(math::ArenaReuseCount(), before);
}

TEST(Arena, NoRecyclingOutsideGuards) {
  const int64_t before = math::ArenaReuseCount();
  math::Rng rng(5);
  for (int rep = 0; rep < 3; ++rep) {
    Tensor x = Tensor::Uniform({16, 16}, rng, -1, 1);
    ag::Var y = ag::Softmax(ag::Var::Param(x));
    y = ag::Sum(y);
  }
  EXPECT_EQ(math::ArenaReuseCount(), before);
}

}  // namespace
}  // namespace cit
