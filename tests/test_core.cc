#include <chrono>
#include <cmath>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/actor.h"
#include "core/backbone.h"
#include "core/config.h"
#include "core/critic.h"
#include "core/trader.h"
#include "env/backtest.h"
#include "market/simulator.h"
#include "math/plan.h"
#include "obs/telemetry.h"
#include "rl/features.h"

namespace cit::core {
namespace {

CrossInsightConfig TinyConfig(int64_t n = 3) {
  CrossInsightConfig cfg;
  cfg.num_policies = n;
  cfg.window = 8;
  cfg.feature_dim = 4;
  cfg.tcn_blocks = 1;
  cfg.head_hidden = 8;
  cfg.critic_hidden = 12;
  cfg.train_steps = 10;
  cfg.rollout_len = 5;
  cfg.seed = 3;
  return cfg;
}

market::PricePanel SmallPanel(uint64_t seed = 21) {
  market::MarketConfig cfg;
  cfg.num_assets = 4;
  cfg.train_days = 150;
  cfg.test_days = 60;
  cfg.seed = seed;
  return market::SimulateMarket(cfg);
}

TEST(Backbone, AllVariantsProducePerAssetFeatures) {
  math::Rng rng(1);
  for (BackboneKind kind :
       {BackboneKind::kTcnAttention, BackboneKind::kGruAttention,
        BackboneKind::kGru, BackboneKind::kMlp}) {
    ActorBackbone backbone(kind, 4, 8, 4, 1, 3, rng);
    Var out = backbone.Forward(
        Var::Constant(Tensor::Uniform({4, 1, 8}, rng, -1, 1)));
    EXPECT_EQ(out.shape(), (math::Shape{4, 4}))
        << BackboneKindName(kind);
    EXPECT_GT(backbone.NumParams(), 0);
  }
}

TEST(HorizonActorTest, MeanShapeAndIdDiversity) {
  CrossInsightConfig cfg = TinyConfig(3);
  math::Rng rng(4);
  HorizonActor a0(cfg, 4, 0, rng);
  HorizonActor a1(cfg, 4, 1, rng);
  Tensor band = Tensor::Uniform({4, 1, 8}, rng, -1, 1);
  Tensor prev = Tensor::Full({4, 1}, 0.25f);
  Var m0 = a0.Forward(band, prev);
  Var m1 = a1.Forward(band, prev);
  EXPECT_EQ(m0.shape(), (math::Shape{4}));
  // Different parameter draws + different IDs: outputs should differ.
  EXPECT_FALSE(math::TensorAllClose(m0.value(), m1.value(), 1e-6f));
}

TEST(CrossInsightActorTest, ConsumesPreDecisions) {
  CrossInsightConfig cfg = TinyConfig(2);
  math::Rng rng(5);
  CrossInsightActor actor(cfg, 4, rng);
  Tensor market = Tensor::Uniform({4, 1, 8}, rng, -1, 1);
  Tensor pre({8});
  for (int64_t i = 0; i < 8; ++i) pre[i] = 0.125f;
  Var mean = actor.Forward(market, pre);
  EXPECT_EQ(mean.shape(), (math::Shape{4}));
  // Changing a pre-decision changes the output.
  Tensor pre2 = pre;
  pre2[0] = 0.9f;
  Var mean2 = actor.Forward(market, pre2);
  EXPECT_FALSE(math::TensorAllClose(mean.value(), mean2.value(), 1e-7f));
}

TEST(CentralizedCriticTest, SensitiveToEveryInputBlock) {
  CrossInsightConfig cfg = TinyConfig(2);
  math::Rng rng(6);
  CentralizedCritic critic(cfg, 4, rng);
  Tensor market = Tensor::Uniform({8 * 4}, rng, -1, 1);
  Tensor pre = Tensor::Full({8}, 0.125f);
  Tensor action = Tensor::Full({4}, 0.25f);
  const float q0 = critic.Forward(market, pre, action).value().Item();

  Tensor market2 = market;
  market2[0] += 1.0f;
  EXPECT_NE(critic.Forward(market2, pre, action).value().Item(), q0);
  Tensor pre2 = pre;
  pre2[0] += 0.5f;
  EXPECT_NE(critic.Forward(market, pre2, action).value().Item(), q0);
  Tensor action2 = action;
  action2[0] += 0.5f;
  EXPECT_NE(critic.Forward(market, pre, action2).value().Item(), q0);
}

TEST(CounterfactualMechanism, BaselineEqualsQWhenActionIsMean) {
  // If the executed pre-decision already equals the Gaussian-mean action,
  // the counterfactual baseline must equal Q, i.e. A^k = 0 (Eq. 8).
  CrossInsightConfig cfg = TinyConfig(2);
  math::Rng rng(7);
  CentralizedCritic critic(cfg, 4, rng);
  Tensor market = Tensor::Uniform({8 * 4}, rng, -1, 1);
  Tensor pre = Tensor::Full({8}, 0.125f);
  Tensor action = Tensor::Full({4}, 0.25f);
  const float q = critic.Forward(market, pre, action).value().Item();
  // Replacing slot 0 with identical weights changes nothing.
  const float b = critic.Forward(market, pre, action).value().Item();
  EXPECT_FLOAT_EQ(q - b, 0.0f);
}

TEST(Trader, A2cDegenerateModeRuns) {
  auto panel = SmallPanel();
  CrossInsightConfig cfg = TinyConfig(0);  // no horizon policies
  CrossInsightTrader trader(panel.num_assets(), cfg);
  const auto curve = trader.Train(panel, 4);
  EXPECT_FALSE(curve.empty());
  const auto result = env::RunTestBacktest(trader, panel, cfg.window);
  EXPECT_GT(result.wealth.back(), 0.0);
}

TEST(Trader, TrainBacktestAllCreditModes) {
  auto panel = SmallPanel();
  for (CreditMode mode : {CreditMode::kCounterfactual, CreditMode::kSharedQ,
                          CreditMode::kDecCritic}) {
    CrossInsightConfig cfg = TinyConfig(2);
    cfg.credit = mode;
    CrossInsightTrader trader(panel.num_assets(), cfg);
    const auto curve = trader.Train(panel, 4);
    EXPECT_FALSE(curve.empty()) << CreditModeName(mode);
    const auto result = env::RunTestBacktest(trader, panel, cfg.window);
    EXPECT_GT(result.wealth.back(), 0.0) << CreditModeName(mode);
  }
}

TEST(Trader, AllBackboneVariantsTrain) {
  auto panel = SmallPanel();
  for (BackboneKind kind :
       {BackboneKind::kTcnAttention, BackboneKind::kGruAttention,
        BackboneKind::kGru, BackboneKind::kMlp}) {
    CrossInsightConfig cfg = TinyConfig(2);
    cfg.backbone = kind;
    cfg.train_steps = 4;
    CrossInsightTrader trader(panel.num_assets(), cfg);
    trader.Train(panel, 2);
    const auto result = env::RunTestBacktest(trader, panel, cfg.window);
    EXPECT_GT(result.wealth.back(), 0.0) << BackboneKindName(kind);
  }
}

TEST(Trader, PolicyAgentsTradeTheirOwnHorizon) {
  auto panel = SmallPanel();
  CrossInsightConfig cfg = TinyConfig(3);
  CrossInsightTrader trader(panel.num_assets(), cfg);
  trader.Train(panel, 2);
  for (int64_t k = 0; k < 3; ++k) {
    auto agent = trader.MakePolicyAgent(k);
    const auto result = env::RunTestBacktest(*agent, panel, cfg.window);
    EXPECT_GT(result.wealth.back(), 0.0) << "policy " << k;
  }
}

TEST(Trader, DeterministicBacktestGivenSeed) {
  auto panel = SmallPanel();
  auto run = [&] {
    CrossInsightConfig cfg = TinyConfig(2);
    CrossInsightTrader trader(panel.num_assets(), cfg);
    trader.Train(panel, 2);
    return env::RunTestBacktest(trader, panel, cfg.window).wealth.back();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Trader, DecideWeightsOnSimplex) {
  auto panel = SmallPanel();
  CrossInsightConfig cfg = TinyConfig(2);
  CrossInsightTrader trader(panel.num_assets(), cfg);
  trader.Reset();
  const auto w = trader.DecideWeights(panel, panel.train_end() + 3);
  EXPECT_TRUE(env::IsValidPortfolio(w));
}

// A request window: `rows` days of `src` ending at `last_day`, all of them
// history (train_end == rows), the way the daemon builds request panels.
market::PricePanel RequestWindow(const market::PricePanel& src,
                                 int64_t last_day, int64_t rows) {
  market::PricePanel panel(rows, src.num_assets());
  for (int64_t d = 0; d < rows; ++d) {
    for (int64_t a = 0; a < src.num_assets(); ++a) {
      panel.SetClose(d, a, src.Close(last_day - rows + 1 + d, a));
    }
  }
  panel.set_train_end(rows);
  return panel;
}

// DecideWeightsBatch and DecideWeights run one stacked forward, so B
// batched panels must decide bitwise what B independent Reset() +
// DecideWeights calls do — for every backbone, with and without horizon
// policies, at batch sizes that share and that do not share a plan with
// the single path (a batch of 17 joins 17 attention blocks in one Concat
// step of the plan), at 1 and 4 pool threads.
TEST(StackedDecide, BatchMatchesSingleDecidesBitwise) {
  const market::PricePanel src = SmallPanel();
  // Restores the pool size however the test exits.
  struct RestoreThreads {
    int n = ThreadPool::Global().num_threads();
    ~RestoreThreads() { ThreadPool::Global().SetNumThreads(n); }
  } restore;
  for (int threads : {1, 4}) {
    ThreadPool::Global().SetNumThreads(threads);
    for (BackboneKind kind :
         {BackboneKind::kTcnAttention, BackboneKind::kGruAttention,
          BackboneKind::kGru, BackboneKind::kMlp}) {
      for (int64_t n : {0, 2}) {
        CrossInsightConfig cfg = TinyConfig(n);
        cfg.backbone = kind;
        CrossInsightTrader trader(src.num_assets(), cfg);
        for (int64_t batch : {1, 3, 8, 17}) {
          // Mixed history lengths, each request ending on its own day.
          std::vector<market::PricePanel> panels;
          for (int64_t b = 0; b < batch; ++b) {
            panels.push_back(
                RequestWindow(src, 60 + 7 * b, cfg.window + b % 3));
          }
          const std::vector<market::PanelView> views(panels.begin(),
                                                     panels.end());
          const auto batched = trader.DecideWeightsBatch(views);
          ASSERT_EQ(batched.size(), static_cast<size_t>(batch));
          for (int64_t b = 0; b < batch; ++b) {
            trader.Reset();
            EXPECT_EQ(batched[b], trader.DecideWeights(
                                      panels[b], panels[b].num_days() - 1))
                << BackboneKindName(kind) << " n=" << n << " B=" << batch
                << " b=" << b << " threads=" << threads;
          }
        }
      }
    }
  }
}

// Batch size is the only varying part of a plan's shape key: request
// history length adds no key, and a serving mix of every batch size up to
// one key per cache entry (CompiledFn::kMaxEntries) fits each of the n+1
// plan caches. The first pass records each (plan, B) once; the second
// replays all of them.
TEST(StackedDecide, EveryBatchSizeRecordsOnceAndReplays) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with CIT_OBS=OFF";
  const market::PricePanel src = SmallPanel();
  const int64_t n = 2;
  const int64_t max_batch = plan::CompiledFn::kMaxEntries;
  CrossInsightConfig cfg = TinyConfig(n);
  CrossInsightTrader trader(src.num_assets(), cfg);
  obs::SetEnabled(true);
  obs::Registry::Global().ResetAll();
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t batch = 1; batch <= max_batch; ++batch) {
      // Mixed history lengths, each request ending on its own day.
      std::vector<market::PricePanel> panels;
      // A day stride of 6 keeps 32 requests inside the panel's 210 days.
      for (int64_t b = 0; b < batch; ++b) {
        panels.push_back(RequestWindow(src, 12 + 6 * b + pass,
                                       cfg.window + (b + pass) % 3));
      }
      const std::vector<market::PanelView> views(panels.begin(),
                                                 panels.end());
      ASSERT_EQ(trader.DecideWeightsBatch(views).size(),
                static_cast<size_t>(batch));
    }
  }
  obs::SetEnabled(false);
  auto count = [](const char* name) {
    return obs::Registry::Global().GetCounter(name).Total();
  };
  const uint64_t keys = static_cast<uint64_t>((n + 1) * max_batch);
  EXPECT_EQ(count("plan.misses"), keys);
  EXPECT_EQ(count("plan.hits"), keys);
  EXPECT_EQ(count("plan.misses_evicted"), 0u);
}

TEST(Trader, CounterfactualLearnsPlantedBandSignal) {
  // A market whose only predictable structure is a slow mean-reverting
  // component: training should not diverge and the learning curve should
  // not collapse (loose sanity check on the full training loop).
  auto panel = SmallPanel(33);
  CrossInsightConfig cfg = TinyConfig(3);
  cfg.train_steps = 30;
  CrossInsightTrader trader(panel.num_assets(), cfg);
  const auto curve = trader.Train(panel, 6);
  for (double v : curve) EXPECT_TRUE(std::isfinite(v));
  EXPECT_EQ(trader.last_advantages().size(), 3u);
}

}  // namespace
}  // namespace cit::core
