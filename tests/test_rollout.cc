// Determinism contract of training: every update collects one rollout on
// its calling thread, so training curves must be bitwise identical for any
// CIT_NUM_THREADS. Exercises the counter-split RNG streams, all three
// on-policy trainers (CIT, A2C, PPO) end to end, and that no trainer enters
// the thread pool.
#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/config.h"
#include "core/trader.h"
#include "market/simulator.h"
#include "math/rng.h"
#include "obs/telemetry.h"
#include "rl/a2c.h"
#include "rl/config.h"
#include "rl/ddpg.h"
#include "rl/deeptrader.h"
#include "rl/eiie.h"
#include "rl/ppo.h"
#include "rl/sarl.h"

namespace cit {
namespace {

// Restores the global pool's thread count when a test scope exits.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n)
      : saved_(ThreadPool::Global().num_threads()) {
    ThreadPool::Global().SetNumThreads(n);
  }
  ~ThreadCountGuard() { ThreadPool::Global().SetNumThreads(saved_); }

 private:
  int saved_;
};

// Restores the previous telemetry-enabled state on scope exit.
class TelemetryGuard {
 public:
  explicit TelemetryGuard(bool on) : saved_(obs::Enabled()) {
    obs::SetEnabled(on);
  }
  ~TelemetryGuard() { obs::SetEnabled(saved_); }

 private:
  bool saved_;
};

market::PricePanel TinyPanel(uint64_t seed = 21) {
  market::MarketConfig cfg;
  cfg.num_assets = 4;
  cfg.train_days = 80;
  cfg.test_days = 30;
  cfg.seed = seed;
  return market::SimulateMarket(cfg);
}

// ---- Counter-split RNG streams ----------------------------------------------

TEST(RngSplit, SameCoordinatesReproduceTheStream) {
  math::Rng a = math::Rng::Split(7, 11, 3);
  math::Rng b = math::Rng::Split(7, 11, 3);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngSplit, DistinctCoordinatesGiveDistinctStreams) {
  // Streams from nearby (step, slot) coordinates must not collide or
  // overlap in their prefixes.
  std::vector<uint64_t> firsts;
  for (uint64_t step = 0; step < 8; ++step) {
    for (uint64_t slot = 0; slot < 8; ++slot) {
      firsts.push_back(math::Rng::Split(1, step, slot).NextU64());
    }
  }
  for (size_t i = 0; i < firsts.size(); ++i) {
    for (size_t j = i + 1; j < firsts.size(); ++j) {
      ASSERT_NE(firsts[i], firsts[j]) << i << " vs " << j;
    }
  }
  // And the seed matters.
  ASSERT_NE(math::Rng::Split(1, 0, 0).NextU64(),
            math::Rng::Split(2, 0, 0).NextU64());
}

TEST(RngSplit, StreamDoesNotDependOnCallOrder) {
  // Drawing slot 5's stream before slot 2's must not change either: the
  // split is a pure function of (seed, step, slot).
  const uint64_t early = math::Rng::Split(9, 4, 5).NextU64();
  math::Rng::Split(9, 4, 2).NextU64();
  EXPECT_EQ(math::Rng::Split(9, 4, 5).NextU64(), early);
}

// ---- Bitwise thread-count invariance of full training runs ------------------
//
// Each trainer runs from an identical fresh state under 1, 2, and 4 pool
// threads; learning curves must match bit for bit (EXPECT_EQ on doubles,
// no tolerance). On hosts where the clamp caps the pool below the
// requested count the variants collapse, which still validates the
// contract trivially; multi-core hosts exercise real interleavings.

std::vector<double> TrainCitCurve(int n_threads) {
  ThreadCountGuard guard(n_threads);
  auto panel = TinyPanel();
  core::CrossInsightConfig cfg;
  cfg.num_policies = 2;
  cfg.window = 8;
  cfg.feature_dim = 4;
  cfg.tcn_blocks = 1;
  cfg.head_hidden = 8;
  cfg.critic_hidden = 12;
  cfg.train_steps = 4;
  cfg.rollout_len = 6;
  cfg.seed = 3;
  core::CrossInsightTrader trader(panel.num_assets(), cfg);
  return trader.Train(panel, 4);
}

TEST(RolloutDeterminism, CitTrainingCurveBitwiseInvariant) {
  const std::vector<double> base = TrainCitCurve(1);
  ASSERT_FALSE(base.empty());
  for (double v : base) ASSERT_TRUE(std::isfinite(v));
  for (int threads : {2, 4}) {
    const std::vector<double> curve = TrainCitCurve(threads);
    ASSERT_EQ(curve.size(), base.size()) << threads << " threads";
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(curve[i], base[i])
          << threads << " threads, checkpoint " << i;
    }
  }
}

std::vector<double> TrainA2cCurve(int n_threads) {
  ThreadCountGuard guard(n_threads);
  auto panel = TinyPanel();
  rl::RlTrainConfig cfg;
  cfg.window = 8;
  cfg.hidden = 12;
  cfg.train_steps = 6;
  cfg.rollout_len = 6;
  cfg.seed = 5;
  rl::A2cAgent agent(panel.num_assets(), cfg);
  return agent.Train(panel, 3);
}

TEST(RolloutDeterminism, A2cTrainingCurveBitwiseInvariant) {
  const std::vector<double> base = TrainA2cCurve(1);
  ASSERT_FALSE(base.empty());
  for (int threads : {2, 4}) {
    const std::vector<double> curve = TrainA2cCurve(threads);
    ASSERT_EQ(curve.size(), base.size()) << threads << " threads";
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(curve[i], base[i])
          << threads << " threads, checkpoint " << i;
    }
  }
}

std::vector<double> TrainPpoCurve(int n_threads) {
  ThreadCountGuard guard(n_threads);
  auto panel = TinyPanel();
  rl::PpoAgent::PpoConfig cfg;
  cfg.window = 8;
  cfg.hidden = 12;
  cfg.train_steps = 4;
  cfg.rollout_len = 6;
  cfg.epochs = 2;
  cfg.seed = 7;
  rl::PpoAgent agent(panel.num_assets(), cfg);
  return agent.Train(panel, 2);
}

TEST(RolloutDeterminism, PpoTrainingCurveBitwiseInvariant) {
  const std::vector<double> base = TrainPpoCurve(1);
  ASSERT_FALSE(base.empty());
  for (int threads : {2, 4}) {
    const std::vector<double> curve = TrainPpoCurve(threads);
    ASSERT_EQ(curve.size(), base.size()) << threads << " threads";
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(curve[i], base[i])
          << threads << " threads, checkpoint " << i;
    }
  }
}

// Training is serial: no trainer forks a pool job or even asks the pool
// whether to. Only sweep cells (env::RunSweep) enter it.
TEST(RolloutDeterminism, TrainingNeverEntersThePool) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with CIT_OBS=OFF";
  TelemetryGuard telemetry(true);
  ThreadCountGuard guard(4);
  auto& jobs = obs::Registry::Global().GetCounter("threadpool.jobs");
  auto& inline_jobs =
      obs::Registry::Global().GetCounter("threadpool.inline_jobs");
  auto panel = TinyPanel();
  const int64_t m = panel.num_assets();
  auto expect_serial = [&](const char* name,
                           const std::function<void()>& train) {
    const uint64_t jobs_before = jobs.Total();
    const uint64_t inline_before = inline_jobs.Total();
    train();
    EXPECT_EQ(jobs.Total(), jobs_before) << name << " forked a pool job";
    EXPECT_EQ(inline_jobs.Total(), inline_before)
        << name << " called ParallelFor";
  };

  core::CrossInsightConfig cit_cfg;
  cit_cfg.num_policies = 2;
  cit_cfg.window = 8;
  cit_cfg.feature_dim = 4;
  cit_cfg.tcn_blocks = 1;
  cit_cfg.head_hidden = 8;
  cit_cfg.critic_hidden = 12;
  cit_cfg.train_steps = 2;
  cit_cfg.rollout_len = 6;
  expect_serial("CIT", [&] {
    core::CrossInsightTrader(m, cit_cfg).Train(panel, 2);
  });

  rl::RlTrainConfig rl_cfg;
  rl_cfg.window = 8;
  rl_cfg.hidden = 12;
  rl_cfg.train_steps = 2;
  rl_cfg.rollout_len = 6;
  expect_serial("A2C", [&] { rl::A2cAgent(m, rl_cfg).Train(panel, 2); });
  expect_serial("SARL", [&] { rl::SarlAgent(m, rl_cfg).Train(panel, 2); });

  rl::PpoAgent::PpoConfig ppo_cfg;
  static_cast<rl::RlTrainConfig&>(ppo_cfg) = rl_cfg;
  ppo_cfg.epochs = 2;
  expect_serial("PPO", [&] { rl::PpoAgent(m, ppo_cfg).Train(panel, 2); });

  rl::DdpgAgent::DdpgConfig ddpg_cfg;
  static_cast<rl::RlTrainConfig&>(ddpg_cfg) = rl_cfg;
  ddpg_cfg.train_steps = 8;
  ddpg_cfg.warmup_steps = 4;
  ddpg_cfg.batch_size = 4;
  expect_serial("DDPG", [&] { rl::DdpgAgent(m, ddpg_cfg).Train(panel, 2); });

  rl::EiieAgent::EiieConfig eiie_cfg;
  static_cast<rl::RlTrainConfig&>(eiie_cfg) = rl_cfg;
  eiie_cfg.segment_len = 4;
  expect_serial("EIIE", [&] { rl::EiieAgent(m, eiie_cfg).Train(panel, 2); });

  rl::DeepTraderAgent::DeepTraderConfig dt_cfg;
  static_cast<rl::RlTrainConfig&>(dt_cfg) = rl_cfg;
  dt_cfg.segment_len = 4;
  expect_serial("DeepTrader", [&] {
    rl::DeepTraderAgent(m, dt_cfg).Train(panel, 2);
  });
}

}  // namespace
}  // namespace cit
