// Compiled-forward (trace-and-replay) tests. The contract under test:
// plan::CompiledFn is purely a performance mode. Every weight an agent
// decides must be bitwise identical whether plans replay (default) or the
// plan::SetCompileAllowed kill switch forces the interpreted path — at any
// thread count, and across parameter mutations (training steps, checkpoint
// reloads), which must invalidate cached plans rather than replay stale
// ones. Plus structural
// tests for the shape-keyed LRU cache, elementwise-chain fusion, and
// coexistence with taped training.
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/config.h"
#include "core/trader.h"
#include "env/backtest.h"
#include "market/simulator.h"
#include "math/autograd.h"
#include "math/plan.h"
#include "math/rng.h"
#include "math/tensor.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "obs/telemetry.h"
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
// failing assertion cannot leak compile-off mode into later tests.
class CompileAllowedScope {
 public:
  explicit CompileAllowedScope(bool allowed)
      : prev_(plan::CompileAllowed()) {
    plan::SetCompileAllowed(allowed);
  }
  ~CompileAllowedScope() { plan::SetCompileAllowed(prev_); }

 private:
  bool prev_;
};

// Pins the pool's thread count for a test body (clamped by the pool's
// max_threads on small hosts; the determinism contract makes the clamp
// observationally irrelevant).
class ThreadCountScope {
 public:
  explicit ThreadCountScope(int n)
      : prev_(ThreadPool::Global().num_threads()) {
    ThreadPool::Global().SetNumThreads(n);
  }
  ~ThreadCountScope() { ThreadPool::Global().SetNumThreads(prev_); }

 private:
  int prev_;
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

core::CrossInsightConfig TinyCitConfig() {
  core::CrossInsightConfig cfg;
  cfg.num_policies = 2;
  cfg.window = 8;
  cfg.feature_dim = 4;
  cfg.tcn_blocks = 1;
  cfg.head_hidden = 8;
  cfg.critic_hidden = 8;
  cfg.train_steps = 4;
  cfg.rollout_len = 4;
  return cfg;
}

// Runs `make_agent` through train + test-split backtest twice — once with
// compiled replay live, once with the kill switch forcing the interpreted
// path — and asserts every observable number is bitwise identical. Repeats
// at 1 and 4 pool threads (replayed steps call the same deterministic
// kernels as the interpreted path, so the thread count must not matter).
template <typename MakeAgent>
void ExpectCompiledIsPureSpeed(const market::PricePanel& panel,
                               MakeAgent make_agent) {
  for (int threads : {1, 4}) {
    ThreadCountScope pool(threads);
    std::vector<double> curve_on, curve_off;
    env::BacktestResult res_on, res_off;
    {
      CompileAllowedScope scope(true);
      auto agent = make_agent();
      curve_on = agent->Train(panel, /*curve_points=*/4);
      res_on = env::RunTestBacktest(*agent, panel, /*window=*/8);
    }
    {
      CompileAllowedScope scope(false);
      auto agent = make_agent();
      curve_off = agent->Train(panel, /*curve_points=*/4);
      res_off = env::RunTestBacktest(*agent, panel, /*window=*/8);
    }
    ASSERT_EQ(curve_on.size(), curve_off.size()) << "threads " << threads;
    for (size_t i = 0; i < curve_on.size(); ++i) {
      EXPECT_EQ(curve_on[i], curve_off[i])
          << "curve point " << i << ", threads " << threads;
    }
    ASSERT_EQ(res_on.wealth.size(), res_off.wealth.size())
        << "threads " << threads;
    for (size_t i = 0; i < res_on.wealth.size(); ++i) {
      EXPECT_EQ(res_on.wealth[i], res_off.wealth[i])
          << "wealth step " << i << ", threads " << threads;
    }
    ASSERT_EQ(res_on.daily_returns.size(), res_off.daily_returns.size());
    for (size_t i = 0; i < res_on.daily_returns.size(); ++i) {
      EXPECT_EQ(res_on.daily_returns[i], res_off.daily_returns[i])
          << "return step " << i << ", threads " << threads;
    }
    EXPECT_EQ(res_on.turnover, res_off.turnover) << "threads " << threads;
    EXPECT_EQ(res_on.repaired_steps, res_off.repaired_steps);
  }
}

// ---- Bitwise identity, per agent -------------------------------------------

TEST(CompiledIdentity, CrossInsightTrader) {
  auto panel = SmallPanel();
  auto cfg = TinyCitConfig();
  ExpectCompiledIsPureSpeed(panel, [&] {
    return std::make_unique<core::CrossInsightTrader>(panel.num_assets(),
                                                      cfg);
  });
}

TEST(CompiledIdentity, A2c) {
  auto panel = SmallPanel();
  ExpectCompiledIsPureSpeed(panel, [&] {
    return std::make_unique<rl::A2cAgent>(panel.num_assets(),
                                          TinyRlConfig());
  });
}

TEST(CompiledIdentity, Sarl) {
  auto panel = SmallPanel();
  ExpectCompiledIsPureSpeed(panel, [&] {
    return std::make_unique<rl::SarlAgent>(panel.num_assets(),
                                           TinyRlConfig());
  });
}

TEST(CompiledIdentity, Ppo) {
  auto panel = SmallPanel();
  rl::PpoAgent::PpoConfig cfg;
  static_cast<rl::RlTrainConfig&>(cfg) = TinyRlConfig();
  cfg.epochs = 2;
  ExpectCompiledIsPureSpeed(panel, [&] {
    return std::make_unique<rl::PpoAgent>(panel.num_assets(), cfg);
  });
}

TEST(CompiledIdentity, Ddpg) {
  auto panel = SmallPanel();
  rl::DdpgAgent::DdpgConfig cfg;
  static_cast<rl::RlTrainConfig&>(cfg) = TinyRlConfig();
  cfg.train_steps = 8;
  cfg.warmup_steps = 8;
  cfg.batch_size = 4;
  ExpectCompiledIsPureSpeed(panel, [&] {
    return std::make_unique<rl::DdpgAgent>(panel.num_assets(), cfg);
  });
}

TEST(CompiledIdentity, Eiie) {
  auto panel = SmallPanel();
  rl::EiieAgent::EiieConfig cfg;
  cfg.window = 8;
  cfg.train_steps = 4;
  cfg.segment_len = 4;
  cfg.conv_channels = 4;
  ExpectCompiledIsPureSpeed(panel, [&] {
    return std::make_unique<rl::EiieAgent>(panel.num_assets(), cfg);
  });
}

TEST(CompiledIdentity, DeepTrader) {
  auto panel = SmallPanel();
  rl::DeepTraderAgent::DeepTraderConfig cfg;
  cfg.window = 8;
  cfg.train_steps = 4;
  cfg.segment_len = 4;
  cfg.conv_channels = 4;
  cfg.hidden = 8;
  ExpectCompiledIsPureSpeed(panel, [&] {
    return std::make_unique<rl::DeepTraderAgent>(panel.num_assets(), cfg);
  });
}

// The compiled path must actually replay during a backtest — otherwise the
// identity tests above would pass vacuously via the interpreted fallback.
TEST(CompiledIdentity, BacktestActuallyReplays) {
  auto panel = SmallPanel();
  CompileAllowedScope scope(true);
  obs::SetEnabled(true);
  obs::Registry::Global().ResetAll();
  core::CrossInsightTrader trader(panel.num_assets(), TinyCitConfig());
  trader.Train(panel, /*curve_points=*/4);
  (void)env::RunTestBacktest(trader, panel, /*window=*/8);
  obs::SetEnabled(false);
  const uint64_t hits =
      obs::Registry::Global().GetCounter("plan.hits").Total();
  const uint64_t misses =
      obs::Registry::Global().GetCounter("plan.misses").Total();
  const uint64_t poisoned =
      obs::Registry::Global().GetCounter("plan.poisoned").Total();
  EXPECT_GT(misses, 0u);   // each policy's first day records
  EXPECT_GT(hits, misses); // every later day replays
  EXPECT_EQ(poisoned, 0u); // every op in the forward is replayable
}

// ---- Op by op: compiled equals interpreted ---------------------------------

// The identity tests above compare whole-agent forwards, which leave ops
// that only training losses use (Div, Mean, Clamp, Exp) unreplayed. Here
// every public op and variant runs alone in a CompiledFn with its operands
// as plan inputs: the plan records once, replays on fresh finite operand
// values and then on values with IEEE specials, and each replay must equal
// the op interpreted on the same values bit for bit, on both kernel
// backends at 1 and 4 pool threads.

namespace kn = math::kernels;

// Restores the kernel backend however the test exits.
class BackendScope {
 public:
  explicit BackendScope(kn::Backend b) : prev_(kn::SetBackend(b)) {}
  ~BackendScope() { kn::SetBackend(prev_); }

 private:
  kn::Backend prev_;
};

struct OpCase {
  std::string name;
  std::vector<math::Shape> shapes;  // one per operand
  std::function<ag::Var(const std::vector<ag::Var>&)> op;
  // Operand values are uniform in [lo, hi). Unless the op's domain
  // excludes them, a second replay also writes +0, -0, +inf, -inf and NaN
  // in turn over positions 0, 7, 14, ...
  bool specials = true;
  float lo = -2.0f;
  float hi = 2.0f;
};

std::vector<Tensor> Operands(const OpCase& c, uint64_t seed, bool specials) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kSpecial[] = {0.0f, -0.0f, kInf, -kInf,
                            std::numeric_limits<float>::quiet_NaN()};
  std::vector<Tensor> out;
  for (size_t k = 0; k < c.shapes.size(); ++k) {
    math::Rng rng(seed * 31 + k);
    Tensor t = Tensor::Uniform(c.shapes[k], rng, c.lo, c.hi);
    if (specials) {
      for (int64_t i = 0; i < t.numel(); i += 7) t[i] = kSpecial[(i / 7) % 5];
    }
    out.push_back(std::move(t));
  }
  return out;
}

Tensor RunCompiled(plan::CompiledFn& fn, const std::vector<Tensor>& in,
                   const std::function<ag::Var()>& forward) {
  switch (in.size()) {
    case 1: return fn.Run({&in[0]}, forward);
    case 2: return fn.Run({&in[0], &in[1]}, forward);
    case 3: return fn.Run({&in[0], &in[1], &in[2]}, forward);
  }
  ADD_FAILURE() << "an op case takes 1 to 3 operands";
  return Tensor();
}

void ExpectReplayMatchesInterpreted(const OpCase& c) {
  for (kn::Backend backend : {kn::Backend::kScalar, kn::Backend::kSimd}) {
    BackendScope use_backend(backend);
    for (int threads : {1, 4}) {
      ThreadCountScope pool(threads);
      const std::string where = c.name + " on the " +
                                (backend == kn::Backend::kSimd ? "simd"
                                                               : "scalar") +
                                " backend at " + std::to_string(threads) +
                                " threads";
      std::vector<Tensor> operands = Operands(c, 1, /*specials=*/false);
      auto forward = [&] {
        std::vector<ag::Var> vars;
        for (const Tensor& t : operands) vars.push_back(ag::Var::Constant(t));
        return c.op(vars);
      };
      plan::CompiledFn fn;
      ag::NoGradGuard no_grad;
      (void)RunCompiled(fn, operands, forward);  // records
      int64_t replays = 0;
      for (bool specials : {false, true}) {
        if (specials && !c.specials) continue;
        // Fresh values, same shapes.
        operands = Operands(c, 2 + replays, specials);
        const Tensor replayed = RunCompiled(fn, operands, forward);
        ++replays;
        ASSERT_EQ(fn.stats().misses, 1) << where;
        ASSERT_EQ(fn.stats().hits, replays) << where << " did not replay";
        const Tensor interpreted = forward().value();
        ASSERT_EQ(replayed.shape(), interpreted.shape()) << where;
        EXPECT_EQ(std::memcmp(replayed.data(), interpreted.data(),
                              sizeof(float) *
                                  static_cast<size_t>(replayed.numel())),
                  0)
            << where << (specials ? " with IEEE specials" : "");
      }
    }
  }
}

void ExpectReplaysMatchInterpreted(const std::vector<OpCase>& cases) {
  for (const OpCase& c : cases) ExpectReplayMatchesInterpreted(c);
}

using Vars = std::vector<ag::Var>;

TEST(CompiledOps, BinaryElementwise) {
  const math::Shape m{3, 5};
  const math::Shape one{1};
  ExpectReplaysMatchInterpreted({
      {"Add", {m, m}, [](const Vars& v) { return ag::Add(v[0], v[1]); }},
      {"Add one-element", {m, one},
       [](const Vars& v) { return ag::Add(v[0], v[1]); }},
      {"Add bias", {m, {5}},
       [](const Vars& v) { return ag::Add(v[0], v[1]); }},
      {"Sub", {m, m}, [](const Vars& v) { return ag::Sub(v[0], v[1]); }},
      {"Sub one-element", {m, one},
       [](const Vars& v) { return ag::Sub(v[0], v[1]); }},
      {"Mul", {m, m}, [](const Vars& v) { return ag::Mul(v[0], v[1]); }},
      {"Mul one-element", {m, one},
       [](const Vars& v) { return ag::Mul(v[0], v[1]); }},
      {"Div", {m, m}, [](const Vars& v) { return ag::Div(v[0], v[1]); }},
      {"Div one-element", {m, one},
       [](const Vars& v) { return ag::Div(v[0], v[1]); }},
      {"Min", {m, m}, [](const Vars& v) { return ag::Min(v[0], v[1]); }},
  });
}

TEST(CompiledOps, UnaryElementwise) {
  const math::Shape m{37};
  OpCase log{"Log", {m}, [](const Vars& v) { return ag::Log(v[0]); }};
  // ag::Log's domain is finite positive input.
  log.specials = false;
  log.lo = 0.05f;
  log.hi = 4.0f;
  ExpectReplaysMatchInterpreted({
      {"Neg", {m}, [](const Vars& v) { return ag::Neg(v[0]); }},
      {"AddScalar", {m},
       [](const Vars& v) { return ag::AddScalar(v[0], 0.75f); }},
      {"MulScalar", {m},
       [](const Vars& v) { return ag::MulScalar(v[0], -1.5f); }},
      {"Clamp", {m},
       [](const Vars& v) { return ag::Clamp(v[0], -0.5f, 0.5f); }},
      {"Exp", {m}, [](const Vars& v) { return ag::Exp(v[0]); }},
      log,
      {"Tanh", {m}, [](const Vars& v) { return ag::Tanh(v[0]); }},
      {"Sigmoid", {m}, [](const Vars& v) { return ag::Sigmoid(v[0]); }},
      {"Relu", {m}, [](const Vars& v) { return ag::Relu(v[0]); }},
      {"Square", {m}, [](const Vars& v) { return ag::Square(v[0]); }},
      {"Abs", {m}, [](const Vars& v) { return ag::Abs(v[0]); }},
  });
}

TEST(CompiledOps, Reductions) {
  ExpectReplaysMatchInterpreted({
      {"Sum", {{4, 9}}, [](const Vars& v) { return ag::Sum(v[0]); }},
      {"Mean", {{4, 9}}, [](const Vars& v) { return ag::Mean(v[0]); }},
  });
}

TEST(CompiledOps, LinearAlgebra) {
  ExpectReplaysMatchInterpreted({
      {"MatMul r = 1", {{21, 19}, {19, 1}},
       [](const Vars& v) { return ag::MatMul(v[0], v[1]); }},
      {"MatMul r > 1", {{6, 19}, {19, 37}},
       [](const Vars& v) { return ag::MatMul(v[0], v[1]); }},
      {"Transpose", {{5, 7}},
       [](const Vars& v) { return ag::Transpose(v[0]); }},
  });
}

TEST(CompiledOps, Shape) {
  ExpectReplaysMatchInterpreted({
      {"Reshape", {{4, 6}},
       [](const Vars& v) { return ag::Reshape(v[0], {3, 8}); }},
      {"Permute rank 2", {{5, 7}},
       [](const Vars& v) { return ag::Permute(v[0], {1, 0}); }},
      {"Permute rank 3", {{2, 3, 4}},
       [](const Vars& v) { return ag::Permute(v[0], {2, 0, 1}); }},
      {"Concat axis 0", {{2, 3}, {4, 3}},
       [](const Vars& v) { return ag::Concat({v[0], v[1]}, 0); }},
      {"Concat axis 1", {{2, 3}, {2, 1}, {2, 4}},
       [](const Vars& v) { return ag::Concat({v[0], v[1], v[2]}, 1); }},
      {"Slice contiguous", {{6, 4}},
       [](const Vars& v) { return ag::Slice(v[0], 0, 1, 3); }},
      {"Slice strided", {{3, 4, 2}},
       [](const Vars& v) { return ag::Slice(v[0], 1, 1, 2); }},
  });
}

TEST(CompiledOps, Softmax) {
  ExpectReplaysMatchInterpreted({
      {"Softmax", {{3, 7}}, [](const Vars& v) { return ag::Softmax(v[0]); }},
  });
}

TEST(CompiledOps, CausalConv1d) {
  const math::Shape x{2, 3, 9};
  const math::Shape w{4, 3, 3};
  std::vector<OpCase> cases;
  for (int64_t dilation : {1, 2}) {
    const std::string d = " dilation " + std::to_string(dilation);
    cases.push_back({"CausalConv1d with bias" + d, {x, w, {4}},
                     [dilation](const Vars& v) {
                       return ag::CausalConv1d(v[0], v[1], v[2], dilation);
                     }});
    cases.push_back({"CausalConv1d without bias" + d, {x, w},
                     [dilation](const Vars& v) {
                       return ag::CausalConv1d(v[0], v[1], ag::Var(),
                                               dilation);
                     }});
  }
  ExpectReplaysMatchInterpreted(cases);
}

// The attention backbones join B blocks with one Concat, so a batch of B
// panels records a step with B inputs, and a plan step may read any number
// of them: here seventeen, each an axis-0 view of the one plan input.
TEST(CompiledOps, ConcatOfSeventeenParts) {
  ExpectReplaysMatchInterpreted({
      {"Concat of 17 parts", {{17, 2, 3}},
       [](const Vars& v) {
         std::vector<ag::Var> parts;
         for (int64_t i = 0; i < 17; ++i) {
           parts.push_back(ag::Slice(v[0], 0, i, 1));
         }
         return ag::Concat(parts, 1);
       }},
  });
}

// ---- Parameter-version staleness -------------------------------------------

// A training step between two DecideWeights calls mutates every parameter;
// a stale plan replaying the pre-step weights would diverge from the
// interpreted twin on the second decide.
TEST(CompiledStaleness, TrainStepBetweenDecides) {
  auto panel = SmallPanel();
  rl::PpoAgent::PpoConfig cfg;
  static_cast<rl::RlTrainConfig&>(cfg) = TinyRlConfig();
  cfg.epochs = 2;
  const int64_t day = panel.train_end() + 2;
  auto run = [&](bool compiled) {
    CompileAllowedScope scope(compiled);
    rl::PpoAgent agent(panel.num_assets(), cfg);
    agent.Train(panel, /*curve_points=*/4);
    std::vector<std::vector<double>> decided;
    decided.push_back(agent.DecideWeights(panel, day));      // records
    decided.push_back(agent.DecideWeights(panel, day + 1));  // replays
    agent.Train(panel, /*curve_points=*/4);  // mutates every parameter
    decided.push_back(agent.DecideWeights(panel, day));      // must re-record
    decided.push_back(agent.DecideWeights(panel, day + 1));
    return decided;
  };
  const auto on = run(true);
  const auto off = run(false);
  ASSERT_EQ(on.size(), off.size());
  for (size_t i = 0; i < on.size(); ++i) {
    ASSERT_EQ(on[i].size(), off[i].size());
    for (size_t j = 0; j < on[i].size(); ++j) {
      EXPECT_EQ(on[i][j], off[i][j]) << "decide " << i << " weight " << j;
    }
  }
}

// Checkpoint hot-swap: restoring older weights over a live agent is a
// parameter mutation like any other — plans recorded after training must
// not replay against the restored parameters.
TEST(CompiledStaleness, CheckpointReloadBetweenDecides) {
  auto panel = SmallPanel();
  rl::PpoAgent::PpoConfig cfg;
  static_cast<rl::RlTrainConfig&>(cfg) = TinyRlConfig();
  cfg.epochs = 2;
  const int64_t day = panel.train_end() + 2;
  auto run = [&](bool compiled, const std::string& ckpt) {
    CompileAllowedScope scope(compiled);
    rl::PpoAgent agent(panel.num_assets(), cfg);
    agent.Train(panel, /*curve_points=*/4);
    std::vector<std::vector<double>> decided;
    decided.push_back(agent.DecideWeights(panel, day));  // plan v1 records
    EXPECT_TRUE(agent.SaveCheckpoint(ckpt).ok()) << ckpt;
    agent.Train(panel, /*curve_points=*/4);
    decided.push_back(agent.DecideWeights(panel, day));  // plan v2
    EXPECT_TRUE(agent.LoadCheckpoint(ckpt).ok()) << ckpt;
    decided.push_back(agent.DecideWeights(panel, day));  // back on v1 params
    return decided;
  };
  const std::string dir = ::testing::TempDir();
  const auto on = run(true, dir + "/plan_ckpt_on.bin");
  const auto off = run(false, dir + "/plan_ckpt_off.bin");
  ASSERT_EQ(on.size(), off.size());
  for (size_t i = 0; i < on.size(); ++i) {
    ASSERT_EQ(on[i].size(), off[i].size());
    for (size_t j = 0; j < on[i].size(); ++j) {
      EXPECT_EQ(on[i][j], off[i][j]) << "decide " << i << " weight " << j;
    }
  }
}

// Structural counterpart of the two tests above: mutating a bound
// parameter through Var::mutable_value invalidates exactly once, then the
// re-recorded plan replays again.
TEST(CompiledStaleness, MutationInvalidatesOnceThenReplays) {
  ag::Var w = ag::Var::Param(Tensor::Full({8}, 0.5f));
  Tensor x = Tensor::Full({8}, 2.0f);
  plan::CompiledFn fn;
  auto forward = [&] {
    return ag::Softmax(ag::Mul(ag::Var::Constant(x), w));
  };
  ag::NoGradGuard no_grad;
  (void)fn.Run({&x}, forward);  // miss: records
  (void)fn.Run({&x}, forward);  // hit: replays
  EXPECT_EQ(fn.stats().misses, 1);
  EXPECT_EQ(fn.stats().hits, 1);

  w.mutable_value()[0] = 1.25f;  // the mutation funnel optimizers go through
  Tensor after_mutation = fn.Run({&x}, forward);
  EXPECT_EQ(fn.stats().invalidations, 1);
  EXPECT_EQ(fn.stats().misses, 2);  // re-recorded
  Tensor interpreted = forward().value();
  for (int64_t i = 0; i < interpreted.numel(); ++i) {
    EXPECT_EQ(after_mutation[i], interpreted[i]) << "element " << i;
  }
  (void)fn.Run({&x}, forward);
  EXPECT_EQ(fn.stats().hits, 2);  // replays once more, no further churn
}

// ---- Shape-keyed cache -------------------------------------------------------

TEST(CompiledCache, DistinctShapesGetDistinctPlans) {
  plan::CompiledFn fn;
  ag::NoGradGuard no_grad;
  for (int64_t n : {4, 8, 4, 8}) {
    Tensor x = Tensor::Full({n}, 1.0f / static_cast<float>(n));
    Tensor y = fn.Run(
        {&x}, [&] { return ag::Softmax(ag::Var::Constant(x)); });
    ASSERT_EQ(y.numel(), n);
  }
  EXPECT_EQ(fn.stats().misses, 2);  // one record per distinct shape
  EXPECT_EQ(fn.stats().hits, 2);    // both revisits replay
  EXPECT_EQ(fn.stats().entries, 2);
}

TEST(CompiledCache, LruEvictionBeyondCapacity) {
  plan::CompiledFn fn;
  ag::NoGradGuard no_grad;
  auto run_len = [&](int64_t n) {
    Tensor x = Tensor::Full({n}, 1.0f);
    (void)fn.Run({&x},
                 [&] { return ag::Relu(ag::Var::Constant(x)); });
  };
  const int64_t total = plan::CompiledFn::kMaxEntries + 3;
  for (int64_t n = 1; n <= total; ++n) run_len(n);
  EXPECT_EQ(fn.stats().misses, total);
  EXPECT_EQ(fn.stats().evictions, 3);
  EXPECT_EQ(fn.stats().entries, plan::CompiledFn::kMaxEntries);
  // The oldest shapes were evicted; re-running one re-records instead of
  // replaying a dropped plan.
  run_len(1);
  EXPECT_EQ(fn.stats().misses, total + 1);
}

// misses splits by cause: a never-seen shape is a cold compile, a
// re-record of an LRU-dropped key is an evicted miss — the signal that the
// shape working set (e.g. a serving mix of batch sizes) exceeds capacity.
TEST(CompiledCache, MissSplitDistinguishesColdFromEvicted) {
  plan::CompiledFn fn;
  ag::NoGradGuard no_grad;
  auto run_len = [&](int64_t n) {
    Tensor x = Tensor::Full({n}, 1.0f);
    (void)fn.Run({&x},
                 [&] { return ag::Relu(ag::Var::Constant(x)); });
  };
  const int64_t total = plan::CompiledFn::kMaxEntries + 3;
  for (int64_t n = 1; n <= total; ++n) run_len(n);
  // Every shape so far was new.
  EXPECT_EQ(fn.stats().misses_cold, total);
  EXPECT_EQ(fn.stats().misses_evicted, 0);
  // Shapes 1..3 were evicted (LRU); re-running them re-records as evicted
  // misses, then thrashes three more entries out — re-running those is
  // again evicted, never cold.
  for (int64_t n = 1; n <= 3; ++n) run_len(n);
  EXPECT_EQ(fn.stats().misses_cold, total);
  EXPECT_EQ(fn.stats().misses_evicted, 3);
  EXPECT_EQ(fn.stats().misses, total + 3);
  // A genuinely new shape still counts cold.
  run_len(total + 1);
  EXPECT_EQ(fn.stats().misses_cold, total + 1);
  EXPECT_EQ(fn.stats().misses_evicted, 3);
  // The split never includes invalidation re-records (the cold + evicted
  // sum accounts for every miss in this parameter-free run).
  EXPECT_EQ(fn.stats().misses,
            fn.stats().misses_cold + fn.stats().misses_evicted);
}

// ---- Elementwise fusion ------------------------------------------------------

TEST(CompiledFusion, FusedChainMatchesInterpreted) {
  math::Rng rng(11);
  Tensor x = Tensor::Uniform({64}, rng, -2, 2);
  // Four single-use elementwise links collapse into the producer's sweep.
  auto forward = [&] {
    return ag::Sigmoid(
        ag::Exp(ag::MulScalar(ag::Square(ag::Var::Constant(x)), -0.5f)));
  };
  plan::CompiledFn fn;
  ag::NoGradGuard no_grad;
  (void)fn.Run({&x}, forward);
  EXPECT_GT(fn.stats().fused_ops, 0);
  Tensor replayed = fn.Run({&x}, forward);
  EXPECT_EQ(fn.stats().hits, 1);
  Tensor interpreted = forward().value();
  for (int64_t i = 0; i < interpreted.numel(); ++i) {
    EXPECT_EQ(replayed[i], interpreted[i]) << "element " << i;
  }
}

// A value consumed twice must NOT be folded into its consumer: the chain
// head stays materialized so the second consumer can read it.
TEST(CompiledFusion, SharedIntermediateStaysMaterialized) {
  math::Rng rng(12);
  Tensor x = Tensor::Uniform({32}, rng, -1, 1);
  auto forward = [&] {
    ag::Var shared = ag::Tanh(ag::Var::Constant(x));  // two consumers
    return ag::Add(ag::Exp(shared), ag::Square(shared));
  };
  plan::CompiledFn fn;
  ag::NoGradGuard no_grad;
  (void)fn.Run({&x}, forward);
  Tensor replayed = fn.Run({&x}, forward);
  Tensor interpreted = forward().value();
  for (int64_t i = 0; i < interpreted.numel(); ++i) {
    EXPECT_EQ(replayed[i], interpreted[i]) << "element " << i;
  }
}

// ---- Coexistence with taped training ----------------------------------------

// Compiled inference and taped training interleave on one parameter set:
// replays never see stale weights, and the tape built between replays
// produces the same gradients as an uncompiled process.
TEST(CompiledMixed, InferenceReplaysBesideTapedTraining) {
  math::Rng rng(13);
  nn::Mlp net({6, 8, 3}, rng);
  nn::Adam opt(nn::ParamVars(net), 0.05f, 0.9f, 0.999f, 1e-8f, 0.0f);
  Tensor x = Tensor::Uniform({6}, rng, -1, 1);
  plan::CompiledFn fn;
  auto infer = [&] {
    ag::NoGradGuard no_grad;
    return fn.Run({&x},
                  [&] { return net.Forward(ag::Var::Constant(x)); });
  };
  auto train_step = [&] {
    opt.ZeroGrad();
    ag::Var loss = ag::Sum(ag::Square(net.Forward(ag::Var::Constant(x))));
    loss.Backward();
    opt.Step();
  };
  std::vector<Tensor> compiled;
  compiled.push_back(infer());  // records
  compiled.push_back(infer());  // replays
  train_step();
  compiled.push_back(infer());  // invalidated -> re-records
  compiled.push_back(infer());  // replays the new plan
  EXPECT_EQ(fn.stats().invalidations, 1);
  EXPECT_EQ(fn.stats().misses, 2);
  EXPECT_EQ(fn.stats().hits, 2);

  // Interpreted twin: fresh net with the same seed, same sequence.
  math::Rng rng2(13);
  nn::Mlp net2({6, 8, 3}, rng2);
  nn::Adam opt2(nn::ParamVars(net2), 0.05f, 0.9f, 0.999f, 1e-8f, 0.0f);
  Tensor x2 = Tensor::Uniform({6}, rng2, -1, 1);
  auto infer2 = [&] {
    ag::NoGradGuard no_grad;
    return net2.Forward(ag::Var::Constant(x2)).value();
  };
  auto train_step2 = [&] {
    opt2.ZeroGrad();
    ag::Var loss =
        ag::Sum(ag::Square(net2.Forward(ag::Var::Constant(x2))));
    loss.Backward();
    opt2.Step();
  };
  std::vector<Tensor> interpreted;
  interpreted.push_back(infer2());
  interpreted.push_back(infer2());
  train_step2();
  interpreted.push_back(infer2());
  interpreted.push_back(infer2());
  ASSERT_EQ(compiled.size(), interpreted.size());
  for (size_t c = 0; c < compiled.size(); ++c) {
    ASSERT_EQ(compiled[c].numel(), interpreted[c].numel());
    for (int64_t i = 0; i < compiled[c].numel(); ++i) {
      EXPECT_EQ(compiled[c][i], interpreted[c][i])
          << "call " << c << " element " << i;
    }
  }
}

// Recording is grad-mode-agnostic: a plan recorded while the tape is live
// (no NoGradGuard) replays the same values, and the recording pass's own
// graph still backpropagates.
TEST(CompiledMixed, RecordsUnderGradMode) {
  ag::Var w = ag::Var::Param(Tensor::Full({4}, 2.0f));
  Tensor x = Tensor::Full({4}, 3.0f);
  plan::CompiledFn fn;
  Tensor first =
      fn.Run({&x}, [&] { return ag::Mul(ag::Var::Constant(x), w); });
  EXPECT_EQ(fn.stats().misses, 1);
  Tensor second =
      fn.Run({&x}, [&] { return ag::Mul(ag::Var::Constant(x), w); });
  EXPECT_EQ(fn.stats().hits, 1);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(first[i], 6.0f);
    EXPECT_EQ(second[i], 6.0f);
  }
  // The tape from an uncompiled forward still differentiates w.
  ag::Var loss = ag::Sum(ag::Mul(ag::Var::Constant(x), w));
  loss.Backward();
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(w.grad()[i], 3.0f);
}

// ---- Kill switch -------------------------------------------------------------

TEST(CompiledKillSwitch, DisallowedRunsInterpreted) {
  CompileAllowedScope scope(false);
  Tensor x = Tensor::Full({8}, 1.0f);
  plan::CompiledFn fn;
  ag::NoGradGuard no_grad;
  for (int rep = 0; rep < 3; ++rep) {
    Tensor y =
        fn.Run({&x}, [&] { return ag::Softmax(ag::Var::Constant(x)); });
    for (int64_t i = 0; i < y.numel(); ++i) {
      EXPECT_EQ(y[i], 0.125f) << "element " << i;
    }
  }
  EXPECT_EQ(fn.stats().fallbacks, 3);
  EXPECT_EQ(fn.stats().misses, 0);
  EXPECT_EQ(fn.stats().hits, 0);
  EXPECT_EQ(fn.stats().entries, 0);
}

TEST(CompiledKillSwitch, ReenablingCompilesAgain) {
  Tensor x = Tensor::Full({8}, 1.0f);
  plan::CompiledFn fn;
  ag::NoGradGuard no_grad;
  {
    CompileAllowedScope off(false);
    (void)fn.Run({&x}, [&] { return ag::Relu(ag::Var::Constant(x)); });
    EXPECT_EQ(fn.stats().fallbacks, 1);
  }
  CompileAllowedScope on(true);
  (void)fn.Run({&x}, [&] { return ag::Relu(ag::Var::Constant(x)); });
  (void)fn.Run({&x}, [&] { return ag::Relu(ag::Var::Constant(x)); });
  EXPECT_EQ(fn.stats().misses, 1);
  EXPECT_EQ(fn.stats().hits, 1);
}

// ---- Single-owner enforcement ------------------------------------------------

// The contract: a CompiledFn belongs to the first thread that runs it on
// the compiled path (plans and stats are not synchronized), and Clear()
// releases the pin so a new thread may adopt it — the handoff the serving
// daemon's replica-per-worker design relies on.

TEST(PlanOwner, SameThreadReuseIsFineAndClearReleasesThePin) {
  plan::CompiledFn fn;
  Tensor x = Tensor::Full({8}, 1.0f);
  auto forward = [&] { return ag::Relu(ag::Var::Constant(x)); };
  {
    ag::NoGradGuard no_grad;
    (void)fn.Run({&x}, forward);
    (void)fn.Run({&x}, forward);  // same thread: replay, no complaint
  }
  EXPECT_EQ(fn.stats().hits, 1);
  fn.Clear();
  // After Clear() a different thread may adopt the (now empty) cache.
  std::thread adopter([&] {
    ag::NoGradGuard no_grad;
    (void)fn.Run({&x}, forward);
    (void)fn.Run({&x}, forward);
  });
  adopter.join();
  // Clear() dropped the plans (the adopter re-recorded) but kept the
  // lifetime stats: one replay before the handoff, one after.
  EXPECT_EQ(fn.stats().hits, 2);
  EXPECT_EQ(fn.stats().misses, 2);
}

TEST(PlanOwnerDeathTest, CrossThreadUseAbortsInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "single-owner enforcement is compiled out under NDEBUG";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  plan::CompiledFn fn;
  Tensor x = Tensor::Full({8}, 1.0f);
  auto forward = [&] { return ag::Relu(ag::Var::Constant(x)); };
  {
    ag::NoGradGuard no_grad;
    (void)fn.Run({&x}, forward);  // pins fn to this thread
  }
  EXPECT_DEATH(
      {
        std::thread second([&] {
          ag::NoGradGuard no_grad;
          (void)fn.Run({&x}, forward);
        });
        second.join();
      },
      "second thread");
#endif
}

}  // namespace
}  // namespace cit
