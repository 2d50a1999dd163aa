// Crash-safe checkpoint/resume contract. Three layers are exercised:
//
//  1. The CITC1 container itself: atomic round trips, and rejection of
//     every corruption class (bad magic, truncation, trailing bytes,
//     duplicate sections, bit flips) with a clean Status.
//  2. Optimizer/meta/progress sections: bitwise state round trips and
//     validate-then-commit loading that leaves the target untouched on
//     any error.
//  3. The flagship guarantee: a training run killed at update k and
//     resumed from its checkpoint produces a learning curve and final
//     weights bitwise identical to the uninterrupted run — across
//     different CIT_NUM_THREADS on either side of the kill.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/config.h"
#include "core/trader.h"
#include "env/portfolio_env.h"
#include "market/simulator.h"
#include "math/autograd.h"
#include "math/rng.h"
#include "nn/checkpoint.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "obs/telemetry.h"
#include "rl/a2c.h"
#include "rl/config.h"
#include "rl/ddpg.h"
#include "rl/deeptrader.h"
#include "rl/eiie.h"
#include "rl/ppo.h"
#include "rl/sarl.h"
#include "rl/train_loop.h"

namespace cit {
namespace {

using math::Rng;
using math::Tensor;

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

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

market::PricePanel TinyPanel(uint64_t seed = 21) {
  market::MarketConfig cfg;
  cfg.num_assets = 4;
  cfg.train_days = 80;
  cfg.test_days = 30;
  cfg.seed = seed;
  return market::SimulateMarket(cfg);
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(nn::ReadFileBytes(path, &bytes).ok()) << path;
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---- Container round trips and rejection ------------------------------------

TEST(CheckpointContainer, RoundTripSections) {
  nn::CheckpointWriter writer;
  writer.AddSection("alpha", {1, 2, 3, 4});
  writer.AddSection("empty", {});
  const std::string path = TempPath("container_roundtrip.ckpt");
  ASSERT_TRUE(writer.WriteAtomic(path).ok());

  auto opened = nn::CheckpointReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const nn::CheckpointReader& ckpt = opened.value();
  EXPECT_TRUE(ckpt.HasSection("alpha"));
  EXPECT_TRUE(ckpt.HasSection("empty"));
  EXPECT_FALSE(ckpt.HasSection("beta"));

  auto section = ckpt.Section("alpha");
  ASSERT_TRUE(section.ok());
  nn::ByteReader r = section.value();
  EXPECT_EQ(r.remaining(), 4u);
  uint8_t payload[4];
  r.Bytes(payload, sizeof(payload));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(payload[0], 1);
  EXPECT_EQ(payload[3], 4);

  auto missing = ckpt.Section("beta");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(CheckpointContainer, MissingFileIsIoError) {
  auto opened = nn::CheckpointReader::Open("/nonexistent/state.ckpt");
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIoError);
}

TEST(CheckpointContainer, RejectsBadMagic) {
  const std::string path = TempPath("bad_magic.ckpt");
  WriteAll(path, {'n', 'o', 't', ' ', 'a', ' ', 'c', 'k', 'p', 't'});
  auto opened = nn::CheckpointReader::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointContainer, RejectsEveryTruncation) {
  nn::CheckpointWriter writer;
  writer.AddSection("one", {10, 20, 30});
  writer.AddSection("two", {40, 50, 60, 70, 80});
  const std::string path = TempPath("truncated.ckpt");
  ASSERT_TRUE(writer.WriteAtomic(path).ok());
  const std::vector<uint8_t> full = ReadAll(path);

  // Any strict prefix must be rejected: the section count pins how much
  // data the container promises.
  for (size_t len = 0; len < full.size(); ++len) {
    WriteAll(path, std::vector<uint8_t>(full.begin(), full.begin() + len));
    auto opened = nn::CheckpointReader::Open(path);
    ASSERT_FALSE(opened.ok()) << "prefix of " << len << " bytes accepted";
    ASSERT_EQ(opened.status().code(), StatusCode::kInvalidArgument) << len;
  }
  std::remove(path.c_str());
}

TEST(CheckpointContainer, RejectsTrailingBytes) {
  nn::CheckpointWriter writer;
  writer.AddSection("one", {1, 2, 3});
  const std::string path = TempPath("trailing.ckpt");
  ASSERT_TRUE(writer.WriteAtomic(path).ok());
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes.push_back(0);
  WriteAll(path, bytes);
  auto opened = nn::CheckpointReader::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("trailing"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointContainer, RejectsDuplicateSections) {
  nn::CheckpointWriter writer;
  writer.AddSection("dup", {1});
  writer.AddSection("dup", {2});
  const std::string path = TempPath("duplicate.ckpt");
  ASSERT_TRUE(writer.WriteAtomic(path).ok());
  auto opened = nn::CheckpointReader::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("duplicate"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointContainer, RejectsEmptySectionNameOnWrite) {
  nn::CheckpointWriter writer;
  writer.AddSection("", {1});
  const std::string path = TempPath("empty_name.ckpt");
  const Status status = writer.WriteAtomic(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// ---- Meta section -----------------------------------------------------------

TEST(CheckpointMetaSection, MatchPassesEveryMismatchFails) {
  nn::CheckpointMeta meta;
  meta.trainer = "A2C";
  meta.num_assets = 4;
  meta.seed = 9;
  meta.arch_tag = 12;
  nn::ByteWriter w;
  nn::AppendMeta(meta, &w);

  {
    nn::ByteReader r(w.bytes());
    EXPECT_TRUE(nn::ValidateMeta(&r, meta).ok());
  }
  const auto expect_reject = [&](nn::CheckpointMeta expected,
                                 const char* needle) {
    nn::ByteReader r(w.bytes());
    const Status status = nn::ValidateMeta(&r, expected);
    ASSERT_FALSE(status.ok()) << needle;
    EXPECT_NE(status.message().find(needle), std::string::npos)
        << status.message();
  };
  nn::CheckpointMeta wrong = meta;
  wrong.trainer = "PPO";
  expect_reject(wrong, "trainer");
  wrong = meta;
  wrong.num_assets = 5;
  expect_reject(wrong, "asset");
  wrong = meta;
  wrong.seed = 10;
  expect_reject(wrong, "seed");
  wrong = meta;
  wrong.arch_tag = 13;
  expect_reject(wrong, "architecture");
}

// ---- Training progress section ----------------------------------------------

TEST(TrainProgressSection, RoundTripAndValidation) {
  rl::TrainProgress progress;
  progress.next_update = 7;
  progress.curve = {0.25, -0.5, 1.75};
  progress.curve_acc = 0.125;
  progress.curve_n = 3;
  nn::ByteWriter w;
  rl::AppendTrainProgress(progress, &w);

  nn::ByteReader r(w.bytes());
  rl::TrainProgress back;
  ASSERT_TRUE(rl::ParseTrainProgress(&r, &back).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.next_update, 7);
  EXPECT_EQ(back.curve, progress.curve);
  EXPECT_EQ(back.curve_acc, 0.125);
  EXPECT_EQ(back.curve_n, 3);

  // A negative update counter is structurally valid bytes but semantic
  // nonsense; the parser must reject it.
  nn::ByteWriter bad;
  bad.I64(-1);
  bad.DoubleVec({});
  bad.F64(0.0);
  bad.I64(0);
  nn::ByteReader br(bad.bytes());
  rl::TrainProgress scratch;
  EXPECT_FALSE(rl::ParseTrainProgress(&br, &scratch).ok());

  // Non-finite curve points or accumulators are well-formed bytes too, but
  // a resumed run would carry them into every later curve point.
  const double kNonFinite[] = {std::nan(""), INFINITY, -INFINITY};
  for (double v : kNonFinite) {
    for (bool in_curve : {true, false}) {
      nn::ByteWriter nf;
      nf.I64(2);
      nf.DoubleVec(in_curve ? std::vector<double>{0.5, v}
                            : std::vector<double>{0.5});
      nf.F64(in_curve ? 0.25 : v);
      nf.I64(1);
      nn::ByteReader nr(nf.bytes());
      const Status status = rl::ParseTrainProgress(&nr, &scratch);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << v << (in_curve ? " in curve" : " in curve_acc");
    }
  }
}

// ---- Optimizer state sections -----------------------------------------------

// One optimizer step over a tiny Mlp so Adam/SGD slots are populated.
void PopulateGradsAndStep(nn::Mlp* mlp, nn::Optimizer* opt, uint64_t seed) {
  Rng rng(seed);
  Tensor x = Tensor::Uniform({4}, rng, -1, 1);
  ag::Var loss = ag::Sum(ag::Square(mlp->Forward(ag::Var::Constant(x))));
  opt->ZeroGrad();
  loss.Backward();
  opt->Step();
}

std::vector<uint8_t> OptimizerStateBytes(const nn::Optimizer& opt) {
  nn::ByteWriter w;
  opt.SaveState(&w);
  return w.bytes();
}

TEST(OptimizerState, AdamRoundTripIsBitwise) {
  Rng rng(11);
  nn::Mlp a({4, 8, 2}, rng);
  nn::Mlp b({4, 8, 2}, rng);  // twin architecture, different init
  nn::Adam oa(nn::ParamVars(a), 1e-2f);
  nn::Adam ob(nn::ParamVars(b), 1e-2f);
  PopulateGradsAndStep(&a, &oa, 1);
  PopulateGradsAndStep(&a, &oa, 2);

  const std::vector<uint8_t> state = OptimizerStateBytes(oa);
  nn::ByteReader r(state);
  ASSERT_TRUE(ob.LoadState(&r).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(OptimizerStateBytes(ob), state);
}

TEST(OptimizerState, FreshAdamAbsentSlotsRoundTrip) {
  Rng rng(12);
  nn::Mlp a({4, 8, 2}, rng);
  nn::Mlp b({4, 8, 2}, rng);
  nn::Adam oa(nn::ParamVars(a), 1e-2f);
  nn::Adam ob(nn::ParamVars(b), 1e-2f);
  // Never stepped: every moment slot is lazily uninitialized and must
  // round-trip as absent.
  const std::vector<uint8_t> state = OptimizerStateBytes(oa);
  nn::ByteReader r(state);
  ASSERT_TRUE(ob.LoadState(&r).ok());
  EXPECT_EQ(OptimizerStateBytes(ob), state);
}

TEST(OptimizerState, SgdMomentumRoundTrip) {
  Rng rng(13);
  nn::Mlp a({4, 8, 2}, rng);
  nn::Mlp b({4, 8, 2}, rng);
  nn::Sgd oa(nn::ParamVars(a), 1e-2f, /*momentum=*/0.9f);
  nn::Sgd ob(nn::ParamVars(b), 1e-2f, /*momentum=*/0.9f);
  PopulateGradsAndStep(&a, &oa, 3);

  const std::vector<uint8_t> state = OptimizerStateBytes(oa);
  nn::ByteReader r(state);
  ASSERT_TRUE(ob.LoadState(&r).ok());
  EXPECT_EQ(OptimizerStateBytes(ob), state);
}

TEST(OptimizerState, RejectsShapeMismatchWithoutCommitting) {
  Rng rng(14);
  nn::Mlp a({4, 8, 2}, rng);
  nn::Mlp b({4, 9, 2}, rng);  // same tensor count, different shapes
  nn::Adam oa(nn::ParamVars(a), 1e-2f);
  nn::Adam ob(nn::ParamVars(b), 1e-2f);
  PopulateGradsAndStep(&a, &oa, 4);
  const std::vector<uint8_t> before = OptimizerStateBytes(ob);

  const std::vector<uint8_t> foreign = OptimizerStateBytes(oa);
  nn::ByteReader r(foreign);
  const Status status = ob.LoadState(&r);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shape"), std::string::npos)
      << status.message();
  // Failed loads must leave the optimizer untouched.
  EXPECT_EQ(OptimizerStateBytes(ob), before);
}

TEST(OptimizerState, RejectsNonFiniteSlotValue) {
  ag::Var param = ag::Var::Param(Tensor::Full({2}, 0.5f));
  nn::Adam opt({param}, 1e-2f);
  ag::Var loss = ag::Sum(ag::Square(param));
  loss.Backward();
  opt.Step();

  // Layout: i64 t, u64 slot count, u8 present flag, u64 ndim, i64 dim,
  // then the first moment's floats.
  std::vector<uint8_t> state = OptimizerStateBytes(opt);
  const size_t float_off = 8 + 8 + 1 + 8 + 8;
  ASSERT_GE(state.size(), float_off + sizeof(float));
  const float nan = std::nanf("");
  std::memcpy(state.data() + float_off, &nan, sizeof(nan));

  nn::ByteReader r(state);
  nn::Optimizer::StagedState staged;
  const Status status = opt.ParseState(&r, &staged);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("non-finite"), std::string::npos)
      << status.message();
}

TEST(OptimizerState, RejectsNegativeStepCounter) {
  ag::Var param = ag::Var::Param(Tensor::Full({2}, 0.5f));
  nn::Adam opt({param}, 1e-2f);
  nn::ByteWriter w;
  w.I64(-3);  // step counter can never be negative
  w.U64(1);   // m slots: one, absent
  w.U8(0);
  w.U64(1);   // v slots: one, absent
  w.U8(0);
  nn::ByteReader r(w.bytes());
  nn::Optimizer::StagedState staged;
  EXPECT_FALSE(opt.ParseState(&r, &staged).ok());
}

// ---- Env cursor -------------------------------------------------------------

TEST(EnvCursor, RoundTripAndValidation) {
  auto panel = TinyPanel();
  env::EnvConfig cfg;
  cfg.window = 8;
  env::PortfolioEnv env(panel, cfg);
  env.Reset();
  const std::vector<double> weights(4, 0.25);
  for (int i = 0; i < 3; ++i) env.Step(weights);

  const env::PortfolioEnv::EnvCursor cursor = env.Cursor();
  for (int i = 0; i < 2; ++i) env.Step(weights);
  ASSERT_NE(env.current_day(), cursor.day);
  ASSERT_TRUE(env.RestoreCursor(cursor).ok());
  EXPECT_EQ(env.current_day(), cursor.day);
  EXPECT_EQ(env.wealth(), cursor.wealth);
  EXPECT_EQ(env.previous_weights(), cursor.held);

  // Invalid cursors are rejected and leave the env untouched.
  const int64_t day_before = env.current_day();
  env::PortfolioEnv::EnvCursor bad = cursor;
  bad.day = cfg.window - 1;  // before the first full window
  EXPECT_FALSE(env.RestoreCursor(bad).ok());
  bad = cursor;
  bad.wealth = -1.0;
  EXPECT_FALSE(env.RestoreCursor(bad).ok());
  bad = cursor;
  bad.held = {0.5, 0.5};  // wrong asset count
  EXPECT_FALSE(env.RestoreCursor(bad).ok());
  bad = cursor;
  bad.held = {2.0, -1.0, 0.0, 0.0};  // not a valid portfolio
  EXPECT_FALSE(env.RestoreCursor(bad).ok());
  EXPECT_EQ(env.current_day(), day_before);
}

// ---- Trainer-level identity checks ------------------------------------------

rl::RlTrainConfig TinyA2cConfig() {
  rl::RlTrainConfig cfg;
  cfg.window = 8;
  cfg.hidden = 12;
  cfg.train_steps = 6;
  cfg.rollout_len = 6;
  cfg.seed = 5;
  return cfg;
}

TEST(CheckpointIdentity, WrongTrainerSeedOrArchIsRejected) {
  auto panel = TinyPanel();
  const std::string path = TempPath("identity.ckpt");
  rl::A2cAgent source(panel.num_assets(), TinyA2cConfig());
  ASSERT_TRUE(source.SaveCheckpoint(path).ok());

  {  // Same hyper-parameters, different algorithm.
    rl::PpoAgent::PpoConfig cfg;
    static_cast<rl::RlTrainConfig&>(cfg) = TinyA2cConfig();
    rl::PpoAgent wrong(panel.num_assets(), cfg);
    const Status status = wrong.LoadCheckpoint(path);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("trainer"), std::string::npos);
  }
  {  // Different seed: the resumed RNG streams would diverge silently.
    rl::RlTrainConfig cfg = TinyA2cConfig();
    cfg.seed = 6;
    rl::A2cAgent wrong(panel.num_assets(), cfg);
    EXPECT_FALSE(wrong.LoadCheckpoint(path).ok());
  }
  {  // Different architecture.
    rl::RlTrainConfig cfg = TinyA2cConfig();
    cfg.hidden = 16;
    rl::A2cAgent wrong(panel.num_assets(), cfg);
    EXPECT_FALSE(wrong.LoadCheckpoint(path).ok());
  }
  std::remove(path.c_str());
}

// ---- Corruption fuzz --------------------------------------------------------

TEST(CheckpointFuzz, BitFlipsAreAlwaysRejectedAndNeverCommit) {
  ThreadCountGuard guard(2);
  const std::string good_path = TempPath("fuzz_good.ckpt");
  const std::string bad_path = TempPath("fuzz_bad.ckpt");
  auto panel = TinyPanel();
  rl::RlTrainConfig cfg = TinyA2cConfig();
  cfg.train_steps = 2;
  rl::A2cAgent agent(panel.num_assets(), cfg);
  agent.Train(panel, 2);
  ASSERT_TRUE(agent.SaveCheckpoint(good_path).ok());
  const std::vector<uint8_t> good = ReadAll(good_path);
  ASSERT_FALSE(good.empty());

  // Flip one bit of every byte (rotating which bit): the per-section CRC
  // plus structural validation must reject every variant cleanly.
  std::vector<uint8_t> mutated = good;
  for (size_t i = 0; i < good.size(); ++i) {
    mutated[i] = good[i] ^ static_cast<uint8_t>(1u << (i % 8));
    WriteAll(bad_path, mutated);
    const Status status = agent.LoadCheckpoint(bad_path);
    ASSERT_FALSE(status.ok()) << "bit flip at byte " << i << " accepted";
    mutated[i] = good[i];
  }

  // None of the thousands of failed loads may have committed anything:
  // re-serializing the agent reproduces the original file bit for bit.
  const std::string resaved = TempPath("fuzz_resaved.ckpt");
  ASSERT_TRUE(agent.SaveCheckpoint(resaved).ok());
  EXPECT_EQ(ReadAll(resaved), good);

  // And the pristine file still loads.
  EXPECT_TRUE(agent.LoadCheckpoint(good_path).ok());
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
  std::remove(resaved.c_str());
}

TEST(CheckpointFuzz, TruncationsAreAlwaysRejectedAndNeverCommit) {
  ThreadCountGuard guard(2);
  const std::string good_path = TempPath("trunc_good.ckpt");
  const std::string bad_path = TempPath("trunc_bad.ckpt");
  auto panel = TinyPanel();
  rl::RlTrainConfig cfg = TinyA2cConfig();
  cfg.train_steps = 2;
  rl::A2cAgent agent(panel.num_assets(), cfg);
  agent.Train(panel, 2);
  ASSERT_TRUE(agent.SaveCheckpoint(good_path).ok());
  const std::vector<uint8_t> good = ReadAll(good_path);

  for (size_t len = 0; len < good.size(); len += 7) {
    WriteAll(bad_path, std::vector<uint8_t>(good.begin(), good.begin() + len));
    const Status status = agent.LoadCheckpoint(bad_path);
    ASSERT_FALSE(status.ok()) << "prefix of " << len << " bytes accepted";
  }
  const std::string resaved = TempPath("trunc_resaved.ckpt");
  ASSERT_TRUE(agent.SaveCheckpoint(resaved).ok());
  EXPECT_EQ(ReadAll(resaved), good);
  std::remove(good_path.c_str());
  std::remove(bad_path.c_str());
  std::remove(resaved.c_str());
}

// ---- Kill-at-k bitwise resume -----------------------------------------------
//
// The flagship guarantee: a run that checkpoints at update k and a fresh
// process that resumes from that checkpoint must together reproduce the
// uninterrupted run exactly — same learning curve, same final weights and
// optimizer moments (compared as serialized checkpoint bytes). The three
// phases deliberately run under different thread counts, so the guarantee
// is exercised across CIT_NUM_THREADS on either side of the kill.

template <typename Agent, typename Config>
void ExpectKillResumeBitwise(const market::PricePanel& panel,
                             const Config& base_cfg, int64_t curve_points,
                             int64_t checkpoint_at, const std::string& tag) {
  const std::string mid_ckpt = TempPath(tag + "_mid.ckpt");
  const std::string base_state = TempPath(tag + "_base.ckpt");
  const std::string resumed_state = TempPath(tag + "_resumed.ckpt");

  // Uninterrupted reference run.
  std::vector<double> base_curve;
  std::vector<uint8_t> base_bytes;
  {
    ThreadCountGuard guard(1);
    Agent agent(panel.num_assets(), base_cfg);
    base_curve = agent.Train(panel, curve_points);
    ASSERT_TRUE(agent.SaveCheckpoint(base_state).ok());
    base_bytes = ReadAll(base_state);
  }
  ASSERT_FALSE(base_curve.empty());
  for (double v : base_curve) ASSERT_TRUE(std::isfinite(v));

  // The "killed" run: identical config, but it leaves its state at update
  // `checkpoint_at` behind. It also runs to completion, which doubles as
  // the check that writing checkpoints never perturbs training.
  {
    ThreadCountGuard guard(2);
    Config cfg = base_cfg;
    cfg.checkpoint_every = checkpoint_at;
    cfg.checkpoint_path = mid_ckpt;
    Agent agent(panel.num_assets(), cfg);
    const std::vector<double> curve = agent.Train(panel, curve_points);
    ASSERT_EQ(curve.size(), base_curve.size());
    for (size_t i = 0; i < curve.size(); ++i) {
      EXPECT_EQ(curve[i], base_curve[i]) << tag << " checkpointed run, " << i;
    }
  }

  // A fresh process resumes from the mid-run checkpoint.
  {
    ThreadCountGuard guard(4);
    Config cfg = base_cfg;
    cfg.resume_from = mid_ckpt;
    Agent agent(panel.num_assets(), cfg);
    const std::vector<double> curve = agent.Train(panel, curve_points);
    ASSERT_EQ(curve.size(), base_curve.size());
    for (size_t i = 0; i < curve.size(); ++i) {
      EXPECT_EQ(curve[i], base_curve[i]) << tag << " resumed run, " << i;
    }
    ASSERT_TRUE(agent.SaveCheckpoint(resumed_state).ok());
    EXPECT_EQ(ReadAll(resumed_state), base_bytes)
        << tag << ": resumed final state differs from uninterrupted run";
  }
  std::remove(mid_ckpt.c_str());
  std::remove(base_state.c_str());
  std::remove(resumed_state.c_str());
}

TEST(CheckpointResume, CitKillResumeBitwise) {
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
  ExpectKillResumeBitwise<core::CrossInsightTrader>(
      panel, cfg, /*curve_points=*/4, /*checkpoint_at=*/3, "cit");
}

TEST(CheckpointResume, A2cKillResumeBitwise) {
  auto panel = TinyPanel();
  ExpectKillResumeBitwise<rl::A2cAgent>(panel, TinyA2cConfig(),
                                        /*curve_points=*/3,
                                        /*checkpoint_at=*/4, "a2c");
}

TEST(CheckpointResume, SarlKillResumeBitwise) {
  // SARL resumes through A2C's loop. Its movement predictor is not in the
  // checkpoint: the resumed run re-runs the pre-training, which draws the
  // same sequence from the freshly seeded RNG.
  auto panel = TinyPanel();
  ExpectKillResumeBitwise<rl::SarlAgent>(panel, TinyA2cConfig(),
                                         /*curve_points=*/3,
                                         /*checkpoint_at=*/4, "sarl");
}

TEST(CheckpointResume, PpoKillResumeBitwise) {
  auto panel = TinyPanel();
  rl::PpoAgent::PpoConfig cfg;
  static_cast<rl::RlTrainConfig&>(cfg) = TinyA2cConfig();
  cfg.train_steps = 4;
  cfg.epochs = 2;
  cfg.seed = 7;
  ExpectKillResumeBitwise<rl::PpoAgent>(panel, cfg, /*curve_points=*/2,
                                        /*checkpoint_at=*/3, "ppo");
}

TEST(CheckpointResume, DdpgKillResumeBitwise) {
  // DDPG is the hard case: on top of the shared sections its checkpoint
  // must capture the sequential RNG, the replay buffer, and the env
  // cursor for the resumed run to walk the same trajectory.
  auto panel = TinyPanel();
  rl::DdpgAgent::DdpgConfig cfg;
  static_cast<rl::RlTrainConfig&>(cfg) = TinyA2cConfig();
  cfg.train_steps = 40;
  cfg.warmup_steps = 10;
  cfg.batch_size = 8;
  cfg.seed = 9;
  ExpectKillResumeBitwise<rl::DdpgAgent>(panel, cfg, /*curve_points=*/4,
                                         /*checkpoint_at=*/30, "ddpg");
}

// ---- Trainers without checkpoints -------------------------------------------
//
// EIIE and DeepTrader keep no checkpoint. A config that asks them to resume
// or to checkpoint must abort instead of silently training from scratch or
// writing nothing.

template <typename Config>
Config NoCheckpointConfig() {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Config cfg;
  static_cast<rl::RlTrainConfig&>(cfg) = TinyA2cConfig();
  cfg.segment_len = 4;
  return cfg;
}

template <typename Agent, typename Config>
void ExpectResumeAborts() {
  Config cfg = NoCheckpointConfig<Config>();
  cfg.resume_from = TempPath("no_such_resume.ckpt");
  auto panel = TinyPanel();
  EXPECT_DEATH(Agent(panel.num_assets(), cfg).Train(panel),
               "no checkpoint to resume from");
}

template <typename Agent, typename Config>
void ExpectCheckpointingAborts() {
  Config cfg = NoCheckpointConfig<Config>();
  cfg.checkpoint_every = 1;
  cfg.checkpoint_path = TempPath("never_written.ckpt");
  auto panel = TinyPanel();
  EXPECT_DEATH(Agent(panel.num_assets(), cfg).Train(panel),
               "writes no checkpoints");
}

TEST(CheckpointRequestDeathTest, EiieResumeAborts) {
  ExpectResumeAborts<rl::EiieAgent, rl::EiieAgent::EiieConfig>();
}

TEST(CheckpointRequestDeathTest, EiieCheckpointingAborts) {
  ExpectCheckpointingAborts<rl::EiieAgent, rl::EiieAgent::EiieConfig>();
}

TEST(CheckpointRequestDeathTest, DeepTraderResumeAborts) {
  ExpectResumeAborts<rl::DeepTraderAgent,
                     rl::DeepTraderAgent::DeepTraderConfig>();
}

TEST(CheckpointRequestDeathTest, DeepTraderCheckpointingAborts) {
  ExpectCheckpointingAborts<rl::DeepTraderAgent,
                            rl::DeepTraderAgent::DeepTraderConfig>();
}

// ---- Directory durability of the atomic writer -------------------------------

// Restores the obs runtime switch no matter how the test exits.
class TelemetryEnabledScope {
 public:
  TelemetryEnabledScope() : prev_(obs::Enabled()) { obs::SetEnabled(true); }
  ~TelemetryEnabledScope() { obs::SetEnabled(prev_); }

 private:
  bool prev_;
};

// A bad parent-directory path must surface as an error from the write
// path, and the post-rename directory-fsync stage specifically must report
// its own failures (it used to swallow them) and count them.
TEST(AtomicWrite, BadParentDirectorySurfacesErrorAndCounts) {
  TelemetryEnabledScope telemetry;
  obs::Registry::Global().ResetAll();
  obs::Counter& errors =
      obs::Registry::Global().GetCounter("checkpoint.dir_fsync_errors");

  const char payload[] = "x";
  const std::string missing_dir = TempPath("no_such_ckpt_dir") + "/w.bin";
  EXPECT_FALSE(nn::AtomicWriteFile(missing_dir, payload, 1).ok());

  // The fsync stage itself: parent missing, and parent-is-a-regular-file
  // (ENOTDIR). Both must yield IoError, not silent success.
  const Status gone = nn::FsyncParentDir(missing_dir);
  EXPECT_EQ(gone.code(), StatusCode::kIoError);
  EXPECT_NE(gone.message().find("parent directory"), std::string::npos);
  const std::string plain_file = TempPath("ckpt_fsync_plain_file");
  WriteAll(plain_file, {0x1});
  const Status notdir = nn::FsyncParentDir(plain_file + "/child.bin");
  EXPECT_EQ(notdir.code(), StatusCode::kIoError);
  EXPECT_EQ(errors.Total(), 2u);

  // The happy path is unaffected and counts nothing.
  const std::string good = TempPath("ckpt_fsync_good.bin");
  EXPECT_TRUE(nn::AtomicWriteFile(good, payload, 1).ok());
  EXPECT_EQ(errors.Total(), 2u);
}

}  // namespace
}  // namespace cit
