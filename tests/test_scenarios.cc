// Scenario transform semantics + the expected-ordering suite: each stress
// preset must hurt exactly the strategy class it is designed to hurt, at
// fixed seeds (DESIGN.md §11). ScenarioSweep runs CIT cells through
// env::RunSweep on the pool and pins the report byte for byte across
// thread counts.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/trader.h"
#include "env/backtest.h"
#include "env/sweep.h"
#include "market/scenario.h"
#include "market/simulator.h"
#include "market/source.h"
#include "olps/strategies.h"

namespace cit::market {
namespace {

MarketConfig ScenarioMarket(uint64_t seed = 11) {
  MarketConfig cfg;
  cfg.name = "scenario-test";
  cfg.num_assets = 6;
  cfg.train_days = 200;
  cfg.test_days = 100;
  cfg.seed = seed;
  return cfg;
}

// Decorates `base` with a parsed stack; aborts the test on parse errors.
std::unique_ptr<ScenarioSource> MakeStack(const PanelSource* base,
                                          const std::string& text) {
  auto parsed = ParseScenarioStack(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().message();
  auto made = ScenarioSource::Make(base, std::move(parsed).value());
  EXPECT_TRUE(made.ok()) << made.status().message();
  return std::move(made).value();
}

// The row-memo evaluation a ScenarioSource used before it evaluated its
// stack level by level, kept as the reference: the close row of `day`
// after the first `level` transforms, where transform k reads other days
// through memoized rows after the first k transforms.
class RowMemoReference {
 public:
  RowMemoReference(const PricePanel& base, const std::string& text)
      : base_(base) {
    auto parsed = ParseScenarioStack(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().message();
    for (const ScenarioSpec& spec : parsed.value()) {
      auto made = MakeScenarioTransform(spec);
      EXPECT_TRUE(made.ok()) << made.status().message();
      stack_.push_back(std::move(made).value());
    }
  }

  std::vector<double> Row(int64_t day) {
    std::vector<double> row(static_cast<size_t>(base_.num_assets()));
    EvalRow(day, stack_.size(), row.data());
    return row;
  }

  double CostMultiplier(int64_t day) {
    double mult = 1.0;
    for (size_t k = 0; k < stack_.size(); ++k) {
      mult *= stack_[k]->CostMultiplier(LevelInput(this, k), day);
    }
    return mult;
  }

 private:
  class LevelInput : public ScenarioTransform::Input {
   public:
    LevelInput(RowMemoReference* ref, size_t level)
        : ref_(ref), level_(level) {}

    double Close(int64_t day, int64_t asset) const override {
      const uint64_t key =
          (static_cast<uint64_t>(level_) << 40) | static_cast<uint64_t>(day);
      auto it = ref_->anchor_rows_.find(key);
      if (it == ref_->anchor_rows_.end()) {
        std::vector<double> row(static_cast<size_t>(num_assets()));
        ref_->EvalRow(day, level_, row.data());
        it = ref_->anchor_rows_.emplace(key, std::move(row)).first;
      }
      return it->second[static_cast<size_t>(asset)];
    }
    int64_t num_days() const override { return ref_->base_.num_days(); }
    int64_t num_assets() const override { return ref_->base_.num_assets(); }
    int64_t train_end() const override { return ref_->base_.train_end(); }

   private:
    RowMemoReference* ref_;
    size_t level_;
  };

  void EvalRow(int64_t day, size_t level, double* row) {
    for (int64_t i = 0; i < base_.num_assets(); ++i) {
      row[i] = base_.Close(day, i);
    }
    for (size_t k = 0; k < level; ++k) {
      stack_[k]->Apply(LevelInput(this, k), day, row);
    }
  }

  const PricePanel& base_;
  std::vector<std::unique_ptr<ScenarioTransform>> stack_;
  std::unordered_map<uint64_t, std::vector<double>> anchor_rows_;
};

// ---- Parsing / registry ----------------------------------------------------

TEST(Scenario, ParseFormatsRoundTrip) {
  auto parsed = ParseScenarioStack(
      "flash_crash:depth=0.4,ramp_days=3|halt|regime_flip:day=220");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const auto stack = std::move(parsed).value();
  ASSERT_EQ(stack.size(), 3u);
  EXPECT_EQ(stack[0].name, "flash_crash");
  EXPECT_EQ(stack[0].params.at("depth"), 0.4);
  EXPECT_EQ(stack[1].name, "halt");
  EXPECT_TRUE(stack[1].params.empty());
  EXPECT_EQ(FormatScenarioStack(stack),
            "flash_crash:depth=0.4,ramp_days=3|halt|regime_flip:day=220");
  // Values that six significant digits would round: each must format
  // back to its own text and parse to the same double.
  const struct {
    const char* text;
    const char* key;
    double value;
  } precise[] = {
      {"flash_crash:depth=0.123456789", "depth", 0.123456789},
      {"halt:day=1234567", "day", 1234567.0},
      {"liquidity_hole:cost_mult=8.0000001", "cost_mult", 8.0000001},
  };
  for (const auto& c : precise) {
    auto one = ParseScenarioStack(c.text);
    ASSERT_TRUE(one.ok()) << one.status().message();
    ASSERT_EQ(one.value().size(), 1u);
    EXPECT_EQ(one.value()[0].params.at(c.key), c.value) << c.text;
    const std::string formatted = FormatScenarioStack(one.value());
    EXPECT_EQ(formatted, c.text);
    auto again = ParseScenarioStack(formatted);
    ASSERT_TRUE(again.ok()) << again.status().message();
    EXPECT_EQ(again.value()[0].params.at(c.key), c.value) << c.text;
  }
  // Empty text = empty stack, not an error.
  auto empty = ParseScenarioStack("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(Scenario, ParseAndFactoryRejectBadInput) {
  EXPECT_FALSE(ParseScenarioStack("flash_crash:depth").ok());
  EXPECT_FALSE(ParseScenarioStack("flash_crash:depth=abc").ok());
  EXPECT_FALSE(ParseScenarioStack("|flash_crash").ok());
  ScenarioSpec unknown{"no_such_preset", {}};
  EXPECT_FALSE(MakeScenarioTransform(unknown).ok());
  ScenarioSpec typo{"flash_crash", {{"dpeth", 0.4}}};
  EXPECT_FALSE(MakeScenarioTransform(typo).ok());  // unknown parameter
  ScenarioSpec bad{"flash_crash", {{"depth", 1.5}}};
  EXPECT_FALSE(MakeScenarioTransform(bad).ok());  // out of range
  const auto names = RegisteredScenarioNames();
  EXPECT_EQ(names.size(), 5u);
}

// ---- Transform semantics ---------------------------------------------------

TEST(Scenario, FlashCrashScalesAffectedAssetsOnly) {
  const PricePanel panel = SimulateMarket(ScenarioMarket());
  InMemorySource base(&panel);
  // Permanent 30% crash on half the assets, instant (1-day ramp), at an
  // absolute day.
  auto source = MakeStack(
      &base, "flash_crash:day=210,depth=0.3,assets_frac=0.5");
  PanelView view(source.get());
  const int64_t affected = 3;  // round(0.5 * 6)
  for (int64_t t = 0; t < panel.num_days(); ++t) {
    for (int64_t i = 0; i < panel.num_assets(); ++i) {
      const double expect = (t >= 210 && i < affected)
                                ? panel.Close(t, i) * 0.7
                                : panel.Close(t, i);
      ASSERT_DOUBLE_EQ(view.Close(t, i), expect) << "day " << t;
    }
  }
}

TEST(Scenario, FlashCrashRecoveryReturnsToInputPath) {
  const PricePanel panel = SimulateMarket(ScenarioMarket());
  InMemorySource base(&panel);
  auto source = MakeStack(
      &base,
      "flash_crash:day=210,depth=0.3,ramp_days=2,recover_days=5,"
      "assets_frac=0.5");
  PanelView view(source.get());
  // Mid-ramp: half depth on day 210, full depth on day 211.
  EXPECT_DOUBLE_EQ(view.Close(210, 0), panel.Close(210, 0) * (1.0 - 0.15));
  EXPECT_DOUBLE_EQ(view.Close(211, 0), panel.Close(211, 0) * 0.7);
  // Fully recovered 5 days past the bottom, and ever after.
  EXPECT_EQ(view.Close(216, 0), panel.Close(216, 0));
  EXPECT_EQ(view.Close(260, 0), panel.Close(260, 0));
}

TEST(Scenario, CorrelationBreakdownFullCompressEqualizesCumReturns) {
  const PricePanel panel = SimulateMarket(ScenarioMarket());
  InMemorySource base(&panel);
  auto source =
      MakeStack(&base, "correlation_breakdown:day=200,compress=1");
  PanelView view(source.get());
  for (int64_t t = 201; t < panel.num_days(); t += 13) {
    const double r0 = view.Close(t, 0) / view.Close(200, 0);
    for (int64_t i = 1; i < panel.num_assets(); ++i) {
      const double ri = view.Close(t, i) / view.Close(200, i);
      EXPECT_NEAR(ri / r0, 1.0, 1e-9) << "day " << t << " asset " << i;
    }
  }
}

TEST(Scenario, HaltFreezesQuotesAndRelativesStayExactlyOne) {
  const PricePanel panel = SimulateMarket(ScenarioMarket());
  InMemorySource base(&panel);
  auto source = MakeStack(&base, "halt:day=210,length=20,assets=2");
  PanelView view(source.get());
  for (int64_t t = 210; t < 230; ++t) {
    for (int64_t i = 0; i < 2; ++i) {
      EXPECT_EQ(view.Close(t, i), panel.Close(209, i));
      EXPECT_EQ(view.PriceRelative(t, i), 1.0);
    }
    EXPECT_EQ(view.Close(t, 3), panel.Close(t, 3));  // others untouched
  }
  // Un-halts afterwards; the re-opening jump is a normal finite relative.
  EXPECT_EQ(view.Close(230, 0), panel.Close(230, 0));
  EXPECT_TRUE(std::isfinite(view.PriceRelative(230, 0)));
}

TEST(Scenario, ZeroedHaltNeverEmitsInfOrNanThroughTheEnv) {
  const PricePanel panel = SimulateMarket(ScenarioMarket());
  InMemorySource base(&panel);
  // Zeroed quotes (the pathological feed) plus delisting to the end.
  auto source =
      MakeStack(&base, "halt:day=220,length=0,assets=2,zero=1");
  PanelView view(source.get());
  for (int64_t t = 219; t < panel.num_days(); ++t) {
    for (int64_t i = 0; i < panel.num_assets(); ++i) {
      EXPECT_TRUE(std::isfinite(view.PriceRelative(t, i)));
    }
  }
  olps::Crp agent;
  const auto result = env::RunTestBacktest(agent, view, 16);
  for (double w : result.wealth) {
    ASSERT_TRUE(std::isfinite(w));
    ASSERT_GT(w, 0.0);
  }
}

TEST(Scenario, RegimeFlipReflectsAroundPivot) {
  const PricePanel panel = SimulateMarket(ScenarioMarket());
  InMemorySource base(&panel);
  auto source = MakeStack(&base, "regime_flip:day=230");
  PanelView view(source.get());
  for (int64_t t = 0; t <= 230; ++t) {
    EXPECT_EQ(view.Close(t, 0), panel.Close(t, 0));
  }
  for (int64_t t = 231; t < panel.num_days(); t += 7) {
    const double pivot = panel.Close(230, 2);
    EXPECT_DOUBLE_EQ(view.Close(t, 2), pivot * pivot / panel.Close(t, 2));
  }
}

TEST(Scenario, LiquidityHoleWidensCostsOnlyInsideWindow) {
  const PricePanel panel = SimulateMarket(ScenarioMarket());
  InMemorySource base(&panel);
  auto source = MakeStack(
      &base, "liquidity_hole:test_offset=10,length=40,cost_mult=8");
  const int64_t start = panel.train_end() + 10;
  EXPECT_EQ(source->CostMultiplier(start - 1), 1.0);
  EXPECT_EQ(source->CostMultiplier(start), 8.0);
  EXPECT_EQ(source->CostMultiplier(start + 39), 8.0);
  EXPECT_EQ(source->CostMultiplier(start + 40), 1.0);
  // Prices are untouched.
  PanelView view(source.get());
  for (int64_t t = 0; t < panel.num_days(); t += 11) {
    EXPECT_EQ(view.Close(t, 0), panel.Close(t, 0));
  }
}

TEST(Scenario, StacksMatchRowMemoReferenceBitwise) {
  const PricePanel panel = SimulateMarket(ScenarioMarket());
  InMemorySource base(&panel);
  // Composition at one hand-computed point: crash first, then the flip
  // pivots on the *crashed* price.
  const std::string crash_then_flip =
      "flash_crash:day=210,depth=0.3,assets_frac=0.5|regime_flip:day=230";
  auto composed = MakeStack(&base, crash_then_flip);
  const double crashed_230 = panel.Close(230, 0) * 0.7;
  const double crashed_240 = panel.Close(240, 0) * 0.7;
  EXPECT_DOUBLE_EQ(PanelView(composed.get()).Close(240, 0),
                   crashed_230 * crashed_230 / crashed_240);

  // Every preset, including the three that read other days
  // (correlation_breakdown, halt, regime_flip) and two overlapping
  // liquidity_hole windows, each level reading the one below it.
  const std::string deep =
      "flash_crash:day=205,depth=0.35,ramp_days=3,recover_days=8,"
      "assets_frac=0.5|"
      "liquidity_hole:test_offset=5,length=30,cost_mult=3|"
      "correlation_breakdown:day=212,length=40,compress=0.6|"
      "halt:day=222,length=15,assets=2,offset=1|"
      "liquidity_hole:day=225,length=20,cost_mult=2.5|"
      "regime_flip:day=230|"
      "halt:day=260,length=0,assets=1,offset=4,zero=1";
  for (const std::string& text : {crash_then_flip, deep}) {
    auto source = MakeStack(&base, text);
    RowMemoReference reference(panel, text);
    PanelView view(source.get());
    for (int64_t t = 0; t < panel.num_days(); ++t) {
      const std::vector<double> row = reference.Row(t);
      for (int64_t i = 0; i < panel.num_assets(); ++i) {
        const double got = view.Close(t, i);
        ASSERT_EQ(std::memcmp(&got, &row[static_cast<size_t>(i)],
                              sizeof(double)),
                  0)
            << text << " day " << t << " asset " << i << ": " << got
            << " vs reference " << row[static_cast<size_t>(i)];
      }
      const double cost = source->CostMultiplier(t);
      const double ref_cost = reference.CostMultiplier(t);
      ASSERT_EQ(std::memcmp(&cost, &ref_cost, sizeof(double)), 0)
          << text << " day " << t;
    }
  }
}

// ---- Expected orderings (fixed seeds) --------------------------------------
// Each preset must hurt the strategy class it targets. These pin the
// *direction* of the effect, not magnitudes.

TEST(ScenarioOrdering, PostJumpContinuationBreaksMeanReversion) {
  // A permanent multi-day slide: OLMAR keeps buying the dip that never
  // retraces, so it must land below both the market and CRP, and below
  // its own no-crash self.
  const PricePanel panel = SimulateMarket(ScenarioMarket(11));
  InMemorySource base(&panel);
  auto crash = MakeStack(
      &base,
      "flash_crash:test_offset=15,depth=0.45,ramp_days=6,assets_frac=0.5");
  PanelView crashed(crash.get());

  olps::Olmar olmar_plain, olmar_crashed;
  olps::BuyAndHold market_agent;
  olps::Crp crp_agent;
  const double olmar_no_crash =
      env::RunTestBacktest(olmar_plain, PanelView(&base), 16)
          .wealth.back();
  const double olmar = env::RunTestBacktest(olmar_crashed, crashed, 16)
                           .wealth.back();
  const double market =
      env::RunTestBacktest(market_agent, crashed, 16).wealth.back();
  const double crp = env::RunTestBacktest(crp_agent, crashed, 16)
                         .wealth.back();
  EXPECT_LT(olmar, market);
  EXPECT_LT(olmar, crp);
  EXPECT_LT(olmar, olmar_no_crash);
}

TEST(ScenarioOrdering, RegimeFlipBreaksMomentum) {
  // Late-test flip: past winners give back their run-up and BestStock's
  // 30-day trailing window stays contaminated with pre-flip data for the
  // rest of the run, so momentum chases stale winners. The flip must cost
  // it relative to its own no-flip self. (Note it need NOT land below
  // buy-and-hold: inversion crushes the market's own pre-flip gains too,
  // so momentum-vs-market ordering under a flip is seed noise.)
  const PricePanel panel = SimulateMarket(ScenarioMarket(11));
  InMemorySource base(&panel);
  auto flip = MakeStack(&base, "regime_flip:test_offset=60");
  PanelView flipped(flip.get());
  olps::BestStock momentum, momentum_plain;
  olps::BuyAndHold market_plain;
  const double best =
      env::RunTestBacktest(momentum, flipped, 16).wealth.back();
  const double best_plain =
      env::RunTestBacktest(momentum_plain, PanelView(&base), 16)
          .wealth.back();
  const double market_no_flip =
      env::RunTestBacktest(market_plain, PanelView(&base), 16)
          .wealth.back();
  // Precondition: momentum actually had an edge to break on this panel.
  ASSERT_GT(best_plain, market_no_flip);
  EXPECT_LT(best, best_plain);
}

TEST(ScenarioOrdering, LiquidityHoleSparesBuyAndHoldBitwise) {
  // Buy-and-hold trades once, before the hole opens; widened costs inside
  // the window change nothing for it — bitwise nothing — while a churning
  // reverter pays through the nose.
  const PricePanel panel = SimulateMarket(ScenarioMarket(11));
  InMemorySource base(&panel);
  auto hole = MakeStack(
      &base, "liquidity_hole:test_offset=5,length=60,cost_mult=25");
  PanelView holed(hole.get());

  olps::BuyAndHold bnh_plain, bnh_holed;
  const auto plain = env::RunTestBacktest(bnh_plain, PanelView(&base), 16);
  const auto under = env::RunTestBacktest(bnh_holed, holed, 16);
  ASSERT_EQ(plain.wealth.size(), under.wealth.size());
  for (size_t i = 0; i < plain.wealth.size(); ++i) {
    EXPECT_EQ(plain.wealth[i], under.wealth[i]);
  }

  olps::Olmar olmar_plain, olmar_holed;
  const double churner_plain =
      env::RunTestBacktest(olmar_plain, PanelView(&base), 16).wealth.back();
  const double churner_holed =
      env::RunTestBacktest(olmar_holed, holed, 16).wealth.back();
  EXPECT_LT(churner_holed, churner_plain);
}

TEST(ScenarioOrdering, CorrelationBreakdownShrinksCrossSectionalEdge) {
  // With dispersion compressed toward the market path, every
  // cross-sectional bet converges to the market: CRP's wealth must end
  // closer to buy-and-hold's than on the untouched panel.
  const PricePanel panel = SimulateMarket(ScenarioMarket(11));
  InMemorySource base(&panel);
  auto crushed = MakeStack(
      &base, "correlation_breakdown:test_offset=0,compress=0.97");
  PanelView view(crushed.get());

  olps::Crp crp_a, crp_b;
  olps::BuyAndHold bnh_a, bnh_b;
  const double crp_plain =
      env::RunTestBacktest(crp_a, PanelView(&base), 16).wealth.back();
  const double bnh_plain =
      env::RunTestBacktest(bnh_a, PanelView(&base), 16).wealth.back();
  const double crp_crushed =
      env::RunTestBacktest(crp_b, view, 16).wealth.back();
  const double bnh_crushed =
      env::RunTestBacktest(bnh_b, view, 16).wealth.back();
  EXPECT_LT(std::abs(crp_crushed - bnh_crushed),
            std::abs(crp_plain - bnh_plain));
}

// ---- Sweep on pool threads -------------------------------------------------

TEST(ScenarioSweep, CitCellsByteIdenticalAcrossThreadCounts) {
  // CIT cells run their decides (and so the conv kernel's per-thread
  // scratch) on pool workers; the report must not depend on which worker
  // ran which cell.
  const PricePanel panel = SimulateMarket(ScenarioMarket(5));
  InMemorySource base(&panel);
  core::CrossInsightConfig cc;
  cc.num_policies = 2;
  cc.window = 16;
  const int64_t num_assets = panel.num_assets();
  const std::vector<env::SweepAgentSpec> agents = {
      {"CIT", [cc, num_assets](uint64_t seed) {
         core::CrossInsightConfig c = cc;
         c.seed = seed;
         return std::make_unique<core::CrossInsightTrader>(num_assets, c);
       }}};
  env::SweepConfig config;
  config.seeds = {3, 4};
  config.window = cc.window;
  const std::vector<std::string> stacks = {"", "flash_crash:depth=0.25"};

  auto run = [&](int threads) -> std::string {
    const int saved = ThreadPool::Global().num_threads();
    ThreadPool::Global().SetNumThreads(threads);
    auto report = env::RunSweep(&base, stacks, agents, config);
    ThreadPool::Global().SetNumThreads(saved);
    EXPECT_TRUE(report.ok()) << report.status().message();
    if (!report.ok()) return "";
    EXPECT_EQ(report.value().cells.size(), 4u);
    for (const env::SweepCell& c : report.value().cells) {
      EXPECT_TRUE(std::isfinite(c.final_wealth)) << c.scenario;
      EXPECT_EQ(c.repaired_steps, 0) << c.scenario;
    }
    return report.value().ToJson();
  };
  const std::string one_thread = run(1);
  ASSERT_FALSE(one_thread.empty());
  EXPECT_EQ(one_thread, run(4));
}

}  // namespace
}  // namespace cit::market
