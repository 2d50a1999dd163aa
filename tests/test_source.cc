// Data-plane gates (DESIGN.md §11): reads through a PanelView must be
// bitwise interchangeable with the in-memory panel path at any thread
// count, and one view must be shareable across threads.
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "env/backtest.h"
#include "market/panel.h"
#include "market/simulator.h"
#include "market/source.h"
#include "olps/strategies.h"

namespace cit::market {
namespace {

MarketConfig SmallConfig(uint64_t seed = 21) {
  MarketConfig cfg;
  cfg.name = "source-test";
  cfg.num_assets = 5;
  cfg.train_days = 180;
  cfg.test_days = 70;
  cfg.seed = seed;
  return cfg;
}

// ---- PanelView over InMemorySource: the bitwise anchor ---------------------

TEST(Source, ViewReadsEqualPanelReadsExactly) {
  const PricePanel panel = SimulateMarket(SmallConfig());
  InMemorySource source(&panel);
  PanelView view(&source);
  EXPECT_EQ(view.num_days(), panel.num_days());
  EXPECT_EQ(view.num_assets(), panel.num_assets());
  EXPECT_EQ(view.train_end(), panel.train_end());
  EXPECT_EQ(view.name(), panel.name());
  for (int64_t t = 0; t < panel.num_days(); ++t) {
    for (int64_t i = 0; i < panel.num_assets(); ++i) {
      EXPECT_EQ(view.Close(t, i), panel.Close(t, i));
      if (t > 0) {
        EXPECT_EQ(view.PriceRelative(t, i), panel.PriceRelative(t, i));
      }
    }
  }
}

TEST(Source, SourceIdsAreDistinctAndNonZero) {
  const PricePanel panel = SimulateMarket(SmallConfig());
  InMemorySource a(&panel);
  InMemorySource b(&panel);
  EXPECT_NE(a.source_id(), 0u);
  EXPECT_NE(b.source_id(), 0u);
  EXPECT_NE(a.source_id(), b.source_id());
  // The implicit panel adapter allocates a fresh id per conversion.
  PanelView va(panel);
  PanelView vb(panel);
  EXPECT_NE(va.source_id(), vb.source_id());
}

TEST(Source, MaterializeRoundTripsThePanel) {
  const PricePanel panel = SimulateMarket(SmallConfig());
  InMemorySource source(&panel);
  const PricePanel copy = PanelView(&source).Materialize();
  ASSERT_EQ(copy.num_days(), panel.num_days());
  ASSERT_EQ(copy.num_assets(), panel.num_assets());
  EXPECT_EQ(copy.train_end(), panel.train_end());
  for (int64_t t = 0; t < panel.num_days(); ++t) {
    for (int64_t i = 0; i < panel.num_assets(); ++i) {
      EXPECT_EQ(copy.Close(t, i), panel.Close(t, i));
    }
  }
}

// The refactor's core gate: a backtest through InMemorySource is bitwise
// identical to the pre-data-plane panel path, at 1 and 4 threads.
TEST(Source, BacktestThroughViewBitwiseEqualsPanelPathAnyThreads) {
  const PricePanel panel = SimulateMarket(SmallConfig());
  for (int threads : {1, 4}) {
    ThreadPool::Global().SetNumThreads(threads);
    olps::Olmar direct_agent;
    const auto direct = env::RunTestBacktest(direct_agent, panel, 16);
    InMemorySource source(&panel);
    olps::Olmar view_agent;
    const auto viewed =
        env::RunTestBacktest(view_agent, PanelView(&source), 16);
    ASSERT_EQ(direct.wealth.size(), viewed.wealth.size());
    for (size_t i = 0; i < direct.wealth.size(); ++i) {
      EXPECT_EQ(direct.wealth[i], viewed.wealth[i]) << "step " << i;
    }
    EXPECT_EQ(direct.turnover, viewed.turnover);
  }
  ThreadPool::Global().SetNumThreads(1);
}

// ---- Sharing ---------------------------------------------------------------

// One view read by several threads at once, in opposite day orders: a
// view holds no mutable state, so every read must equal the panel's own
// array element for element (raced under TSan by check.sh).
TEST(SourceThreaded, OneViewSharedAcrossThreadsAgrees) {
  const PricePanel panel = SimulateMarket(SmallConfig(34));
  InMemorySource source(&panel);
  const PanelView view(&source);
  const double* closes = panel.raw_closes();
  const int64_t days = view.num_days();
  const int64_t m = view.num_assets();
  constexpr int kThreads = 4;
  std::vector<int64_t> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int64_t t = 0; t < days; ++t) {
        const int64_t day = (w % 2 == 0) ? t : days - 1 - t;
        for (int64_t i = 0; i < m; ++i) {
          if (view.Close(day, i) != closes[day * m + i]) {
            ++mismatches[static_cast<size_t>(w)];
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(mismatches[static_cast<size_t>(w)], 0) << "thread " << w;
  }
}

}  // namespace
}  // namespace cit::market
