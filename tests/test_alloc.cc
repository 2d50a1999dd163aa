// Heap allocations per decide, pinned exactly. Allocation counts are
// deterministic — no host noise reaches them — so a change that cuts (or
// adds) allocations on the decide path shows here as an exact number.
//
// This binary replaces the global operator new. Every call increments a
// thread-local counter, and each measurement reads the counter of the
// thread that ran it. Every measured scenario runs on a fresh thread, so
// the thread-local state the decide path keeps (the kernels' scratch
// buffers, telemetry shards) starts empty whatever ran before it, and the
// counts do not depend on test order. Every tensor a decide builds gets
// its own buffer from the global allocator, so each one counts.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/trader.h"
#include "market/panel.h"
#include "market/source.h"
#include "rl/features.h"
#include "signal/wavelet.h"

namespace {

thread_local int64_t t_allocations = 0;

void* CountedAlloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cit {
namespace {

int64_t CountAllocations(const std::function<void()>& body) {
  const int64_t before = t_allocations;
  body();
  return t_allocations - before;
}

void OnFreshThread(const std::function<void()>& body) {
  std::thread thread(body);
  thread.join();
}

// A deterministic positive price panel built here, not by the simulator,
// so no run-scale setting changes what is measured.
market::PricePanel WalkPanel(int64_t days, int64_t assets, uint64_t seed) {
  market::PricePanel panel(days, assets);
  for (int64_t i = 0; i < assets; ++i) {
    double price = 20.0 + static_cast<double>((seed * 7 + i * 13) % 50);
    for (int64_t t = 0; t < days; ++t) {
      price *= 1.0 + 0.01 * std::sin(0.37 * static_cast<double>(t) +
                                     static_cast<double>(i + seed));
      panel.SetClose(t, i, price);
    }
  }
  panel.set_train_end(days);
  return panel;
}

struct DecideShape {
  int64_t assets, window, policies;
};

// The paper's U.S. market at default scale and citd's shipped settings.
constexpr DecideShape kUsShape = {20, 24, 5};
constexpr DecideShape kCitdShape = {8, 16, 3};

core::CrossInsightConfig ConfigFor(const DecideShape& s) {
  core::CrossInsightConfig config;
  config.num_policies = s.policies;
  config.window = s.window;
  return config;
}

// Warm-up decides: the first records every plan and sizes the kernels'
// per-thread scratch. 16 days leave the feature cache between hash-table
// growths, so the measured insert does not rehash.
constexpr int64_t kWarmDays = 16;

struct DecideCounts {
  int64_t new_day = -1;     // features built and cached on this decide
  int64_t next_day = -1;    // the following new day, for stability
  int64_t cached_day = -1;  // the same day again: a feature-cache hit
};

DecideCounts MeasureDecide(const DecideShape& s) {
  DecideCounts counts;
  OnFreshThread([&] {
    const market::PricePanel panel =
        WalkPanel(s.window + kWarmDays + 4, s.assets, 1);
    market::InMemorySource source(&panel);
    const market::PanelView view(&source);
    core::CrossInsightTrader trader(s.assets, ConfigFor(s));
    int64_t day = s.window - 1;
    for (int64_t i = 0; i < kWarmDays; ++i) trader.DecideWeights(view, day++);
    counts.new_day =
        CountAllocations([&] { trader.DecideWeights(view, day); });
    counts.cached_day =
        CountAllocations([&] { trader.DecideWeights(view, day); });
    ++day;
    counts.next_day =
        CountAllocations([&] { trader.DecideWeights(view, day); });
  });
  std::printf("allocations per decide [%lld assets, window %lld, %lld "
              "policies]: new day %lld, cached day %lld\n",
              static_cast<long long>(s.assets),
              static_cast<long long>(s.window),
              static_cast<long long>(s.policies),
              static_cast<long long>(counts.new_day),
              static_cast<long long>(counts.cached_day));
  return counts;
}

TEST(DecideAllocations, UsShapeNewAndCachedDay) {
  const DecideCounts c = MeasureDecide(kUsShape);
  EXPECT_EQ(c.new_day, c.next_day);
  EXPECT_EQ(c.new_day, 92);
  EXPECT_EQ(c.cached_day, 67);
}

TEST(DecideAllocations, CitdShapeNewAndCachedDay) {
  const DecideCounts c = MeasureDecide(kCitdShape);
  EXPECT_EQ(c.new_day, c.next_day);
  EXPECT_EQ(c.new_day, 65);
  EXPECT_EQ(c.cached_day, 46);
}

TEST(DecideAllocations, CitdShapeBatchOfEight) {
  constexpr int64_t kBatch = 8;
  const DecideShape& s = kCitdShape;
  int64_t batch = -1;
  int64_t next_batch = -1;
  OnFreshThread([&] {
    // One window-long panel per request, as citd builds them.
    std::vector<market::PricePanel> panels;
    for (int64_t b = 0; b < kBatch; ++b) {
      panels.push_back(WalkPanel(s.window, s.assets, 10 + b));
    }
    std::vector<std::unique_ptr<market::InMemorySource>> sources;
    std::vector<market::PanelView> views;
    for (const market::PricePanel& p : panels) {
      sources.push_back(std::make_unique<market::InMemorySource>(&p));
      views.emplace_back(sources.back().get());
    }
    core::CrossInsightTrader trader(s.assets, ConfigFor(s));
    for (int i = 0; i < 3; ++i) trader.DecideWeightsBatch(views);
    batch = CountAllocations([&] { trader.DecideWeightsBatch(views); });
    next_batch = CountAllocations([&] { trader.DecideWeightsBatch(views); });
  });
  std::printf("allocations per batch of %lld [citd shape]: %lld\n",
              static_cast<long long>(kBatch), static_cast<long long>(batch));
  EXPECT_EQ(batch, next_batch);
  EXPECT_EQ(batch, 242);
}

TEST(FeatureAllocations, BlockBuildIntoCallerMemoryAllocatesNothing) {
  const DecideShape& s = kUsShape;
  const market::PricePanel panel = WalkPanel(3 * s.window, s.assets, 2);
  market::InMemorySource source(&panel);
  const market::PanelView view(&source);
  const int64_t critic_days = 8;
  std::vector<float> block(
      rl::FeatureBlockSize(s.assets, s.window, s.policies, critic_days));
  std::vector<double> scratch(
      rl::FeatureBlockScratchSize(s.window, s.policies));
  const int64_t built = CountAllocations([&] {
    for (int64_t day = s.window - 1; day < panel.num_days(); ++day) {
      rl::FeatureBlockInto(view, day, s.window, s.policies, critic_days,
                           scratch.data(), block.data());
    }
  });
  EXPECT_EQ(built, 0);

  std::vector<double> x(64, 0.5);
  std::vector<double> bands(6 * 64);
  std::vector<double> split_scratch(signal::BandSplitScratchSize(64, 6));
  const int64_t split = CountAllocations([&] {
    for (int64_t n = 1; n <= 64; ++n) {
      signal::SplitHorizonBandsInto(x.data(), n, 6, split_scratch.data(),
                                    bands.data());
    }
  });
  EXPECT_EQ(split, 0);
}

}  // namespace
}  // namespace cit
