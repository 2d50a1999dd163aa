// Inference-throughput benchmark, emitted as machine-readable JSON
// (BENCH_infer.json) so inference-path regressions are diffable across
// commits:
//
//  - backtest-style decision throughput (DecideWeights steps/sec) for a
//    trained cross-insight trader at 1 and 4 pool threads, in three modes:
//      grad      — tape construction forced with ag::SetNoGradAllowed(false),
//                  plans disabled;
//      nograd    — graph-free interpreted forward, plans disabled with
//                  plan::SetCompileAllowed(false);
//      compiled  — graph-free with plan replay live (the default serving
//                  configuration): each decision replays a recorded
//                  ExecPlan over slab-allocated intermediates.
//  - the headline "nograd_speedup" ratio at 1 thread (nograd over grad
//    steps/sec), gated by scripts/check.sh at >= 1.5x;
//  - the headline "compiled_speedup" ratio at 1 thread (compiled over
//    nograd steps/sec), gated by scripts/check.sh at >= 1.25x.
//
// Decisions are bitwise identical in all three modes (tests/
// test_inference.cc and tests/test_plan.cc assert this); the arms differ
// only in tape/graph bookkeeping and op-dispatch overhead, so each ratio
// isolates exactly what the corresponding subsystem removes.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env_config.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "core/trader.h"
#include "market/simulator.h"
#include "math/autograd.h"
#include "math/plan.h"
#include "math/tensor.h"
#include "obs/telemetry.h"

namespace {

using namespace cit;
using Clock = std::chrono::steady_clock;

double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

core::CrossInsightConfig InferConfig() {
  core::CrossInsightConfig cfg;
  // Latency-shaped model: short window and narrow features, many
  // policies. This is the serving regime the inference path targets —
  // per-op tensors are small, so graph/tape bookkeeping (node + closure +
  // parents allocations per op) and per-op dispatch (shape checks, output
  // allocation, hook tests) are a real fraction of each decision. Wide
  // models amortize that overhead into large conv/GEMM kernels and the
  // modes converge (see the note emitted below). No training beyond a
  // token warm-up: decision quality is irrelevant to a throughput bench.
  cfg.num_policies = 6;
  cfg.window = 6;
  cfg.feature_dim = 2;
  cfg.head_hidden = 8;
  cfg.critic_hidden = 8;
  cfg.train_steps = 1;
  cfg.rollout_len = 2;
  cfg.seed = 23;
  return cfg;
}

// grad: tape forced on, plans off. nograd: graph-free interpreted.
// compiled: graph-free with plan replay (the default serving mode).
enum class Mode { kGrad, kNoGrad, kCompiled };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kGrad: return "grad";
    case Mode::kNoGrad: return "nograd";
    default: return "compiled";
  }
}

struct InferRow {
  int threads_requested = 0;
  int threads_effective = 0;
  Mode mode = Mode::kGrad;
  double seconds = 0.0;
  double steps_per_sec = 0.0;

  // The pool clamps to the hardware (unless CIT_OVERSUBSCRIBE=1), so on a
  // small host a "4-thread" arm may actually run with fewer workers. Such
  // arms are marked instead of silently posing as multi-threaded numbers,
  // and ratios built on them must not be gated (check.sh skips them).
  bool clamped() const { return threads_effective < threads_requested; }
};

InferRow BenchDecide(core::CrossInsightTrader& trader,
                     const market::PricePanel& panel, int threads,
                     Mode mode, int64_t repeats) {
  auto& pool = ThreadPool::Global();
  pool.SetNumThreads(threads);
  ag::SetNoGradAllowed(mode != Mode::kGrad);
  plan::SetCompileAllowed(mode == Mode::kCompiled);
  const int64_t lo = panel.train_end();
  const int64_t hi = panel.num_days() - 1;
  trader.Reset();
  // Warm-up sweep: faults in code paths, fills the buffer arena, and (in
  // compiled mode) records the per-shape plans, so the timed sweeps
  // measure steady state — pure replay, zero recordings.
  for (int64_t day = lo; day < hi; ++day) trader.DecideWeights(panel, day);
  int64_t steps = 0;
  const double t0 = Now();
  for (int64_t rep = 0; rep < repeats; ++rep) {
    trader.Reset();
    for (int64_t day = lo; day < hi; ++day) {
      trader.DecideWeights(panel, day);
      ++steps;
    }
  }
  InferRow row;
  row.threads_requested = threads;
  row.threads_effective = pool.num_threads();
  row.mode = mode;
  row.seconds = Now() - t0;
  row.steps_per_sec = static_cast<double>(steps) / row.seconds;
  ag::SetNoGradAllowed(true);
  plan::SetCompileAllowed(true);
  return row;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_infer.json";

  market::MarketConfig mcfg;
  mcfg.num_assets = 4;
  mcfg.train_days = 160;
  mcfg.test_days = 60;
  const market::PricePanel panel = market::SimulateMarket(mcfg);

  const core::CrossInsightConfig cfg = InferConfig();
  core::CrossInsightTrader trader(panel.num_assets(), cfg);
  trader.Train(panel, /*curve_points=*/1);

  // Count plan traffic across the whole run (recordings happen in the
  // compiled warm-up sweeps; the timed sweeps are pure replays).
  obs::SetEnabled(true);
  obs::Registry::Global().ResetAll();

  const int64_t repeats = 6;
  const Mode kModes[] = {Mode::kGrad, Mode::kNoGrad, Mode::kCompiled};
  std::vector<InferRow> rows;
  for (int threads : {1, 4}) {
    for (Mode mode : kModes) {
      // Best-of-3 per cell so a stray scheduler hiccup cannot flip the
      // gated ratios on a short run.
      InferRow best;
      best.steps_per_sec = -1.0;
      for (int rep = 0; rep < 3; ++rep) {
        InferRow r = BenchDecide(trader, panel, threads, mode, repeats);
        if (r.steps_per_sec > best.steps_per_sec) best = r;
      }
      rows.push_back(best);
      std::printf("infer threads=%d (effective %d%s) %-8s %ss  %s steps/s\n",
                  best.threads_requested, best.threads_effective,
                  best.clamped() ? ", CLAMPED" : "", ModeName(best.mode),
                  Fmt(best.seconds).c_str(), Fmt(best.steps_per_sec).c_str());
    }
  }
  ThreadPool::Global().SetNumThreads(1);
  obs::SetEnabled(false);
  const auto plan_count = [](const char* name) {
    return obs::Registry::Global().GetCounter(name).Total();
  };
  const uint64_t plan_hits = plan_count("plan.hits");
  const uint64_t plan_misses = plan_count("plan.misses");
  const uint64_t plan_fused = plan_count("plan.fused_ops");

  // Headline ratios at 1 thread; row layout is 3 modes per thread count.
  const double nograd_1t = rows[1].steps_per_sec / rows[0].steps_per_sec;
  const double nograd_4t = rows[4].steps_per_sec / rows[3].steps_per_sec;
  const double compiled_1t = rows[2].steps_per_sec / rows[1].steps_per_sec;
  const double compiled_4t = rows[5].steps_per_sec / rows[4].steps_per_sec;
  const bool clamped_4t = rows[3].clamped() || rows[4].clamped() ||
                          rows[5].clamped();
  if (clamped_4t) {
    std::printf("warning: the %d-thread arms ran with %d effective "
                "thread(s) on this host; their ratios are marked clamped "
                "and are not comparable across hosts\n",
                rows[3].threads_requested, rows[3].threads_effective);
  }
  std::printf("nograd speedup:   %sx at 1 thread, %sx at %d threads\n",
              Fmt(nograd_1t).c_str(), Fmt(nograd_4t).c_str(),
              rows[3].threads_requested);
  std::printf("compiled speedup: %sx at 1 thread, %sx at %d threads "
              "(plan hits %llu, misses %llu, fused ops %llu)\n",
              Fmt(compiled_1t).c_str(), Fmt(compiled_4t).c_str(),
              rows[3].threads_requested,
              static_cast<unsigned long long>(plan_hits),
              static_cast<unsigned long long>(plan_misses),
              static_cast<unsigned long long>(plan_fused));

  std::ostringstream js;
  js << "{\n";
  js << "  \"host\": {\"hardware_concurrency\": "
     << std::thread::hardware_concurrency()
     << ", \"default_threads\": " << cit::NumThreads() << "},\n";
  js << "  \"config\": {\"num_policies\": " << cfg.num_policies
     << ", \"window\": " << cfg.window
     << ", \"num_assets\": " << panel.num_assets()
     << ", \"test_days\": " << (panel.num_days() - panel.train_end())
     << ", \"repeats\": " << repeats << "},\n";
  js << "  \"infer\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const InferRow& r = rows[i];
    js << "    {\"threads\": " << r.threads_requested
       << ", \"threads_effective\": " << r.threads_effective
       << ", \"clamped\": " << (r.clamped() ? "true" : "false")
       << ", \"mode\": \"" << ModeName(r.mode) << "\""
       << ", \"seconds\": " << Fmt(r.seconds)
       << ", \"steps_per_sec\": " << Fmt(r.steps_per_sec) << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ],\n";
  js << "  \"nograd_speedup\": " << Fmt(nograd_1t) << ",\n";
  js << "  \"nograd_speedup_4t\": " << Fmt(nograd_4t) << ",\n";
  js << "  \"compiled_speedup\": " << Fmt(compiled_1t) << ",\n";
  js << "  \"compiled_speedup_4t\": " << Fmt(compiled_4t) << ",\n";
  js << "  \"speedup_4t_clamped\": " << (clamped_4t ? "true" : "false")
     << ",\n";
  js << "  \"plan\": {\"hits\": " << plan_hits
     << ", \"misses\": " << plan_misses
     << ", \"fused_ops\": " << plan_fused << "},\n";
  js << "  \"note\": \"DecideWeights sweep over the test split; all three "
        "modes run the identical call sites and produce bitwise identical "
        "weights. grad forces tape construction via ag::SetNoGradAllowed("
        "false); nograd is the graph-free interpreted forward with plans "
        "disabled via plan::SetCompileAllowed(false); compiled replays "
        "recorded ExecPlans (the default). nograd_speedup is the 1-thread "
        "nograd/grad steps-per-sec ratio (check.sh gates >= 1.5); "
        "compiled_speedup is the 1-thread compiled/nograd ratio (check.sh "
        "gates >= 1.25). Arms whose pool was clamped below the requested "
        "thread count carry clamped=true; their _4t ratios "
        "(speedup_4t_clamped) are informational only, never gated.\"\n";
  js << "}\n";

  std::ofstream out(out_path);
  out << js.str();
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
