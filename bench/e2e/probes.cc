// Per-layer probes of the traced run. Each probe calls one layer's public
// functions at a fixed shape and reports the median time per call; the
// kernel, plan and trainer figures come from the obs counters and spans
// the library already records. Nothing here adds instrumentation to the
// library.

#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/trader.h"
#include "env/portfolio_env.h"
#include "env/sweep.h"
#include "market/scenario.h"
#include "market/source.h"
#include "obs/telemetry.h"
#include "olps/strategies.h"
#include "client.h"
#include "rl/features.h"
#include "serve/cit_model.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads.h"

namespace cit::e2e {

namespace {

const std::vector<std::string> kKernelCounters = {
    "kernels.gemm_calls", "kernels.gemm_flops", "kernels.gemm_bytes",
    "kernels.conv_calls", "kernels.conv_flops", "kernels.conv_bytes"};

void AddKernels(const std::string& suffix, ObsDelta* d, double per,
                std::vector<Metric>* out) {
  for (const std::string& c : kKernelCounters) {
    const bool bytes = c.find("bytes") != std::string::npos;
    out->push_back({c + suffix, d->Count(c) / per, bytes ? "bytes" : "count"});
  }
}

template <typename F>
double MedianUs(int reps, F&& body) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    body(i);
    us.push_back(1e-3 * static_cast<double>(NowNs() - t0));
  }
  return Median(us);
}

}  // namespace

ProbeResult RunProbes(const Options& opt, std::vector<std::string>* failures) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  ProbeResult result;
  std::vector<Metric>& out = result.layers;
  const int reps = opt.smoke ? 1 : 3;

  // ---- market ----
  const market::MarketConfig mc = UsConfig(opt);
  market::PricePanel panel;
  out.push_back({"market.simulate_ms",
                 1e-3 * MedianUs(reps,
                                 [&](int) {
                                   panel = market::SimulateMarket(mc);
                                 }),
                 "ms"});
  market::InMemorySource source(&panel);
  const market::PanelView view(&source);
  const int64_t first_day = panel.train_end();
  const int64_t last_day = panel.num_days() - 1;

  const std::vector<std::string> stacks = SweepStacks(opt);
  double read_ms = 0.0;
  for (const std::string& text : stacks) {
    auto specs = market::ParseScenarioStack(text);
    if (!specs.ok()) {
      failures->push_back("scenario " + text);
      continue;
    }
    read_ms += 1e-3 * MedianUs(reps, [&](int) {
                 auto made =
                     market::ScenarioSource::Make(&source, specs.value());
                 for (int64_t c = 0; c < made.value()->num_chunks(); ++c) {
                   made.value()->FetchChunk(c);
                 }
               });
  }
  out.push_back({"market.scenario_read_ms",
                 read_ms / static_cast<double>(stacks.size()), "ms"});

  // ---- signal/features ----
  const core::CrossInsightConfig cc = PaperConfig(opt);
  {
    std::vector<double> us;
    for (int64_t day = first_day; day <= last_day; ++day) {
      const int64_t t0 = NowNs();
      rl::HorizonBandWindows(view, day, cc.window, cc.num_policies);
      us.push_back(1e-3 * static_cast<double>(NowNs() - t0));
    }
    out.push_back({"features.band_windows_us", Median(us), "us"});
  }

  // ---- core: one decide at the paper's U.S. shape ----
  {
    core::CrossInsightTrader trader(mc.num_assets, cc);
    trader.DecideWeights(view, first_day);  // records the plans
    ObsDelta d;
    d.Mark(kKernelCounters, {});
    std::vector<double> us;
    for (int64_t day = first_day + 1; day <= last_day; ++day) {
      const int64_t t0 = NowNs();
      trader.DecideWeights(view, day);
      us.push_back(1e-3 * static_cast<double>(NowNs() - t0));
    }
    out.push_back({"core.decide_us", Median(us), "us"});
    AddKernels("_per_decide", &d, static_cast<double>(us.size()), &out);
  }

  // ---- core/rl/env: training steps (second call: feature cache warm) ----
  {
    core::CrossInsightConfig tc = cc;
    tc.train_steps = opt.smoke ? 1 : 6;
    core::CrossInsightTrader trader(mc.num_assets, tc);
    trader.Train(view);
    ObsDelta d;
    const std::vector<std::string> phases = {
        "train.update",     "train.rollout",      "train.critic_update",
        "train.advantages", "train.actor_update", "backbone.forward",
        "rollout.slot"};
    d.Mark(kKernelCounters, phases);
    trader.Train(view);
    out.push_back({"core.train_step_ms", 1e-3 * d.Mean("train.update"), "ms"});
    for (const char* p : {"train.rollout", "train.critic_update",
                          "train.advantages", "train.actor_update",
                          "rollout.slot"}) {
      out.push_back({std::string(p) + "_ms", 1e-3 * d.Mean(p), "ms"});
    }
    out.push_back({"backbone.forward_us", d.Mean("backbone.forward"), "us"});
    AddKernels("_per_train_step", &d, static_cast<double>(tc.train_steps),
               &out);
  }

  // ---- env: one step takes under a microsecond, below the resolution of
  // the obs spans, so whole passes over the panel are timed instead ----
  {
    env::EnvConfig ec;
    ec.window = cc.window;
    env::PortfolioEnv penv(view, ec);
    const std::vector<double> uniform(
        static_cast<size_t>(mc.num_assets),
        1.0 / static_cast<double>(mc.num_assets));
    int64_t steps = 0;
    const double pass_us = MedianUs(opt.smoke ? 2 : 20, [&](int) {
      penv.Reset();
      for (steps = 0; !penv.done(); ++steps) penv.Step(uniform);
    });
    out.push_back({"env.step_us", pass_us / static_cast<double>(steps), "us"});
  }

  // ---- env: one test backtest per agent (fresh agent: plan recording
  // included, as in a sweep cell) ----
  {
    ObsDelta d;
    d.Mark(kKernelCounters, {});
    double cit_ms = 1e-3 * MedianUs(reps, [&](int) {
                      core::CrossInsightTrader t(mc.num_assets, cc);
                      env::RunTestBacktest(t, view);
                    });
    out.push_back({"env.backtest_ms.CIT", cit_ms, "ms"});
    for (const std::string& c : {std::string("kernels.gemm_flops"),
                                 std::string("kernels.conv_flops")}) {
      out.push_back({c + "_per_cell", d.Count(c) / reps, "count"});
    }
    out.push_back({"env.backtest_ms.OLMAR", 1e-3 * MedianUs(reps, [&](int) {
                     olps::Olmar a;
                     env::RunTestBacktest(a, view);
                   }),
                   "ms"});
    out.push_back({"env.backtest_ms.CRP", 1e-3 * MedianUs(reps, [&](int) {
                     olps::Crp a;
                     env::RunTestBacktest(a, view);
                   }),
                   "ms"});
    out.push_back({"env.backtest_ms.Market", 1e-3 * MedianUs(reps, [&](int) {
                     olps::BuyAndHold a;
                     env::RunTestBacktest(a, view);
                   }),
                   "ms"});
  }

  // ---- common: the sweep workload's one-seed pass on the whole pool and
  // on one thread; the reports must be byte-identical ----
  {
    const std::vector<env::SweepAgentSpec> agents =
        SweepAgents(opt, mc.num_assets, nullptr, nullptr);
    env::SweepConfig sc;
    sc.seeds = {SubSeed(opt.seed, 100)};
    ThreadPool& pool = ThreadPool::Global();
    const int threads = pool.num_threads();
    const std::string reference =
        env::RunSweep(&source, stacks, agents, sc).value().ToJson();  // warm
    // Median of two timings per arm; every report must equal the first.
    auto time_at = [&](int n) {
      pool.SetNumThreads(n);
      const double us = MedianUs(2, [&](int) {
        auto report = env::RunSweep(&source, stacks, agents, sc);
        if (!report.ok() || report.value().ToJson() != reference) {
          failures->push_back("sweep report differs at " + std::to_string(n) +
                              " threads");
        }
      });
      pool.SetNumThreads(threads);
      return us;
    };
    const double wide_us = time_at(threads);
    out.push_back({"pool.sweep_speedup", time_at(1) / wide_us, "x"});
  }

  // ---- serve: protocol, model replica and one closed-loop connection ----
  {
    const ServeInputs in = MakeServeInputs(opt);
    std::vector<serve::Request> reqs;
    const double parse_us = MedianUs(5, [&](int) {
                              reqs.clear();
                              for (const std::string& l : in.lines) {
                                reqs.push_back(serve::ParseRequest(
                                    std::string_view(l).substr(
                                        0, l.size() - 1)));
                              }
                            }) /
                            static_cast<double>(in.lines.size());
    std::vector<market::PricePanel> panels;
    for (const serve::Request& r : reqs) {
      market::PricePanel p(r.rows, r.cols);
      for (int64_t d = 0; d < r.rows; ++d) {
        for (int64_t a = 0; a < r.cols; ++a) {
          p.SetClose(d, a, r.prices[static_cast<size_t>(d * r.cols + a)]);
        }
      }
      p.set_train_end(r.rows);
      panels.push_back(std::move(p));
    }
    auto replica = serve::MakeCitModelFactory(kServeAssets, CitdConfig())();
    std::vector<std::vector<double>> weights(panels.size());
    for (size_t i = 0; i < panels.size(); ++i) {
      weights[i] = replica->Decide(panels[i]).value();  // records plans
    }
    const double decide_us = MedianUs(
        static_cast<int>(panels.size()), [&](int i) {
          replica->Decide(panels[static_cast<size_t>(i)]);
        });
    const double format_us = MedianUs(5, [&](int) {
                               for (const auto& w : weights) {
                                 serve::FormatDecideResponse(0, w);
                               }
                             }) /
                             static_cast<double>(weights.size());
    std::vector<const market::PricePanel*> batch(8);
    const int batches = static_cast<int>(panels.size() / 8);
    for (int b = 0; b < batches; ++b) {  // records the batch-of-8 plans
      for (int i = 0; i < 8; ++i) batch[i] = &panels[b * 8 + i];
      replica->DecideBatch(batch);
    }
    const double batch8_us = MedianUs(batches, [&](int b) {
                               for (int i = 0; i < 8; ++i) {
                                 batch[i] = &panels[b * 8 + i];
                               }
                               replica->DecideBatch(batch);
                             }) /
                             8.0;

    serve::ServerConfig sc;
    sc.socket_path =
        opt.work_dir + "/probe-" + std::to_string(::getpid()) + ".sock";
    sc.workers = 2;
    sc.enable_telemetry = true;
    serve::Server server(
        sc, serve::MakeCitModelFactory(kServeAssets, CitdConfig()));
    double closed_p50 = 0.0;
    Connections one, four;
    int64_t mismatches = 0;
    ObsDelta d;
    d.Mark(kPassCounters, kPassHists);
    if (!server.Start().ok() || !one.Open(sc.socket_path, 1) ||
        !four.Open(sc.socket_path, 4) ||
        !ClosedBurst(one.fds(), in.lines, in.expected, &mismatches)) {
      failures->push_back("serve probe: server unreachable");
    } else {
      std::vector<double> us;
      for (size_t i = 0; i < in.lines.size(); ++i) {
        const int64_t t0 = NowNs();
        if (!ClosedBurst(one.fds(), {in.lines[i]}, {in.expected[i]},
                         &mismatches)) {
          failures->push_back("serve probe: request failed");
          break;
        }
        us.push_back(1e-3 * static_cast<double>(NowNs() - t0));
      }
      closed_p50 = Median(us);
      // Pipelined on four connections, so batches form for the stats.
      if (!ClosedBurst(four.fds(), in.lines, in.expected, &mismatches)) {
        failures->push_back("serve probe: burst failed");
      }
    }
    if (mismatches > 0) failures->push_back("serve probe: reply mismatch");
    one.Close();
    four.Close();
    server.Stop();
    result.serve_stats = ServeStats(&d);

    out.push_back({"serve.protocol.parse_us", parse_us, "us"});
    out.push_back({"serve.protocol.format_us", format_us, "us"});
    out.push_back({"serve.model.decide_us", decide_us, "us"});
    out.push_back({"serve.model.batch8_us_per_req", batch8_us, "us"});
    out.push_back({"serve.closed_p50_us", closed_p50, "us"});
    out.push_back({"serve.residual_us",
                   closed_p50 - parse_us - decide_us - format_us, "us"});
  }

  obs::SetEnabled(was_enabled);
  return result;
}

}  // namespace cit::e2e
