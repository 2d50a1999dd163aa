#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/thread_pool.h"
#include "core/trader.h"
#include "env/sweep.h"
#include "market/source.h"
#include "obs/telemetry.h"
#include "olps/strategies.h"
#include "client.h"
#include "serve/cit_model.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace cit::e2e {

namespace {

// Set-up repeats at least this many times and for at least this long;
// setup_s is the median. A cheap set-up (milliseconds) needs many
// repetitions before its median stops moving with host noise.
constexpr int kSetupReps = 5;
constexpr double kSetupMinS = 1.0;

double SecondsSince(int64_t t0_ns) {
  return 1e-9 * static_cast<double>(NowNs() - t0_ns);
}

// Another repetition of a job lasting about `last_s` still ends within the
// budget. Every run measures at least one repetition.
bool AnotherFits(int64_t start_ns, double last_s, double budget_s) {
  return SecondsSince(start_ns) + last_s <= budget_s;
}

bool MoreSetup(const WorkloadRun& run, int64_t start_ns) {
  return static_cast<int>(run.setup_s.size()) < kSetupReps ||
         SecondsSince(start_ns) < kSetupMinS;
}

void Fail(WorkloadRun* run, std::string note, int64_t count = 1) {
  run->failed += count;
  if (run->notes.size() < 16) run->notes.push_back(std::move(note));
}

bool Finite(const env::PerformanceMetrics& m) {
  return std::isfinite(m.accumulative_return) &&
         std::isfinite(m.sharpe_ratio) && std::isfinite(m.calmar_ratio) &&
         std::isfinite(m.max_drawdown) &&
         std::isfinite(m.annualized_return) &&
         std::isfinite(m.annualized_vol);
}

bool BacktestOk(const env::BacktestResult& r) {
  if (!Finite(r.metrics) || r.repaired_steps > 0) return false;
  for (double w : r.wealth) {
    if (!std::isfinite(w)) return false;
  }
  return true;
}

std::unique_ptr<env::TradingAgent> MakeBaseline(const std::string& name) {
  if (name == "OLMAR") return std::make_unique<olps::Olmar>();
  if (name == "CRP") return std::make_unique<olps::Crp>();
  return std::make_unique<olps::BuyAndHold>();  // "Market"
}

const char* const kBaselines[] = {"OLMAR", "CRP", "Market"};

// ---- pipeline ---------------------------------------------------------------

WorkloadRun RunPipeline(const Options& opt, SpanLog* spans) {
  WorkloadRun run;
  const market::MarketConfig mc = UsConfig(opt);
  const core::CrossInsightConfig cc = PaperConfig(opt);

  market::PricePanel panel;
  std::unique_ptr<core::CrossInsightTrader> trader;
  for (const int64_t setup_start = NowNs(); MoreSetup(run, setup_start);) {
    ScopedSpan setup(spans, "pipeline.setup");
    const int64_t t0 = NowNs();
    {
      ScopedSpan s(spans, "market.simulate");
      panel = market::SimulateMarket(mc);
    }
    {
      ScopedSpan s(spans, "core.construct");
      trader = std::make_unique<core::CrossInsightTrader>(mc.num_assets, cc);
    }
    run.setup_s.push_back(SecondsSince(t0));
  }
  market::InMemorySource source(&panel);
  const market::PanelView view(&source);

  obs::Histogram& updates =
      obs::Registry::Global().GetHistogram("train.update");
  const uint64_t update_us_before = updates.Get().sum;
  TimedAgent::Sink sink;
  std::vector<double> job_s, train_s;
  uint64_t cit_digest = 0;  // the trained CIT's test wealth curve
  ObsDelta counters;
  counters.Mark(kPassCounters, kPassHists);
  const int64_t start = NowNs();
  for (;;) {
    ScopedSpan job(spans, "pipeline.job");
    const int64_t t0 = NowNs();
    std::vector<double> curve;
    {
      ScopedSpan s(spans, "core.train");
      curve = trader->Train(view);
    }
    train_s.push_back(SecondsSince(t0));
    ++run.attempted;
    uint64_t digest = kFnvOffset;
    for (double v : curve) {
      if (!std::isfinite(v)) Fail(&run, "non-finite learning curve");
      digest = FnvDouble(v, digest);
    }

    TimedAgent cit(trader.get(), &sink, spans);
    std::vector<env::TradingAgent*> agents = {&cit};
    std::vector<std::unique_ptr<env::TradingAgent>> baselines;
    for (const char* name : kBaselines) {
      baselines.push_back(MakeBaseline(name));
      agents.push_back(baselines.back().get());
    }
    for (env::TradingAgent* agent : agents) {
      ScopedSpan s(spans, "env.backtest." + agent->name());
      const env::BacktestResult r = env::RunTestBacktest(*agent, view);
      ++run.attempted;
      if (!BacktestOk(r)) Fail(&run, agent->name() + " backtest failed");
      if (agent == &cit) {
        uint64_t wealth = kFnvOffset;
        for (double w : r.wealth) {
          digest = FnvDouble(w, digest);
          wealth = FnvDouble(w, wealth);
        }
        cit_digest = wealth;
      }
    }
    job_s.push_back(SecondsSince(t0));

    if (job_s.size() == 1) {
      run.digest = digest;
    } else if (digest != run.digest) {
      Fail(&run, "pipeline output differs between repetitions");
    }
    if (!AnotherFits(start, job_s.back(), opt.seconds)) break;
    trader = std::make_unique<core::CrossInsightTrader>(mc.num_assets, cc);
  }
  {
    // The rest of the budget decides more test days with the trained
    // model, so the latency percentiles rest on thousands of decides
    // spread over seconds rather than one backtest's worth.
    TimedAgent more(trader.get(), &sink, spans);  // flushes when destroyed
    for (double last = 0.0; AnotherFits(start, last, opt.seconds);) {
      ScopedSpan s(spans, "pipeline.more_decides");
      const int64_t t0 = NowNs();
      const env::BacktestResult r = env::RunTestBacktest(more, view);
      last = SecondsSince(t0);
      ++run.attempted;
      uint64_t wealth = kFnvOffset;
      for (double w : r.wealth) wealth = FnvDouble(w, wealth);
      if (!BacktestOk(r) || wealth != cit_digest) {
        Fail(&run, "CIT backtest differs from the pipeline's");
      }
    }
  }

  run.counters = PassCounters(&counters);
  run.decides = std::move(sink.samples);
  run.primary = Median(job_s);
  run.throughput_per_s = 1.0 / run.primary;
  run.detail.push_back({"pipeline_s", run.primary, "s"});
  run.detail.push_back({"train_s", Median(train_s), "s"});
  run.detail.push_back(
      {"repetitions", static_cast<double>(job_s.size()), "count"});
  if (spans != nullptr && spans->enabled()) {
    // How much of the pipeline the spans explain: the trainer's own
    // train.update spans plus the backtests, over the job spans.
    const std::map<std::string, double> total = spans->TotalUs();
    double backtest_us = 0.0;
    for (const auto& [name, us] : total) {
      if (name.rfind("env.backtest.", 0) == 0) backtest_us += us;
    }
    const double update_us =
        static_cast<double>(updates.Get().sum - update_us_before);
    run.detail.push_back({"span_coverage_pct",
                          100.0 * (update_us + backtest_us) /
                              total.at("pipeline.job"),
                          "%"});
  }
  return run;
}

// ---- sweep ------------------------------------------------------------------

const char* const kStacks[] = {"",     "flash_crash", "correlation_breakdown",
                               "liquidity_hole", "halt", "regime_flip"};

std::vector<uint64_t> SweepSeeds(const Options& opt) {
  std::vector<uint64_t> seeds;
  for (int i = 0; i < (opt.smoke ? 2 : 4); ++i) {
    seeds.push_back(SubSeed(opt.seed, 100 + static_cast<uint64_t>(i)));
  }
  return seeds;
}

WorkloadRun RunSweepWorkload(const Options& opt, SpanLog* spans) {
  WorkloadRun run;
  const market::MarketConfig mc = UsConfig(opt);
  const std::vector<std::string> stacks = SweepStacks(opt);
  env::SweepConfig full;
  full.seeds = SweepSeeds(opt);
  env::SweepConfig warm;
  warm.seeds = {full.seeds.front()};

  TimedAgent::Sink sink;
  std::unique_ptr<market::InMemorySource> source;
  for (const int64_t setup_start = NowNs(); MoreSetup(run, setup_start);) {
    ScopedSpan setup(spans, "sweep.setup");
    spans->set_root(setup.id());
    const int64_t t0 = NowNs();
    {
      ScopedSpan s(spans, "market.simulate");
      source = std::make_unique<market::InMemorySource>(
          market::SimulateMarket(mc));
    }
    // One seed of every (stack, agent): pool threads started, code and
    // allocator warm.
    auto warmed = env::RunSweep(
        source.get(), stacks,
        SweepAgents(opt, mc.num_assets, nullptr, spans), warm);
    if (!warmed.ok()) {
      Fail(&run, "warm sweep: " + warmed.status().message());
      return run;
    }
    run.setup_s.push_back(SecondsSince(t0));
  }

  const std::vector<env::SweepAgentSpec> agents =
      SweepAgents(opt, mc.num_assets, &sink, spans);
  std::vector<double> pass_s;
  std::string first_json;
  ObsDelta counters;
  counters.Mark(kPassCounters, kPassHists);
  const int64_t start = NowNs();
  for (;;) {
    ScopedSpan pass(spans, "sweep.pass");
    spans->set_root(pass.id());
    const int64_t t0 = NowNs();
    auto report = env::RunSweep(source.get(), stacks, agents, full);
    pass_s.push_back(SecondsSince(t0));
    if (!report.ok()) {
      Fail(&run, "sweep: " + report.status().message());
      break;
    }
    for (const env::SweepCell& c : report.value().cells) {
      ++run.attempted;
      if (!Finite(c.metrics) || !std::isfinite(c.final_wealth) ||
          !std::isfinite(c.turnover) || c.repaired_steps > 0) {
        Fail(&run, "cell " + c.scenario + "/" + c.agent + " failed");
      }
    }
    const std::string json = report.value().ToJson();
    if (first_json.empty()) {
      first_json = json;
      run.digest = Fnv1a(json);
    } else if (json != first_json) {
      Fail(&run, "sweep report differs between passes");
    }
    if (!AnotherFits(start, pass_s.back(), opt.seconds)) break;
  }
  spans->set_root(-1);
  run.counters = PassCounters(&counters);

  const double cells = static_cast<double>(stacks.size() * agents.size() *
                                           full.seeds.size());
  run.decides = std::move(sink.samples);
  run.primary = Median(pass_s);
  run.throughput_per_s = cells / run.primary;
  run.detail.push_back({"sweep_cells_per_s", run.throughput_per_s, "1/s"});
  run.detail.push_back({"sweep_s", run.primary, "s"});
  run.detail.push_back({"cells", cells, "count"});
  run.detail.push_back(
      {"repetitions", static_cast<double>(pass_s.size()), "count"});
  return run;
}

// ---- serving ----------------------------------------------------------------

constexpr int kConns = 2;  // one on each worker
// Requests each serve_heavy caller keeps outstanding: two full batches
// (max_batch 8) per worker.
constexpr int kHeavyDepth = 16;
constexpr double kReplyGraceS = 2.0;
constexpr int kOrderLength = 1 << 16;  // request order, cycled

serve::ServerConfig CitdServerConfig(const Options& opt) {
  serve::ServerConfig sc;
  sc.socket_path =
      opt.work_dir + "/citd-" + std::to_string(::getpid()) + ".sock";
  // citd's shipped settings.
  sc.workers = 2;
  sc.max_batch = 8;
  sc.batch_window_us = 0;
  sc.enable_telemetry = true;
  return sc;
}

// Sets the process-wide kernel pool's thread count for its lifetime.
class PoolThreads {
 public:
  explicit PoolThreads(int n) : saved_(ThreadPool::Global().num_threads()) {
    ThreadPool::Global().SetNumThreads(n);
  }
  ~PoolThreads() { ThreadPool::Global().SetNumThreads(saved_); }
  PoolThreads(const PoolThreads&) = delete;
  PoolThreads& operator=(const PoolThreads&) = delete;

 private:
  const int saved_;
};

WorkloadRun RunServing(const Options& opt, SpanLog* spans) {
  // The kernel pool runs one thread while serving. citd's two workers
  // otherwise race for the one process-wide pool, and which of them wins
  // it changed latency and memory from run to run (peak RSS 19 MB in one
  // run, 38 MB in the next, at four pool threads).
  const PoolThreads pool_threads(1);
  // The client (this thread) and each server worker on a CPU of its own,
  // rotating while the load runs.
  Placement placement;
  WorkloadRun run;
  const ServeInputs in = MakeServeInputs(opt);
  for (const std::string& e : in.expected) run.digest = Fnv1a(e, run.digest);
  const serve::ServerConfig sc = CitdServerConfig(opt);

  std::unique_ptr<serve::Server> server;
  for (const int64_t setup_start = NowNs(); MoreSetup(run, setup_start);) {
    server.reset();  // the previous replica set releases the socket path
    ScopedSpan setup(spans, "serve.setup");
    const int64_t t0 = NowNs();
    {
      ScopedSpan s(spans, "serve.start");
      server = std::make_unique<serve::Server>(
          sc, serve::MakeCitModelFactory(kServeAssets, CitdConfig()));
      const std::vector<int> threads = ThreadIds();
      const Status st = server->Start();
      placement.AdoptServer(threads);
      if (!st.ok()) {
        Fail(&run, "server start: " + st.message());
        return run;
      }
    }
    // Every line once, pipelined on one connection: records the plans of
    // the worker that accepts it and checks every reply. One connection
    // keeps the work fixed; several would land on whichever worker wins
    // the accept race.
    {
      ScopedSpan s(spans, "serve.warmup");
      Connections warm;
      int64_t mismatches = 0;
      if (!warm.Open(sc.socket_path, 1) ||
          !ClosedBurst(warm.fds(), in.lines, in.expected, &mismatches)) {
        Fail(&run, "warm-up traffic failed");
        return run;
      }
      run.attempted += static_cast<int64_t>(in.lines.size());
      if (mismatches > 0) {
        Fail(&run, "warm-up replies differ from the library's", mismatches);
      }
    }
    run.setup_s.push_back(SecondsSince(t0));
  }

  Connections conns;
  int attempts = 0;
  if (!BalancedConnections(sc.socket_path, kConns, in.lines[0], &conns,
                           &attempts)) {
    Fail(&run, "could not balance connections across the workers");
    return run;
  }
  run.detail.push_back(
      {"balance_attempts", static_cast<double>(attempts), "count"});
  // Every batch size once on each worker (connections 0 and 1 sit on
  // different workers), so no plan is first recorded while measuring and
  // memory does not depend on which batch sizes happened to form.
  for (int k = 1; k <= sc.max_batch; ++k) {
    const std::vector<std::string> lines(in.lines.begin(),
                                         in.lines.begin() + k);
    const std::vector<std::string> replies(in.expected.begin(),
                                           in.expected.begin() + k);
    for (int c = 0; c < kConns; ++c) {
      int64_t mismatches = 0;
      if (!ClosedBurst({conns.fds()[static_cast<size_t>(c)]}, lines, replies,
                       &mismatches) ||
          mismatches > 0) {
        Fail(&run, "batch warm-up failed");
        return run;
      }
    }
  }

  // serve_light: one caller, one request at a time, so no batch can form:
  // the single-request path (protocol, poll loop, one replay, wake-ups).
  // serve_heavy: one caller per worker, each keeping kHeavyDepth requests
  // outstanding, so both workers stay busy on full batches.
  const bool heavy = opt.workload == "serve_heavy";
  const std::vector<int> fds =
      heavy ? conns.fds() : std::vector<int>{conns.fds()[0]};
  const std::vector<int32_t> order =
      RequestOrder(static_cast<int>(in.lines.size()), kOrderLength,
                   SubSeed(opt.seed, 4));
  ObsDelta counters;
  counters.Mark(kPassCounters, kPassHists);
  LoadResult r;
  {
    ScopedSpan s(spans, "serve.load");
    spans->set_root(s.id());
    r = RunClosedLoop(fds, heavy ? kHeavyDepth : 1, opt.seconds, order,
                      in.lines, in.expected, kReplyGraceS, &placement,
                      spans, "serve.request", 1);
    spans->set_root(-1);
  }
  run.attempted += r.sent;
  if (r.failed() > 0) {
    Fail(&run,
         std::to_string(r.mismatched) +
             " replies differ from the library's, " +
             std::to_string(r.missing) + " requests got none",
         r.failed());
  }
  run.counters = PassCounters(&counters);
  const std::vector<Metric> stats = ServeStats(&counters);
  run.counters.insert(run.counters.end(), stats.begin(), stats.end());
  for (const Metric& m : stats) {
    if (m.name == "serve.batched_share" || m.name == "serve.batch_size.mean") {
      run.detail.push_back({m.name.substr(6), m.value, m.unit});
    }
  }
  run.decides = std::move(r.latency);
  run.throughput_per_s = static_cast<double>(r.replied) / r.wall_s;
  run.primary = Median(run.decides);
  conns.Close();
  server.reset();
  return run;
}

}  // namespace

double ObsDelta::Count(const std::string& name) {
  const uint64_t now = obs::Registry::Global().GetCounter(name).Total();
  const auto [it, fresh] = counters_.emplace(name, now);
  return fresh ? 0.0 : static_cast<double>(now - it->second);
}

double ObsDelta::Mean(const std::string& name) {
  const obs::Histogram::Snapshot s =
      obs::Registry::Global().GetHistogram(name).Get();
  const auto [it, fresh] =
      hists_.emplace(name, std::make_pair(s.count, s.sum));
  const uint64_t n = s.count - it->second.first;
  if (fresh || n == 0) return 0.0;
  return static_cast<double>(s.sum - it->second.second) /
         static_cast<double>(n);
}

void ObsDelta::Mark(const std::vector<std::string>& counters,
                    const std::vector<std::string>& hists) {
  for (const std::string& c : counters) Count(c);
  for (const std::string& h : hists) Mean(h);
}

const std::vector<std::string> kPassCounters = {
    "plan.hits",        "plan.misses",       "plan.misses_cold",
    "plan.misses_evicted", "plan.invalidations", "arena.hits",
    "arena.misses",     "arena.fresh_bytes", "threadpool.jobs",
    "threadpool.inline_jobs", "serve.decides", "serve.batched_requests"};
const std::vector<std::string> kPassHists = {
    "serve.batch_size", "serve.request_us", "serve.batch_us"};

namespace {
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

std::vector<Metric> PassCounters(ObsDelta* d) {
  const double hits = d->Count("plan.hits");
  const double arena_hits = d->Count("arena.hits");
  return {
      {"plan.hits", hits, "count"},
      {"plan.misses_cold", d->Count("plan.misses_cold"), "count"},
      {"plan.misses_evicted", d->Count("plan.misses_evicted"), "count"},
      {"plan.invalidations", d->Count("plan.invalidations"), "count"},
      {"plan.hit_ratio", Ratio(hits, hits + d->Count("plan.misses")),
       "ratio"},
      {"arena.hit_ratio",
       Ratio(arena_hits, arena_hits + d->Count("arena.misses")), "ratio"},
      {"arena.fresh_bytes", d->Count("arena.fresh_bytes"), "bytes"},
      {"threadpool.jobs", d->Count("threadpool.jobs"), "count"},
      {"threadpool.inline_jobs", d->Count("threadpool.inline_jobs"),
       "count"},
  };
}

std::vector<Metric> ServeStats(ObsDelta* d) {
  return {
      {"serve.batch_size.mean", d->Mean("serve.batch_size"), "count"},
      {"serve.batched_share",
       Ratio(d->Count("serve.batched_requests"), d->Count("serve.decides")),
       "ratio"},
      {"serve.request_us.mean", d->Mean("serve.request_us"), "us"},
      {"serve.batch_us.mean", d->Mean("serve.batch_us"), "us"},
  };
}

std::vector<env::SweepAgentSpec> SweepAgents(const Options& opt,
                                             int64_t num_assets,
                                             TimedAgent::Sink* sink,
                                             SpanLog* spans) {
  const core::CrossInsightConfig cc = PaperConfig(opt);
  std::vector<env::SweepAgentSpec> agents;
  // An untrained replica costs what a trained one does per decide.
  agents.push_back({"CIT", [=](uint64_t seed) {
                      core::CrossInsightConfig c = cc;
                      c.seed = seed;
                      return std::make_unique<TimedAgent>(
                          std::make_unique<core::CrossInsightTrader>(
                              num_assets, c),
                          sink, spans, "sweep.cell.CIT");
                    }});
  for (const char* name : kBaselines) {
    const std::string n = name;
    agents.push_back({n, [=](uint64_t) {
                        return std::make_unique<TimedAgent>(
                            MakeBaseline(n), nullptr, spans,
                            "sweep.cell." + n);
                      }});
  }
  return agents;
}

std::vector<std::string> SweepStacks(const Options& opt) {
  std::vector<std::string> stacks(std::begin(kStacks), std::end(kStacks));
  if (opt.smoke) stacks.resize(2);
  return stacks;
}

bool IsWorkload(const std::string& name) {
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), name) !=
         std::end(kWorkloads);
}

bool IsServing(const std::string& name) {
  return name == "serve_light" || name == "serve_heavy";
}

WorkloadRun RunWorkload(const Options& opt, SpanLog* spans) {
  if (opt.workload == "pipeline") return RunPipeline(opt, spans);
  if (opt.workload == "sweep") return RunSweepWorkload(opt, spans);
  return RunServing(opt, spans);
}

market::MarketConfig UsConfig(const Options& opt) {
  market::MarketConfig c = market::UsMarketConfig();
  c.seed = SubSeed(opt.seed, 1);
  if (opt.smoke) {
    c.num_assets = 6;
    c.train_days = 120;
    c.test_days = 40;
    c.forced_bear_tail = 0;
  }
  return c;
}

core::CrossInsightConfig PaperConfig(const Options& opt) {
  core::CrossInsightConfig c;
  c.train_steps = opt.smoke ? 2 : 25;
  return c;
}

core::CrossInsightConfig CitdConfig() {
  core::CrossInsightConfig c;
  c.num_policies = 3;
  c.window = 16;
  c.seed = 1;
  return c;
}

ServeInputs MakeServeInputs(const Options& opt) {
  constexpr int kLines = 256;
  const int64_t rows = CitdConfig().window;
  market::MarketConfig mc;
  mc.name = "serve";
  mc.num_assets = kServeAssets;
  mc.train_days = kLines + rows;
  mc.test_days = 1;
  mc.seed = SubSeed(opt.seed, 3);
  const market::PricePanel panel = market::SimulateMarket(mc);

  ServeInputs in;
  core::CrossInsightTrader library(kServeAssets, CitdConfig());
  for (int i = 0; i < kLines; ++i) {
    std::string line = "decide " + std::to_string(rows) + " " +
                       std::to_string(kServeAssets);
    for (int64_t d = i; d < i + rows; ++d) {
      for (int64_t a = 0; a < kServeAssets; ++a) {
        line.push_back(' ');
        serve::AppendDouble(&line, panel.Close(d, a));
      }
    }
    // The panel exactly as the server builds it from the parsed request.
    const serve::Request req = serve::ParseRequest(line);
    market::PricePanel p(req.rows, req.cols);
    for (int64_t d = 0; d < req.rows; ++d) {
      for (int64_t a = 0; a < req.cols; ++a) {
        p.SetClose(d, a, req.prices[static_cast<size_t>(d * req.cols + a)]);
      }
    }
    p.set_train_end(req.rows);
    market::InMemorySource source(&p);
    library.Reset();
    in.expected.push_back(serve::FormatDecideResponse(
        0, library.DecideWeights(market::PanelView(&source), rows - 1)));
    in.lines.push_back(line + "\n");
  }
  return in;
}

TimedAgent::TimedAgent(env::TradingAgent* inner, Sink* sink, SpanLog* spans)
    : inner_(inner), sink_(sink), spans_(spans) {}

TimedAgent::TimedAgent(std::unique_ptr<env::TradingAgent> owned, Sink* sink,
                       SpanLog* spans, std::string cell_span)
    : owned_(std::move(owned)),
      inner_(owned_.get()),
      sink_(sink),
      spans_(spans),
      cell_(std::make_unique<ScopedSpan>(spans, std::move(cell_span))) {}

TimedAgent::~TimedAgent() {
  cell_.reset();
  if (sink_ == nullptr || local_.empty()) return;
  std::lock_guard<std::mutex> lock(sink_->mu);
  sink_->samples.insert(sink_->samples.end(), local_.begin(), local_.end());
}

std::vector<double> TimedAgent::DecideWeights(const market::PanelView& panel,
                                              int64_t day) {
  ScopedSpan s(spans_, "core.decide");
  const int64_t t0 = NowNs();
  std::vector<double> w = inner_->DecideWeights(panel, day);
  if (sink_ != nullptr) {
    local_.push_back(1e-3 * static_cast<double>(NowNs() - t0));
  }
  return w;
}

}  // namespace cit::e2e
