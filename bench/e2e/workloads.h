#ifndef CIT_BENCH_E2E_WORKLOADS_H_
#define CIT_BENCH_E2E_WORKLOADS_H_

// The four citbench workloads and the per-layer probes. Each workload
// builds its inputs from the workload seed, sets the system up several
// times (set-up time is reported as the median), measures for the run's
// time budget and checks every output it produces.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "e2e.h"
#include "env/backtest.h"
#include "env/sweep.h"
#include "market/simulator.h"

namespace cit::e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool smoke = false;      // tiny sizes: checks the benchmark, measures nothing
  std::string work_dir;    // server socket, results and span files
};

inline constexpr const char* kWorkloads[] = {"pipeline", "sweep",
                                             "serve_light", "serve_heavy"};
bool IsWorkload(const std::string& name);
bool IsServing(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadRun {
  std::vector<double> setup_s;    // one entry per set-up repetition
  std::vector<double> decides;  // latency of every timed decide, us
  double throughput_per_s = 0.0;
  // The workload's headline time, on which tracing overhead is taken.
  double primary = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  uint64_t digest = kFnvOffset;
  std::vector<std::string> notes;  // reasons for failures
  std::vector<Metric> detail;      // workload-native figures, not gated
  // PassCounters (and, serving, ServeStats) over the measured part only;
  // zero unless obs telemetry was on.
  std::vector<Metric> counters;
};

// `spans` must be non-null; it records only when enabled.
WorkloadRun RunWorkload(const Options& opt, SpanLog* spans);

// Changes of obs counters and histograms since each name was first
// queried (Mark queries a list up front). Counts only while obs is on.
class ObsDelta {
 public:
  double Count(const std::string& name);
  // Mean of the histogram samples recorded since the mark (0 with none).
  double Mean(const std::string& name);
  void Mark(const std::vector<std::string>& counters,
            const std::vector<std::string>& hists);

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> hists_;
};

// Names PassCounters and ServeStats read; Mark them before the pass.
extern const std::vector<std::string> kPassCounters;
extern const std::vector<std::string> kPassHists;
// plan.*, arena.* and threadpool.* over a pass.
std::vector<Metric> PassCounters(ObsDelta* d);
// The serve.* figures the `stats` endpoint serializes, over a pass.
std::vector<Metric> ServeStats(ObsDelta* d);

struct ProbeResult {
  std::vector<Metric> layers;
  // ServeStats of the probe's own server (used where the workload runs
  // none).
  std::vector<Metric> serve_stats;
};

// Per-layer probes: time each layer through its public functions at fixed
// shapes and count kernel work through the obs counters (enabled for the
// duration). The same probes run on every workload. Failed checks are
// appended to `failures`.
ProbeResult RunProbes(const Options& opt, std::vector<std::string>* failures);

// ---- Inputs shared by the workloads and the probes --------------------------

// The paper's U.S. market at default scale (20 assets, 1301 train and 284
// test days), drawn from the workload seed.
market::MarketConfig UsConfig(const Options& opt);
// The trader with the paper's defaults (5 policies, window 24,
// TCN+attention, rollout_len 16).
core::CrossInsightConfig PaperConfig(const Options& opt);
// citd's shipped model: 8 assets, window 16, 3 policies, TCN+attention.
inline constexpr int64_t kServeAssets = 8;
core::CrossInsightConfig CitdConfig();

// 256 distinct "decide 16 8" request lines cut from a seeded market, and
// the reply a library CrossInsightTrader (Reset + DecideWeights on the
// same panel) gives to each, formatted as the server must send it.
struct ServeInputs {
  std::vector<std::string> lines;
  std::vector<std::string> expected;
};
ServeInputs MakeServeInputs(const Options& opt);

// Forwards to a trading agent and records the latency of every decide
// into `sink` (when given) and, when tracing, a "core.decide" span.
// Owning or borrowing; when `cell_span` is non-empty the agent's whole
// life is a span of that name (one sweep cell).
class TimedAgent : public env::TradingAgent {
 public:
  struct Sink {
    std::mutex mu;
    std::vector<double> samples;
  };

  TimedAgent(env::TradingAgent* inner, Sink* sink, SpanLog* spans);
  TimedAgent(std::unique_ptr<env::TradingAgent> owned, Sink* sink,
             SpanLog* spans, std::string cell_span);
  ~TimedAgent() override;

  std::string name() const override { return inner_->name(); }
  void Reset() override { inner_->Reset(); }
  using env::TradingAgent::DecideWeights;
  std::vector<double> DecideWeights(const market::PanelView& panel,
                                    int64_t day) override;

 private:
  std::unique_ptr<env::TradingAgent> owned_;
  env::TradingAgent* inner_;
  Sink* sink_;
  SpanLog* spans_;
  std::vector<double> local_;
  std::unique_ptr<ScopedSpan> cell_;
};

// The sweep workload's scenario stacks ("" = baseline) and agents: CIT
// (seeded, untrained) and the OLPS baselines, every CIT decide timed into
// `sink` when one is given.
std::vector<std::string> SweepStacks(const Options& opt);
std::vector<env::SweepAgentSpec> SweepAgents(const Options& opt,
                                             int64_t num_assets,
                                             TimedAgent::Sink* sink,
                                             SpanLog* spans);

}  // namespace cit::e2e

#endif  // CIT_BENCH_E2E_WORKLOADS_H_
