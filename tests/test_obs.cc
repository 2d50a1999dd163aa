#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "env/backtest.h"
#include "market/simulator.h"
#include "math/rng.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rl/a2c.h"

namespace cit {
namespace {

// Restores the previous telemetry-enabled state on scope exit so a failing
// assertion cannot leak an enabled flag into later tests.
class TelemetryGuard {
 public:
  explicit TelemetryGuard(bool on) : saved_(obs::Enabled()) {
    obs::SetEnabled(on);
  }
  ~TelemetryGuard() { obs::SetEnabled(saved_); }

 private:
  bool saved_;
};

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

// Minimal strict JSON validator — enough to prove the snapshot lines and
// the chrome://tracing document are well-formed without a JSON library.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool Number() {
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    std::strtod(begin, &end);
    if (end == begin) return false;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }
  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\\') {
        pos_ += 2;  // escaped char (\uXXXX hex digits pass as plain chars)
        continue;
      }
      ++pos_;
      if (c == '"') return true;
    }
    return false;  // unterminated
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Value() {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }

  const std::string& s_;
  size_t pos_ = 0;
};

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- Instruments ------------------------------------------------------------

TEST(Obs, DisabledTelemetryIsNoop) {
  // Default state: compiled in but runtime-disabled (or compiled out
  // entirely) — no instrument may record anything.
  ASSERT_FALSE(obs::Enabled());
  auto& c = obs::Registry::Global().GetCounter("test.noop_counter");
  auto& g = obs::Registry::Global().GetGauge("test.noop_gauge");
  auto& h = obs::Registry::Global().GetHistogram("test.noop_hist");
  c.Reset();
  g.Reset();
  h.Reset();
  c.Add(42);
  g.Set(3.5);
  h.Record(1000);
  EXPECT_EQ(c.Total(), 0u);
  EXPECT_FALSE(g.ever_set());
  EXPECT_EQ(h.Get().count, 0u);
}

TEST(Obs, CounterAccumulatesAcrossPoolThreads) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with CIT_OBS=OFF";
  TelemetryGuard telemetry(true);
  ThreadCountGuard threads(4);
  auto& c = obs::Registry::Global().GetCounter("test.sharded_counter");
  c.Reset();
  constexpr int64_t kN = 10000;
  ThreadPool::Global().ParallelFor(0, kN, [&](int64_t) { c.Add(1); });
  // Per-thread shards must merge back to the exact total.
  EXPECT_EQ(c.Total(), static_cast<uint64_t>(kN));
}

TEST(Obs, GaugeStoresLastValueAndResets) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with CIT_OBS=OFF";
  TelemetryGuard telemetry(true);
  auto& g = obs::Registry::Global().GetGauge("test.gauge");
  g.Reset();
  EXPECT_FALSE(g.ever_set());
  g.Set(1.25);
  g.Set(-7.5);
  EXPECT_TRUE(g.ever_set());
  EXPECT_EQ(g.Get(), -7.5);
  g.Reset();
  EXPECT_FALSE(g.ever_set());
}

TEST(Obs, HistogramBucketsMeanAndQuantiles) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with CIT_OBS=OFF";
  TelemetryGuard telemetry(true);
  auto& h = obs::Registry::Global().GetHistogram("test.hist");
  h.Reset();
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 1000ull}) h.Record(v);
  const auto snap = h.Get();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 1006u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_NEAR(snap.Mean(), 1006.0 / 5.0, 1e-12);
  // Median sample is 2, which lands in the [2, 4) bucket: upper bound 4.
  EXPECT_LE(snap.ApproxQuantile(0.5), 4u);
  // The top sample (1000) lands in [512, 1024).
  EXPECT_GE(snap.ApproxQuantile(1.0), 1000u);
  EXPECT_LE(snap.ApproxQuantile(1.0), 1024u);
}

TEST(Obs, RegistryReturnsStableReferences) {
  auto& a = obs::Registry::Global().GetCounter("test.stable");
  auto& b = obs::Registry::Global().GetCounter("test.stable");
  EXPECT_EQ(&a, &b);
}

// ---- Snapshots and traces ---------------------------------------------------

TEST(Obs, SnapshotJsonIsWellFormed) {
  const std::string json = obs::Registry::Global().SnapshotJson();
  JsonValidator v(json);
  EXPECT_TRUE(v.Valid()) << json;
  EXPECT_NE(json.find("\"ts_us\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_us\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// Pulls the integer value of `"key":<digits>` out of a snapshot line;
// fails the test if the field is missing or not a bare integer.
uint64_t JsonU64Field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << json;
  if (at == std::string::npos) return 0;
  size_t i = at + needle.size();
  uint64_t v = 0;
  bool any = false;
  while (i < json.size() && json[i] >= '0' && json[i] <= '9') {
    v = v * 10 + static_cast<uint64_t>(json[i] - '0');
    ++i;
    any = true;
  }
  EXPECT_TRUE(any) << key << " is not an integer in " << json;
  return v;
}

// Snapshots carry both clocks: ts_us from steady_clock (durations) and
// wall_us from system_clock (cross-process correlation). wall_us must be
// a plausible Unix-epoch stamp, and both must be monotone across two
// snapshots taken in order.
TEST(Obs, SnapshotStampsBothClocks) {
  const std::string first = obs::Registry::Global().SnapshotJson();
  const std::string second = obs::Registry::Global().SnapshotJson();
  const uint64_t ts1 = JsonU64Field(first, "ts_us");
  const uint64_t ts2 = JsonU64Field(second, "ts_us");
  const uint64_t wall1 = JsonU64Field(first, "wall_us");
  const uint64_t wall2 = JsonU64Field(second, "wall_us");
  // 2023-11-14 in microseconds; anything smaller means the stamp is not
  // wall time (e.g. a steady_clock value leaked into the field).
  EXPECT_GT(wall1, uint64_t{1700000000} * 1000000) << first;
  EXPECT_GE(ts2, ts1);
  EXPECT_GE(wall2, wall1);
  // And the two clocks are not the same source.
  EXPECT_NE(wall1, ts1);
}

TEST(Obs, SnapshotJsonReportsRecordedValues) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with CIT_OBS=OFF";
  TelemetryGuard telemetry(true);
  CIT_OBS_COUNT("test.snap_counter", 3);
  CIT_OBS_COUNT("test.snap_counter", 4);
  CIT_OBS_GAUGE("test.snap_gauge", 2.5);
  const std::string json = obs::Registry::Global().SnapshotJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"test.snap_counter\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.snap_gauge\":2.5"), std::string::npos) << json;
}

TEST(Obs, TraceWriterProducesValidChromeTracingJson) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with CIT_OBS=OFF";
  TelemetryGuard telemetry(true);
  const std::string path = ::testing::TempDir() + "/trace_unit.json";
  std::remove(path.c_str());
  obs::TraceWriter::Global().Start();
  for (int i = 0; i < 3; ++i) {
    CIT_OBS_SPAN("test.trace_span");
  }
  ASSERT_TRUE(obs::TraceWriter::Global().Stop(path));
  const std::string json = ReadFileOrDie(path);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("test.trace_span"), std::string::npos);
}

TEST(Obs, TelemetrySessionWritesSnapshotLines) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "CIT_OBS=OFF: TelemetrySession is inert";
  }
  const std::string path = ::testing::TempDir() + "/metrics_lines.jsonl";
  std::remove(path.c_str());
  {
    obs::TelemetryConfig cfg;
    cfg.enabled = true;
    cfg.metrics_path = path;
    cfg.snapshot_every = 1;
    obs::TelemetrySession session(cfg);
    session.Tick(0);
    session.Tick(1);
  }  // dtor appends the final snapshot
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_TRUE(JsonValidator(line).Valid()) << line;
    // Every archived line is stamped with both clocks (schema contract).
    EXPECT_GT(JsonU64Field(line, "wall_us"), uint64_t{1700000000} * 1000000);
    JsonU64Field(line, "ts_us");
  }
  EXPECT_GE(lines, 3);
  EXPECT_FALSE(obs::Enabled()) << "session must restore the disabled state";
}

// ---- End-to-end instrumentation ---------------------------------------------

market::PricePanel ObsPanel() {
  market::MarketConfig cfg;
  cfg.num_assets = 3;
  cfg.train_days = 80;
  cfg.test_days = 30;
  cfg.seed = 9;
  return market::SimulateMarket(cfg);
}

rl::RlTrainConfig ObsTrainConfig() {
  rl::RlTrainConfig cfg;
  cfg.window = 8;
  cfg.train_steps = 24;
  cfg.rollout_len = 8;
  cfg.hidden = 16;
  cfg.seed = 5;
  return cfg;
}

TEST(Obs, SnapshotCoversInstrumentedSubsystems) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with CIT_OBS=OFF";
  TelemetryGuard telemetry(true);
  obs::Registry::Global().ResetAll();
  auto panel = ObsPanel();
  rl::A2cAgent agent(3, ObsTrainConfig());
  agent.Train(panel);
  env::RunTestBacktest(agent, panel, 8);
  const std::string json = obs::Registry::Global().SnapshotJson();
  EXPECT_TRUE(JsonValidator(json).Valid());
  for (const char* key :
       {"kernels.gemm_calls", "kernels.gemm_flops", "env.steps",
        "rollout.slots", "backtest.steps", "backtest.turnover",
        "train.update", "train.rollout", "train.actor_loss",
        "train.critic_grad_norm"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\""), std::string::npos)
        << "snapshot missing " << key;
  }
}

TEST(Obs, BacktestRepairedStepsCounterMatchesResult) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with CIT_OBS=OFF";
  TelemetryGuard telemetry(true);
  auto& repaired =
      obs::Registry::Global().GetCounter("backtest.repaired_steps");
  repaired.Reset();

  // Diverged policy: NaN weights on every other decision.
  class NanAgent : public env::TradingAgent {
   public:
    std::string name() const override { return "nan"; }
    std::vector<double> DecideWeights(const market::PanelView& panel,
                                      int64_t) override {
      ++calls_;
      if (calls_ % 2 == 0) {
        return std::vector<double>(panel.num_assets(), std::nan(""));
      }
      return std::vector<double>(panel.num_assets(),
                                 1.0 / panel.num_assets());
    }
    void Reset() override { calls_ = 0; }

   private:
    int64_t calls_ = 0;
  };

  auto panel = ObsPanel();
  NanAgent agent;
  env::EnvConfig cfg;
  cfg.window = 8;
  const env::BacktestResult result = env::RunBacktest(agent, panel, cfg);
  ASSERT_GT(result.repaired_steps, 0);
  EXPECT_EQ(repaired.Total(),
            static_cast<uint64_t>(result.repaired_steps));
}

// The observability contract: telemetry observes, it never perturbs.
// Training curves and backtest wealth must be bitwise identical with
// telemetry off and fully on (spans + trace + snapshots), serial and
// parallel alike.
TEST(Obs, TrainingCurveBitwiseIdenticalWithTelemetryOnAndOff) {
  auto panel = ObsPanel();
  const std::string trace_path = ::testing::TempDir() + "/curve_trace.json";
  const std::string metrics_path =
      ::testing::TempDir() + "/curve_metrics.jsonl";

  auto run = [&](bool telemetry_on) {
    rl::RlTrainConfig cfg = ObsTrainConfig();
    if (telemetry_on) {
      cfg.telemetry.enabled = true;
      cfg.telemetry.trace_path = trace_path;
      cfg.telemetry.metrics_path = metrics_path;
      cfg.telemetry.snapshot_every = 6;
    }
    rl::A2cAgent agent(3, cfg);
    std::vector<double> curve = agent.Train(panel);
    const env::BacktestResult bt = env::RunTestBacktest(agent, panel, 8);
    curve.push_back(bt.wealth.back());
    curve.push_back(bt.turnover);
    return curve;
  };

  for (const int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());
    const std::vector<double> off = run(false);
    const std::vector<double> on = run(true);
    ASSERT_EQ(off.size(), on.size());
    for (size_t i = 0; i < off.size(); ++i) {
      EXPECT_EQ(off[i], on[i]) << "threads=" << threads << " i=" << i;
    }
    // The observed run must also have produced parseable artifacts
    // (compiled out, the session is inert and writes nothing).
    if (obs::kCompiledIn) {
      const std::string trace = ReadFileOrDie(trace_path);
      EXPECT_TRUE(JsonValidator(trace).Valid());
      std::ifstream metrics(metrics_path);
      ASSERT_TRUE(static_cast<bool>(metrics));
      std::string line;
      int lines = 0;
      while (std::getline(metrics, line)) {
        if (line.empty()) continue;
        ++lines;
        EXPECT_TRUE(JsonValidator(line).Valid()) << line;
      }
      EXPECT_GE(lines, 1);
    }
  }
  EXPECT_FALSE(obs::Enabled());
}

}  // namespace
}  // namespace cit
