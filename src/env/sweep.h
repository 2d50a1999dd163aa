#ifndef CIT_ENV_SWEEP_H_
#define CIT_ENV_SWEEP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "env/backtest.h"
#include "env/metrics.h"
#include "market/scenario.h"
#include "market/source.h"

namespace cit::env {

// ---------------------------------------------------------------------------
// Cross-scenario robustness sweep (DESIGN.md §11). Fans the cross product
// (scenario stack × agent × seed) over the global ThreadPool, backtesting
// each cell on a fresh ScenarioSource built from one shared base source,
// and aggregates a per-agent robustness report. Cells land in
// preallocated slots indexed by their cross-product position, and every
// cell is fully independent (own agent instance, own scenario source), so
// the report is bitwise identical for any CIT_NUM_THREADS.
// ---------------------------------------------------------------------------

// One agent column of the sweep: a display name plus a factory producing
// a fresh agent for a given seed. The factory is called once per
// (scenario, seed) cell, possibly from several threads at once — it must
// be callable concurrently and must not share mutable state between the
// agents it returns.
struct SweepAgentSpec {
  std::string name;
  std::function<std::unique_ptr<TradingAgent>(uint64_t seed)> factory;
};

struct SweepConfig {
  std::vector<uint64_t> seeds = {0};
  int64_t window = 32;             // RunTestBacktest decision window
  double transaction_cost = 1e-3;  // base proportional cost
};

// Outcome of one (scenario, agent, seed) backtest.
struct SweepCell {
  std::string scenario;  // canonical stack text; "baseline" = no transforms
  std::string agent;
  uint64_t seed = 0;
  PerformanceMetrics metrics;
  double final_wealth = 1.0;
  double turnover = 0.0;
  int64_t repaired_steps = 0;
};

// Per-agent aggregation across every scenario and seed: the robustness
// view (how bad does it get, how does the typical run look).
struct SweepAgentSummary {
  std::string agent;
  double worst_ar = 0.0;        // min accumulative return over cells
  double median_ar = 0.0;
  double worst_max_drawdown = 0.0;  // max MDD over cells
  double median_sharpe = 0.0;
};

struct SweepReport {
  std::string panel_name;
  int64_t num_days = 0;
  int64_t num_assets = 0;
  int64_t train_end = 0;
  std::vector<std::string> scenarios;  // canonical labels, sweep order
  std::vector<SweepCell> cells;        // scenario-major, then agent, seed
  std::vector<SweepAgentSummary> summaries;  // agent order of the spec list

  // Serializes under schema "cit.sweep.v1"; doubles are printed with
  // %.17g, so equal reports produce byte-equal JSON.
  std::string ToJson() const;
};

// Runs the full sweep. `scenario_stacks` are ParseScenarioStack inputs;
// the empty string denotes the untransformed baseline. `base` is borrowed,
// must outlive the call, and is read concurrently (sources are immutable).
// Errors (unknown preset, bad parameter, empty agent list) are reported
// before any backtest runs.
Result<SweepReport> RunSweep(const market::PanelSource* base,
                             const std::vector<std::string>& scenario_stacks,
                             const std::vector<SweepAgentSpec>& agents,
                             const SweepConfig& config);

}  // namespace cit::env

#endif  // CIT_ENV_SWEEP_H_
