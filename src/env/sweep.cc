#include "env/sweep.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"

namespace cit::env {
namespace {

// %.17g round-trips IEEE doubles exactly, so byte-equal reports <=>
// equal results.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double Median(std::vector<double> values) {
  CIT_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

std::string SweepReport::ToJson() const {
  std::string out = "{\n";
  out += "  \"schema\": \"cit.sweep.v1\",\n";
  out += "  \"panel\": \"" + JsonEscape(panel_name) + "\",\n";
  out += "  \"num_days\": " + std::to_string(num_days) + ",\n";
  out += "  \"num_assets\": " + std::to_string(num_assets) + ",\n";
  out += "  \"train_end\": " + std::to_string(train_end) + ",\n";
  out += "  \"scenarios\": [";
  for (size_t i = 0; i < scenarios.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += JsonEscape(scenarios[i]);
    out += '"';
  }
  out += "],\n";
  out += "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& c = cells[i];
    out += "    {\"scenario\": \"" + JsonEscape(c.scenario) + "\", ";
    out += "\"agent\": \"" + JsonEscape(c.agent) + "\", ";
    out += "\"seed\": " + std::to_string(c.seed) + ", ";
    out += "\"ar\": " + FormatDouble(c.metrics.accumulative_return) + ", ";
    out += "\"sharpe\": " + FormatDouble(c.metrics.sharpe_ratio) + ", ";
    out += "\"calmar\": " + FormatDouble(c.metrics.calmar_ratio) + ", ";
    out += "\"max_drawdown\": " + FormatDouble(c.metrics.max_drawdown) +
           ", ";
    out += "\"final_wealth\": " + FormatDouble(c.final_wealth) + ", ";
    out += "\"turnover\": " + FormatDouble(c.turnover) + ", ";
    out += "\"repaired_steps\": " + std::to_string(c.repaired_steps) + "}";
    out += i + 1 < cells.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"summary\": [\n";
  for (size_t i = 0; i < summaries.size(); ++i) {
    const SweepAgentSummary& s = summaries[i];
    out += "    {\"agent\": \"" + JsonEscape(s.agent) + "\", ";
    out += "\"worst_ar\": " + FormatDouble(s.worst_ar) + ", ";
    out += "\"median_ar\": " + FormatDouble(s.median_ar) + ", ";
    out += "\"worst_max_drawdown\": " + FormatDouble(s.worst_max_drawdown) +
           ", ";
    out += "\"median_sharpe\": " + FormatDouble(s.median_sharpe) + "}";
    out += i + 1 < summaries.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

Result<SweepReport> RunSweep(
    const market::PanelSource* base,
    const std::vector<std::string>& scenario_stacks,
    const std::vector<SweepAgentSpec>& agents, const SweepConfig& config) {
  if (base == nullptr) {
    return Status::InvalidArgument("sweep: base source is null");
  }
  if (agents.empty()) {
    return Status::InvalidArgument("sweep: no agents");
  }
  if (scenario_stacks.empty()) {
    return Status::InvalidArgument("sweep: no scenarios");
  }
  if (config.seeds.empty()) {
    return Status::InvalidArgument("sweep: no seeds");
  }
  for (const SweepAgentSpec& spec : agents) {
    if (!spec.factory) {
      return Status::InvalidArgument("sweep: agent '" + spec.name +
                                     "' has no factory");
    }
  }

  // Parse and validate every stack up front so a typo in scenario 7 fails
  // the sweep before scenario 1 burns cycles.
  std::vector<std::vector<market::ScenarioSpec>> stacks;
  std::vector<std::string> labels;
  stacks.reserve(scenario_stacks.size());
  for (const std::string& text : scenario_stacks) {
    auto parsed = market::ParseScenarioStack(text);
    if (!parsed.ok()) return parsed.status();
    std::vector<market::ScenarioSpec> stack = std::move(parsed).value();
    // Instantiate once here to validate parameters; per-cell sources
    // re-instantiate their own copies.
    for (const market::ScenarioSpec& spec : stack) {
      auto t = market::MakeScenarioTransform(spec);
      if (!t.ok()) return t.status();
    }
    labels.push_back(stack.empty() ? "baseline"
                                   : market::FormatScenarioStack(stack));
    stacks.push_back(std::move(stack));
  }

  const int64_t num_scenarios = static_cast<int64_t>(stacks.size());
  const int64_t num_agents = static_cast<int64_t>(agents.size());
  const int64_t num_seeds = static_cast<int64_t>(config.seeds.size());
  const int64_t num_cells = num_scenarios * num_agents * num_seeds;

  SweepReport report;
  report.panel_name = base->meta().name;
  report.num_days = base->meta().num_days;
  report.num_assets = base->meta().num_assets;
  report.train_end = base->meta().train_end;
  report.scenarios = labels;
  report.cells.resize(static_cast<size_t>(num_cells));

  // One index per cell: cells are coarse (a full backtest), so per-claim
  // overhead is noise and small sweeps still spread over the pool. Each
  // cell writes only its own preallocated slot; slot index is a pure
  // function of the cell coordinates, never of scheduling.
  ThreadPool::Global().ParallelFor(0, num_cells, [&](int64_t cell) {
    const int64_t s = cell / (num_agents * num_seeds);
    const int64_t a = (cell / num_seeds) % num_agents;
    const int64_t r = cell % num_seeds;
    const uint64_t seed = config.seeds[static_cast<size_t>(r)];

    // Fresh scenario source per cell: cells share nothing but the
    // immutable base source.
    std::unique_ptr<market::ScenarioSource> scenario;
    market::PanelView view;
    if (stacks[static_cast<size_t>(s)].empty()) {
      view = market::PanelView(base);
    } else {
      auto made = market::ScenarioSource::Make(
          base, stacks[static_cast<size_t>(s)]);
      // Stacks were validated above, so this cannot fail.
      CIT_CHECK_MSG(made.ok(), made.status().message().c_str());
      scenario = std::move(made).value();
      view = market::PanelView(scenario.get());
    }

    std::unique_ptr<TradingAgent> agent =
        agents[static_cast<size_t>(a)].factory(seed);
    CIT_CHECK_MSG(agent != nullptr, "sweep: factory returned null");

    const BacktestResult result = RunTestBacktest(
        *agent, view, config.window, config.transaction_cost);

    SweepCell& out = report.cells[static_cast<size_t>(cell)];
    out.scenario = labels[static_cast<size_t>(s)];
    out.agent = agents[static_cast<size_t>(a)].name;
    out.seed = seed;
    out.metrics = result.metrics;
    out.final_wealth = result.wealth.back();
    out.turnover = result.turnover;
    out.repaired_steps = result.repaired_steps;
  });

  // Serial aggregation in agent order over deterministic cells.
  for (int64_t a = 0; a < num_agents; ++a) {
    std::vector<double> ars, sharpes;
    SweepAgentSummary summary;
    summary.agent = agents[static_cast<size_t>(a)].name;
    bool first = true;
    for (int64_t s = 0; s < num_scenarios; ++s) {
      for (int64_t r = 0; r < num_seeds; ++r) {
        const int64_t cell = (s * num_agents + a) * num_seeds + r;
        const SweepCell& c = report.cells[static_cast<size_t>(cell)];
        ars.push_back(c.metrics.accumulative_return);
        sharpes.push_back(c.metrics.sharpe_ratio);
        if (first || c.metrics.accumulative_return < summary.worst_ar) {
          summary.worst_ar = c.metrics.accumulative_return;
        }
        if (first || c.metrics.max_drawdown > summary.worst_max_drawdown) {
          summary.worst_max_drawdown = c.metrics.max_drawdown;
        }
        first = false;
      }
    }
    summary.median_ar = Median(ars);
    summary.median_sharpe = Median(sharpes);
    report.summaries.push_back(std::move(summary));
  }
  return report;
}

}  // namespace cit::env
