// sweep — cross-scenario robustness sweep over the OLPS baselines
// (DESIGN.md §11). Fans (scenario × agent × seed) across the thread pool
// and writes a cit.sweep.v1 JSON report; the report is bitwise identical
// for any CIT_NUM_THREADS.
//
// Build & run:
//   cmake --build build
//   ./build/examples/sweep --out /tmp/sweep.json
//   ./build/examples/sweep --scenarios 'baseline;flash_crash:depth=0.4'
//   ./build/examples/sweep --agents OLMAR,CRP,Market --seeds 7,8 --out -
//
// Scenario syntax: ';'-separated stacks, each stack a '|'-separated list
// of presets "name:key=value,key=value" ("baseline" or "" = untouched
// panel). Presets: flash_crash, correlation_breakdown, liquidity_hole,
// halt, regime_flip (parameter table in README.md).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "env/sweep.h"
#include "market/simulator.h"
#include "market/source.h"
#include "olps/strategies.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --scenarios LIST  ';'-separated scenario stacks (default: baseline"
      " + one preset each)\n"
      "  --agents LIST     ','-separated agent names (default: OLMAR,CRP,"
      "BestStock,Market)\n"
      "                    known: OLMAR,CRP,EG,PAMR,RMR,BestStock,Market\n"
      "  --seeds LIST      ','-separated market seeds (default: 7)\n"
      "  --assets N        simulated assets (default 8)\n"
      "  --train-days N    training days (default 300)\n"
      "  --test-days N     test days (default 120)\n"
      "  --window N        decision window (default 16)\n"
      "  --out PATH        report path, '-' = stdout (default -)\n",
      argv0);
}

std::vector<std::string> SplitList(const std::string& text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::unique_ptr<cit::env::TradingAgent> MakeAgent(const std::string& name) {
  using namespace cit::olps;
  if (name == "OLMAR") return std::make_unique<Olmar>();
  if (name == "CRP") return std::make_unique<Crp>();
  if (name == "EG") return std::make_unique<Eg>();
  if (name == "PAMR") return std::make_unique<Pamr>();
  if (name == "RMR") return std::make_unique<Rmr>();
  if (name == "BestStock") return std::make_unique<BestStock>();
  if (name == "Market") return std::make_unique<BuyAndHold>();
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cit;

  std::string scenarios_text =
      "baseline;flash_crash;correlation_breakdown;liquidity_hole;halt;"
      "regime_flip";
  std::string agents_text = "OLMAR,CRP,BestStock,Market";
  std::string seeds_text = "7";
  std::string out_path = "-";
  int64_t assets = 8, train_days = 300, test_days = 120, window = 16;

  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--scenarios") == 0) {
      scenarios_text = next();
    } else if (std::strcmp(argv[i], "--agents") == 0) {
      agents_text = next();
    } else if (std::strcmp(argv[i], "--seeds") == 0) {
      seeds_text = next();
    } else if (std::strcmp(argv[i], "--assets") == 0) {
      assets = std::atoll(next());
    } else if (std::strcmp(argv[i], "--train-days") == 0) {
      train_days = std::atoll(next());
    } else if (std::strcmp(argv[i], "--test-days") == 0) {
      test_days = std::atoll(next());
    } else if (std::strcmp(argv[i], "--window") == 0) {
      window = std::atoll(next());
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next();
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  std::vector<std::string> stacks;
  for (std::string& s : SplitList(scenarios_text, ';')) {
    stacks.push_back(s == "baseline" ? "" : s);
  }
  std::vector<env::SweepAgentSpec> agents;
  for (const std::string& name : SplitList(agents_text, ',')) {
    if (MakeAgent(name) == nullptr) {
      std::fprintf(stderr, "unknown agent '%s'\n", name.c_str());
      return 2;
    }
    agents.push_back({name, [name](uint64_t) { return MakeAgent(name); }});
  }
  env::SweepConfig config;
  config.window = window;
  config.seeds.clear();
  for (const std::string& s : SplitList(seeds_text, ',')) {
    config.seeds.push_back(
        static_cast<uint64_t>(std::strtoull(s.c_str(), nullptr, 10)));
  }
  if (config.seeds.empty()) config.seeds.push_back(7);

  // All cells share one simulated base market (the first seed); the seed
  // dimension feeds the agent factories (a no-op for the deterministic
  // OLPS agents, but the report still carries one cell per seed).
  market::MarketConfig cfg;
  cfg.name = "sweep-demo";
  cfg.num_assets = assets;
  cfg.train_days = train_days;
  cfg.test_days = test_days;
  cfg.seed = config.seeds.front();
  market::InMemorySource base(market::SimulateMarket(cfg));

  auto report = env::RunSweep(&base, stacks, agents, config);
  if (!report.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 report.status().message().c_str());
    return 1;
  }
  const std::string json = std::move(report).value().ToJson();

  if (out_path == "-") {
    std::fputs(json.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return 0;
}
