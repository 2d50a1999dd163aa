#ifndef CIT_MARKET_SCENARIO_H_
#define CIT_MARKET_SCENARIO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "market/source.h"

namespace cit::market {

// ---------------------------------------------------------------------------
// Named stress scenarios as composable, deterministic panel transforms.
// A ScenarioSource applies a stack of transforms to any PanelSource; each
// transform rewrites one day's close row as a pure function of the
// stack-input data (no RNG), so a stack's output is fixed by its input.
//
// Built-in presets (see README for the parameter table):
//   flash_crash            multi-day slide on a subset of assets, with
//                          optional recovery ramp; no recovery models
//                          post-jump continuation (OLMAR's nemesis)
//   correlation_breakdown  compresses cross-sectional dispersion toward
//                          the equal-weight market's cumulative return —
//                          diversification stops working
//   liquidity_hole         widens the env's proportional transaction cost
//                          by `cost_mult` inside a day window; prices are
//                          untouched
//   halt                   freezes (stale quote) or zeroes a set of
//                          assets' quotes for a window; length=0 delists
//                          to the end of the panel
//   regime_flip            inverts post-flip cumulative returns around
//                          the flip day: winners become losers, momentum
//                          becomes reversal
// ---------------------------------------------------------------------------

// A parsed scenario invocation: preset name + numeric parameters.
struct ScenarioSpec {
  std::string name;
  std::map<std::string, double> params;  // ordered: stable formatting
};

// One transform in a stack. Day-local contract: Apply rewrites the close
// row of `day` in place; on entry `row` holds the stack-input values for
// that day, and `input` reads the stack-input panel at *other* days
// (reference anchors). Implementations must be pure functions of
// (input, day, params) — no RNG, no mutable state — so a stack's output
// depends only on its input panel.
class ScenarioTransform {
 public:
  // Read access to the transform's input level (the base source with all
  // preceding stack transforms applied).
  class Input {
   public:
    virtual ~Input() = default;
    virtual double Close(int64_t day, int64_t asset) const = 0;
    virtual int64_t num_days() const = 0;
    virtual int64_t num_assets() const = 0;
    virtual int64_t train_end() const = 0;
  };

  virtual ~ScenarioTransform() = default;
  virtual const std::string& name() const = 0;
  virtual void Apply(const Input& input, int64_t day, double* row) const = 0;
  // Scales the env's proportional transaction cost at `day` (liquidity
  // stress); multiplicative across the stack.
  virtual double CostMultiplier(const Input& input, int64_t day) const {
    (void)input;
    (void)day;
    return 1.0;
  }
};

// Sorted names of the built-in presets.
std::vector<std::string> RegisteredScenarioNames();

// Instantiates one transform; rejects unknown presets and unknown or
// out-of-range parameters.
Result<std::unique_ptr<ScenarioTransform>> MakeScenarioTransform(
    const ScenarioSpec& spec);

// Parses a transform stack from
//   "name:key=value,key=value|name2|name3:key=value"
// (empty text = empty stack). Values are doubles.
Result<std::vector<ScenarioSpec>> ParseScenarioStack(const std::string& text);

// Canonical text form of a stack, the inverse of ParseScenarioStack: each
// value is printed with the fewest significant digits (6 to 17) that
// parse back to the same double.
std::string FormatScenarioStack(const std::vector<ScenarioSpec>& stack);

// A base source with a transform stack applied, evaluated once in the
// constructor, level by level: transform k reads the panel after
// transforms 0..k-1 and rewrites every day of it. The result is one owned
// close array (plus a cost-multiplier array when some day's multiplier is
// not 1.0); afterwards the source keeps neither `base` nor the
// transforms, so `base` need only outlive the constructor.
class ScenarioSource : public PanelSource {
 public:
  ScenarioSource(const PanelSource* base,
                 std::vector<std::unique_ptr<ScenarioTransform>> stack);

  // Convenience: instantiate + evaluate.
  static Result<std::unique_ptr<ScenarioSource>> Make(
      const PanelSource* base, const std::vector<ScenarioSpec>& stack);

 private:
  std::vector<double> owned_closes_;
};

}  // namespace cit::market

#endif  // CIT_MARKET_SCENARIO_H_
