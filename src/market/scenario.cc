#include "market/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/check.h"

namespace cit::market {

namespace {

// Typed parameter reader over ScenarioSpec::params that rejects unknown
// keys: a typo'd parameter silently doing nothing is the worst failure
// mode a stress-test config can have.
class ParamReader {
 public:
  explicit ParamReader(const ScenarioSpec& spec) : spec_(spec) {}

  bool Has(const std::string& key) {
    consumed_.push_back(key);
    return spec_.params.count(key) != 0;
  }

  double Get(const std::string& key, double default_value) {
    consumed_.push_back(key);
    auto it = spec_.params.find(key);
    return it == spec_.params.end() ? default_value : it->second;
  }

  Status VerifyConsumed() const {
    for (const auto& [key, value] : spec_.params) {
      (void)value;
      if (std::find(consumed_.begin(), consumed_.end(), key) ==
          consumed_.end()) {
        return Status::InvalidArgument("scenario '" + spec_.name +
                                       "': unknown parameter '" + key + "'");
      }
    }
    return Status::OK();
  }

 private:
  const ScenarioSpec& spec_;
  std::vector<std::string> consumed_;
};

// Anchor-day resolution shared by the presets: an absolute `day` wins;
// otherwise `test_offset` days into the test split (so one stack string
// works across panel sizes).
int64_t ResolveDay(const ScenarioTransform::Input& input, bool has_day,
                   double day, double test_offset) {
  int64_t resolved = has_day
                         ? static_cast<int64_t>(day)
                         : input.train_end() +
                               static_cast<int64_t>(test_offset);
  return std::clamp<int64_t>(resolved, 0, input.num_days() - 1);
}

// --- flash_crash -----------------------------------------------------------
// A slide of total log-depth `depth` over `ramp_days` on the first
// round(assets_frac * m) assets, then (optionally) a linear recovery over
// `recover_days`. recover_days=0 means the crash never retraces — the
// post-jump continuation regime that breaks naive mean reversion.
class FlashCrashTransform : public ScenarioTransform {
 public:
  FlashCrashTransform(bool has_day, double day, double test_offset,
                      double depth, double ramp_days, double recover_days,
                      double assets_frac)
      : has_day_(has_day),
        day_(day),
        test_offset_(test_offset),
        depth_(depth),
        ramp_days_(std::max(1.0, ramp_days)),
        recover_days_(recover_days),
        assets_frac_(assets_frac) {}

  const std::string& name() const override {
    static const std::string kName = "flash_crash";
    return kName;
  }

  void Apply(const Input& input, int64_t day, double* row) const override {
    const int64_t crash_day = ResolveDay(input, has_day_, day_, test_offset_);
    if (day < crash_day) return;
    const double slide = std::min(
        1.0, static_cast<double>(day - crash_day + 1) / ramp_days_);
    double depth_now = depth_ * slide;
    if (slide >= 1.0 && recover_days_ > 0.0) {
      const int64_t bottom =
          crash_day + static_cast<int64_t>(ramp_days_) - 1;
      const double rec = std::min(
          1.0, static_cast<double>(day - bottom) / recover_days_);
      depth_now = depth_ * (1.0 - rec);
    }
    if (depth_now <= 0.0) return;
    const double factor = 1.0 - depth_now;
    const int64_t m = input.num_assets();
    const int64_t affected = std::clamp<int64_t>(
        static_cast<int64_t>(std::lround(assets_frac_ * m)), 1, m);
    for (int64_t i = 0; i < affected; ++i) row[i] *= factor;
  }

 private:
  bool has_day_;
  double day_, test_offset_, depth_, ramp_days_, recover_days_, assets_frac_;
};

// --- correlation_breakdown -------------------------------------------------
// Inside the window, each asset's cumulative return from the start day is
// blended toward the cross-sectional (equal-weight, geometric) market
// return:  p'_i(t) = p_i(s) * G(t)^c * (p_i(t)/p_i(s))^(1-c).
// c=1 collapses every asset onto the market path — diversification and
// cross-sectional bets stop paying.
class CorrelationBreakdownTransform : public ScenarioTransform {
 public:
  CorrelationBreakdownTransform(bool has_day, double day, double test_offset,
                                double length, double compress)
      : has_day_(has_day),
        day_(day),
        test_offset_(test_offset),
        length_(length),
        compress_(compress) {}

  const std::string& name() const override {
    static const std::string kName = "correlation_breakdown";
    return kName;
  }

  void Apply(const Input& input, int64_t day, double* row) const override {
    const int64_t start = ResolveDay(input, has_day_, day_, test_offset_);
    if (day <= start) return;
    if (length_ > 0.0 && day >= start + static_cast<int64_t>(length_)) {
      return;
    }
    const int64_t m = input.num_assets();
    // Geometric-mean market growth since the start day, over assets with
    // valid quotes at both endpoints.
    double log_sum = 0.0;
    int64_t valid = 0;
    for (int64_t i = 0; i < m; ++i) {
      const double anchor = input.Close(start, i);
      if (!(anchor > 0.0) || !(row[i] > 0.0)) continue;
      log_sum += std::log(row[i] / anchor);
      ++valid;
    }
    if (valid == 0) return;
    const double log_g = log_sum / static_cast<double>(valid);
    for (int64_t i = 0; i < m; ++i) {
      const double anchor = input.Close(start, i);
      if (!(anchor > 0.0) || !(row[i] > 0.0)) continue;
      const double log_rel = std::log(row[i] / anchor);
      row[i] = anchor * std::exp(compress_ * log_g +
                                 (1.0 - compress_) * log_rel);
    }
  }

 private:
  bool has_day_;
  double day_, test_offset_, length_, compress_;
};

// --- liquidity_hole --------------------------------------------------------
// Widens the proportional transaction cost by `cost_mult` inside the
// window; prices are untouched, so agents that keep still sail through
// and agents that churn bleed.
class LiquidityHoleTransform : public ScenarioTransform {
 public:
  LiquidityHoleTransform(bool has_day, double day, double test_offset,
                         double length, double cost_mult)
      : has_day_(has_day),
        day_(day),
        test_offset_(test_offset),
        length_(length),
        cost_mult_(cost_mult) {}

  const std::string& name() const override {
    static const std::string kName = "liquidity_hole";
    return kName;
  }

  void Apply(const Input& input, int64_t day, double* row) const override {
    (void)input;
    (void)day;
    (void)row;
  }

  double CostMultiplier(const Input& input, int64_t day) const override {
    const int64_t start = ResolveDay(input, has_day_, day_, test_offset_);
    const int64_t end = length_ > 0.0
                            ? start + static_cast<int64_t>(length_)
                            : input.num_days();
    return day < start || day >= end ? 1.0 : cost_mult_;
  }

 private:
  bool has_day_;
  double day_, test_offset_, length_, cost_mult_;
};

// --- halt ------------------------------------------------------------------
// Freezes `assets` consecutive assets starting at `offset` to their last
// pre-halt quote for `length` days (length=0: delisted to the end). With
// zero=1 the quotes are zeroed instead — the pathological feed the
// halted-relative semantics (HaltAwareRelative) must absorb.
class HaltTransform : public ScenarioTransform {
 public:
  HaltTransform(bool has_day, double day, double test_offset, double length,
                double assets, double offset, double zero)
      : has_day_(has_day),
        day_(day),
        test_offset_(test_offset),
        length_(length),
        assets_(assets),
        offset_(offset),
        zero_(zero != 0.0) {}

  const std::string& name() const override {
    static const std::string kName = "halt";
    return kName;
  }

  void Apply(const Input& input, int64_t day, double* row) const override {
    int64_t start = ResolveDay(input, has_day_, day_, test_offset_);
    // A stale quote needs a pre-halt day to freeze at.
    if (start < 1) start = 1;
    if (day < start) return;
    if (length_ > 0.0 && day >= start + static_cast<int64_t>(length_)) {
      return;
    }
    const int64_t m = input.num_assets();
    const int64_t first =
        std::clamp<int64_t>(static_cast<int64_t>(offset_), 0, m - 1);
    const int64_t count = std::clamp<int64_t>(
        static_cast<int64_t>(assets_), 1, m - first);
    for (int64_t i = first; i < first + count; ++i) {
      row[i] = zero_ ? 0.0 : input.Close(start - 1, i);
    }
  }

 private:
  bool has_day_;
  double day_, test_offset_, length_, assets_, offset_;
  bool zero_;
};

// --- regime_flip -----------------------------------------------------------
// Reflects each asset's post-flip cumulative return around the flip day:
// p'_i(t) = p_i(D)^2 / p_i(t). Past winners keep "momentum" into the flip
// and then give it all back — momentum becomes reversal mid-test.
class RegimeFlipTransform : public ScenarioTransform {
 public:
  RegimeFlipTransform(bool has_day, double day, bool has_offset,
                      double test_offset)
      : has_day_(has_day),
        day_(day),
        has_offset_(has_offset),
        test_offset_(test_offset) {}

  const std::string& name() const override {
    static const std::string kName = "regime_flip";
    return kName;
  }

  void Apply(const Input& input, int64_t day, double* row) const override {
    // Default: flip halfway through the test split ("mid-test").
    const double default_offset =
        has_offset_
            ? test_offset_
            : static_cast<double>(
                  (input.num_days() - input.train_end()) / 2);
    const int64_t flip =
        ResolveDay(input, has_day_, day_, default_offset);
    if (day <= flip) return;
    for (int64_t i = 0; i < input.num_assets(); ++i) {
      const double pivot = input.Close(flip, i);
      if (!(pivot > 0.0) || !(row[i] > 0.0)) continue;
      row[i] = pivot * pivot / row[i];
    }
  }

 private:
  bool has_day_;
  double day_;
  bool has_offset_;
  double test_offset_;
};

// --- presets ---------------------------------------------------------------

Result<std::unique_ptr<ScenarioTransform>> MakeFlashCrash(
    const ScenarioSpec& spec) {
  ParamReader p(spec);
  const bool has_day = p.Has("day");
  const double day = p.Get("day", -1.0);
  const double test_offset = p.Get("test_offset", 10.0);
  const double depth = p.Get("depth", 0.3);
  const double ramp_days = p.Get("ramp_days", 1.0);
  const double recover_days = p.Get("recover_days", 0.0);
  const double assets_frac = p.Get("assets_frac", 0.5);
  if (const Status s = p.VerifyConsumed(); !s.ok()) return s;
  if (depth <= 0.0 || depth >= 1.0) {
    return Status::InvalidArgument("flash_crash: depth must be in (0, 1)");
  }
  if (assets_frac <= 0.0 || assets_frac > 1.0) {
    return Status::InvalidArgument(
        "flash_crash: assets_frac must be in (0, 1]");
  }
  return std::unique_ptr<ScenarioTransform>(
      new FlashCrashTransform(has_day, day, test_offset, depth, ramp_days,
                              recover_days, assets_frac));
}

Result<std::unique_ptr<ScenarioTransform>> MakeCorrelationBreakdown(
    const ScenarioSpec& spec) {
  ParamReader p(spec);
  const bool has_day = p.Has("day");
  const double day = p.Get("day", -1.0);
  const double test_offset = p.Get("test_offset", 0.0);
  const double length = p.Get("length", 0.0);
  const double compress = p.Get("compress", 0.9);
  if (const Status s = p.VerifyConsumed(); !s.ok()) return s;
  if (compress < 0.0 || compress > 1.0) {
    return Status::InvalidArgument(
        "correlation_breakdown: compress must be in [0, 1]");
  }
  return std::unique_ptr<ScenarioTransform>(new CorrelationBreakdownTransform(
      has_day, day, test_offset, length, compress));
}

Result<std::unique_ptr<ScenarioTransform>> MakeLiquidityHole(
    const ScenarioSpec& spec) {
  ParamReader p(spec);
  const bool has_day = p.Has("day");
  const double day = p.Get("day", -1.0);
  const double test_offset = p.Get("test_offset", 10.0);
  const double length = p.Get("length", 40.0);
  const double cost_mult = p.Get("cost_mult", 8.0);
  if (const Status s = p.VerifyConsumed(); !s.ok()) return s;
  if (cost_mult < 1.0) {
    return Status::InvalidArgument(
        "liquidity_hole: cost_mult must be >= 1");
  }
  return std::unique_ptr<ScenarioTransform>(new LiquidityHoleTransform(
      has_day, day, test_offset, length, cost_mult));
}

Result<std::unique_ptr<ScenarioTransform>> MakeHalt(const ScenarioSpec& spec) {
  ParamReader p(spec);
  const bool has_day = p.Has("day");
  const double day = p.Get("day", -1.0);
  const double test_offset = p.Get("test_offset", 10.0);
  const double length = p.Get("length", 30.0);
  const double assets = p.Get("assets", 1.0);
  const double offset = p.Get("offset", 0.0);
  const double zero = p.Get("zero", 0.0);
  if (const Status s = p.VerifyConsumed(); !s.ok()) return s;
  if (assets < 1.0) {
    return Status::InvalidArgument("halt: assets must be >= 1");
  }
  return std::unique_ptr<ScenarioTransform>(new HaltTransform(
      has_day, day, test_offset, length, assets, offset, zero));
}

Result<std::unique_ptr<ScenarioTransform>> MakeRegimeFlip(
    const ScenarioSpec& spec) {
  ParamReader p(spec);
  const bool has_day = p.Has("day");
  const double day = p.Get("day", -1.0);
  const bool has_offset = p.Has("test_offset");
  const double test_offset = p.Get("test_offset", 0.0);
  if (const Status s = p.VerifyConsumed(); !s.ok()) return s;
  return std::unique_ptr<ScenarioTransform>(
      new RegimeFlipTransform(has_day, day, has_offset, test_offset));
}

struct Preset {
  const char* name;
  Result<std::unique_ptr<ScenarioTransform>> (*make)(const ScenarioSpec&);
};

// Sorted by name.
constexpr Preset kPresets[] = {
    {"correlation_breakdown", MakeCorrelationBreakdown},
    {"flash_crash", MakeFlashCrash},
    {"halt", MakeHalt},
    {"liquidity_hole", MakeLiquidityHole},
    {"regime_flip", MakeRegimeFlip},
};

// The fewest significant digits, from 6 up to 17, that parse back to
// `value`; 17 always does.
std::string FormatParam(double value) {
  char buf[32];
  for (int digits = 6; digits <= 17; ++digits) {
    std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

}  // namespace

std::vector<std::string> RegisteredScenarioNames() {
  std::vector<std::string> names;
  for (const Preset& preset : kPresets) names.push_back(preset.name);
  return names;
}

Result<std::unique_ptr<ScenarioTransform>> MakeScenarioTransform(
    const ScenarioSpec& spec) {
  for (const Preset& preset : kPresets) {
    if (spec.name == preset.name) return preset.make(spec);
  }
  return Status::NotFound("unknown scenario preset: '" + spec.name + "'");
}

Result<std::vector<ScenarioSpec>> ParseScenarioStack(
    const std::string& text) {
  std::vector<ScenarioSpec> stack;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t bar = text.find('|', pos);
    if (bar == std::string::npos) bar = text.size();
    const std::string item = text.substr(pos, bar - pos);
    pos = bar + 1;
    if (item.empty()) {
      if (text.empty()) break;
      return Status::InvalidArgument("empty scenario in stack: '" + text +
                                     "'");
    }
    ScenarioSpec spec;
    const size_t colon = item.find(':');
    spec.name = item.substr(0, colon);
    if (spec.name.empty()) {
      return Status::InvalidArgument("scenario with empty name in stack");
    }
    if (colon != std::string::npos) {
      const std::string params = item.substr(colon + 1);
      size_t ppos = 0;
      while (ppos <= params.size()) {
        size_t comma = params.find(',', ppos);
        if (comma == std::string::npos) comma = params.size();
        const std::string pair = params.substr(ppos, comma - ppos);
        ppos = comma + 1;
        if (pair.empty()) {
          return Status::InvalidArgument("empty parameter in scenario '" +
                                         spec.name + "'");
        }
        const size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0) {
          return Status::InvalidArgument("malformed parameter '" + pair +
                                         "' in scenario '" + spec.name +
                                         "' (want key=value)");
        }
        const std::string key = pair.substr(0, eq);
        const std::string value = pair.substr(eq + 1);
        char* end = nullptr;
        const double v = std::strtod(value.c_str(), &end);
        if (value.empty() || end != value.c_str() + value.size() ||
            !std::isfinite(v)) {
          return Status::InvalidArgument("non-numeric value '" + value +
                                         "' for parameter '" + key +
                                         "' in scenario '" + spec.name + "'");
        }
        spec.params[key] = v;
        if (comma == params.size()) break;
      }
    }
    stack.push_back(std::move(spec));
    if (bar == text.size()) break;
  }
  return stack;
}

std::string FormatScenarioStack(const std::vector<ScenarioSpec>& stack) {
  std::string out;
  for (size_t i = 0; i < stack.size(); ++i) {
    if (i > 0) out += "|";
    out += stack[i].name;
    bool first = true;
    for (const auto& [key, value] : stack[i].params) {
      out += first ? ":" : ",";
      first = false;
      out += key + "=" + FormatParam(value);
    }
  }
  return out;
}

// --- ScenarioSource --------------------------------------------------------

namespace {

// One evaluated level of a stack as a transform's Input.
class LevelInput : public ScenarioTransform::Input {
 public:
  LevelInput(const PanelMeta& meta, const double* closes)
      : meta_(meta), closes_(closes) {}

  double Close(int64_t day, int64_t asset) const override {
    CIT_CHECK(day >= 0 && day < meta_.num_days);
    CIT_CHECK(asset >= 0 && asset < meta_.num_assets);
    return closes_[day * meta_.num_assets + asset];
  }
  int64_t num_days() const override { return meta_.num_days; }
  int64_t num_assets() const override { return meta_.num_assets; }
  int64_t train_end() const override { return meta_.train_end; }

 private:
  const PanelMeta& meta_;
  const double* closes_;
};

}  // namespace

ScenarioSource::ScenarioSource(
    const PanelSource* base,
    std::vector<std::unique_ptr<ScenarioTransform>> stack) {
  CIT_CHECK(base != nullptr);
  meta_ = base->meta();
  for (const auto& t : stack) meta_.name += "+" + t->name();
  const int64_t days = meta_.num_days;
  const int64_t m = meta_.num_assets;

  // Level k + 1 starts as a copy of level k and transform k rewrites it
  // row by row, reading level k: level 0 is the base array itself, and
  // from level 1 on `input_level` holds a copy of the previous level.
  const double* base_closes = base->closes();
  owned_closes_.assign(base_closes, base_closes + days * m);
  std::vector<double> cost(static_cast<size_t>(days));
  for (int64_t day = 0; day < days; ++day) {
    cost[static_cast<size_t>(day)] = base->CostMultiplier(day);
  }
  std::vector<double> input_level;
  for (size_t k = 0; k < stack.size(); ++k) {
    if (k > 0) input_level = owned_closes_;
    const LevelInput input(meta_,
                           k == 0 ? base_closes : input_level.data());
    for (int64_t day = 0; day < days; ++day) {
      stack[k]->Apply(input, day, owned_closes_.data() + day * m);
      cost[static_cast<size_t>(day)] *= stack[k]->CostMultiplier(input, day);
    }
  }
  closes_ = owned_closes_.data();
  for (const double c : cost) {
    if (c != 1.0) {
      cost_mult_ = std::move(cost);
      break;
    }
  }
}

Result<std::unique_ptr<ScenarioSource>> ScenarioSource::Make(
    const PanelSource* base, const std::vector<ScenarioSpec>& stack) {
  std::vector<std::unique_ptr<ScenarioTransform>> transforms;
  transforms.reserve(stack.size());
  for (const ScenarioSpec& spec : stack) {
    auto made = MakeScenarioTransform(spec);
    if (!made.ok()) return made.status();
    transforms.push_back(std::move(made).value());
  }
  return std::make_unique<ScenarioSource>(base, std::move(transforms));
}

}  // namespace cit::market
