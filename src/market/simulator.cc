#include "market/simulator.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/env_config.h"
#include "math/rng.h"

namespace cit::market {
namespace {

using math::Rng;

// Scale knobs per run scale: (assets_fraction, days_fraction).
struct ScaleFactors {
  double assets;
  double days;
};

ScaleFactors FactorsForScale() {
  switch (GetRunScale()) {
    case RunScale::kFast:
      return {0.15, 0.25};
    case RunScale::kDefault:
      return {0.25, 0.45};
    case RunScale::kFull:
      return {1.0, 1.0};
  }
  return {0.25, 0.45};
}

MarketConfig ApplyScale(MarketConfig config) {
  const ScaleFactors f = FactorsForScale();
  config.num_assets = std::max<int64_t>(
      6, static_cast<int64_t>(std::lround(config.num_assets * f.assets)));
  config.train_days = std::max<int64_t>(
      320, static_cast<int64_t>(std::lround(config.train_days * f.days)));
  // Keep the test window long even at reduced scale: short backtests make
  // AR/SR too noisy to compare models (backtesting is cheap anyway).
  const int64_t test_floor = GetRunScale() == RunScale::kFast ? 100 : 220;
  config.test_days = std::max<int64_t>(
      test_floor,
      static_cast<int64_t>(std::lround(config.test_days * f.days)));
  config.forced_bear_tail = std::min(
      config.forced_bear_tail,
      config.test_days / 2);
  if (config.forced_bear_tail > 0) {
    config.forced_bear_tail = std::max<int64_t>(
        40, static_cast<int64_t>(
                std::lround(config.forced_bear_tail * f.days)));
  }
  return config;
}

double HalfLifeToRho(double half_life) {
  return std::exp(-std::log(2.0) / half_life);
}

}  // namespace

MarketConfig UsMarketConfig() {
  MarketConfig c;
  c.name = "US";
  c.num_assets = 80;         // paper: 80 constituents
  c.train_days = 2890;       // 2009-01 .. 2020-06
  c.test_days = 630;         // 2020-07 .. 2022-12
  c.seed = 20090101 + 2 * 7919;  // test index ~+0.10 with bear tail
  c.num_sectors = 8;
  c.forced_bear_tail = 250;  // the 2022 bear market
  return ApplyScale(c);
}

MarketConfig HkMarketConfig() {
  MarketConfig c;
  c.name = "HK";
  c.num_assets = 45;     // paper: 45 constituents
  c.train_days = 2890;   // 2009-01 .. 2020-06
  c.test_days = 250;     // 2020-07 .. 2021-07
  c.seed = 19970701 + 9 * 7919;  // test index ~+0.26
  c.num_sectors = 5;
  c.bull_drift = 3.5e-4;
  c.market_vol = 0.009;
  return ApplyScale(c);
}

MarketConfig ChinaMarketConfig() {
  MarketConfig c;
  c.name = "China";
  c.num_assets = 34;     // paper: 34 constituents
  c.train_days = 2890;   // 2009-01 .. 2020-06
  c.test_days = 250;     // 2020-07 .. 2021-07
  c.seed = 19901219 + 7 * 7919;  // test index ~+0.15
  c.num_sectors = 4;
  c.bull_drift = 4.5e-4;
  c.market_vol = 0.010;
  c.idio_vol = 0.012;
  return ApplyScale(c);
}

namespace {

// The generator as a day-stepper: construction draws the static
// per-asset structure, each StepDay emits one day's closes and advances
// the dynamic state (RNG included).
class MarketSim {
 public:
  explicit MarketSim(const MarketConfig& config);

  // Writes `num_assets` closes for the next day into `out_row` and
  // advances to the day after.
  void StepDay(double* out_row);

 private:
  MarketConfig config_;
  int64_t days_;
  Rng rng_;
  double rho_event_;
  double rho_sector_;
  std::vector<double> beta_;
  std::vector<int64_t> sector_;
  std::vector<double> comp_long_, comp_mid_, comp_short_;
  std::vector<double> drift_, event_drift_;
  std::vector<double> sector_level_;
  std::vector<double> log_price_;
  bool bull_ = true;
  int64_t t_ = 0;
};

MarketSim::MarketSim(const MarketConfig& config)
    : config_(config),
      days_(config.num_days()),
      rng_(config.seed),
      rho_event_(HalfLifeToRho(config.jump_drift_half_life)),
      rho_sector_(HalfLifeToRho(32.0)) {
  const int64_t m = config_.num_assets;
  CIT_CHECK_GT(days_, 1);
  CIT_CHECK_GT(m, 0);

  // Static per-asset structure.
  beta_.resize(m);
  sector_.resize(m);
  for (int64_t i = 0; i < m; ++i) {
    beta_[i] = config_.market_beta_mean +
               config_.market_beta_spread * (2.0 * rng_.Uniform() - 1.0);
    sector_[i] = i % std::max<int64_t>(1, config_.num_sectors);
  }

  // State: horizon momentum components (AR(1) on returns), per-asset
  // drift, sector factor levels, regime of the market factor.
  comp_long_.assign(m, 0.0);
  comp_mid_.assign(m, 0.0);
  comp_short_.assign(m, 0.0);
  drift_.assign(m, 0.0);
  event_drift_.assign(m, 0.0);
  sector_level_.assign(std::max<int64_t>(1, config_.num_sectors), 0.0);
  log_price_.assign(m, 0.0);
}

void MarketSim::StepDay(double* out_row) {
  CIT_CHECK_LT(t_, days_);
  const int64_t t = t_;
  const int64_t m = config_.num_assets;

  // Regime transition (or forced bear tail).
  if (config_.forced_bear_tail > 0 &&
      t >= days_ - config_.forced_bear_tail) {
    bull_ = false;
  } else {
    const double stay =
        bull_ ? config_.bull_stay_prob : config_.bear_stay_prob;
    if (rng_.Uniform() > stay) bull_ = !bull_;
  }
  const double market_ret =
      (bull_ ? config_.bull_drift : config_.bear_drift) +
      config_.market_vol * rng_.Normal();

  std::vector<double> sector_increment(sector_level_.size());
  for (size_t s = 0; s < sector_level_.size(); ++s) {
    const double prev = sector_level_[s];
    sector_level_[s] =
        rho_sector_ * prev + config_.sector_vol * rng_.Normal();
    sector_increment[s] = sector_level_[s] - prev;
  }

  for (int64_t i = 0; i < m; ++i) {
    // Horizon momentum components: AR(1) on returns, so each band's
    // returns are positively autocorrelated at its own time scale.
    comp_long_[i] =
        config_.long_phi * comp_long_[i] + config_.long_vol * rng_.Normal();
    comp_mid_[i] =
        config_.mid_phi * comp_mid_[i] + config_.mid_vol * rng_.Normal();
    comp_short_[i] = config_.short_phi * comp_short_[i] +
                     config_.short_vol * rng_.Normal();
    drift_[i] = config_.drift_persistence * drift_[i] +
                config_.drift_vol * rng_.Normal();

    // News jumps with continuation: the jump hits immediately and seeds
    // a same-direction drift that decays over jump_drift_half_life days.
    event_drift_[i] *= rho_event_;
    double jump = 0.0;
    if (config_.jump_prob > 0.0 && rng_.Uniform() < config_.jump_prob) {
      jump = config_.jump_vol * rng_.Normal();
      event_drift_[i] += config_.jump_drift_fraction * jump;
    }

    const double ret = jump + event_drift_[i] + drift_[i] +
                       beta_[i] * market_ret +
                       sector_increment[sector_[i]] + comp_long_[i] +
                       comp_mid_[i] + comp_short_[i] +
                       config_.idio_vol * rng_.Normal();
    log_price_[i] += ret;
    out_row[i] = 100.0 * std::exp(log_price_[i]);
  }
  ++t_;
}

}  // namespace

PricePanel SimulateMarket(const MarketConfig& config) {
  const int64_t days = config.num_days();
  const int64_t m = config.num_assets;
  MarketSim sim(config);

  PricePanel panel(days, m);
  panel.set_name(config.name);
  panel.set_train_end(config.train_days);

  std::vector<double> row(m);
  for (int64_t t = 0; t < days; ++t) {
    sim.StepDay(row.data());
    for (int64_t i = 0; i < m; ++i) panel.SetClose(t, i, row[i]);
  }
  return panel;
}

}  // namespace cit::market
