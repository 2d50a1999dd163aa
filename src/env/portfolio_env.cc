#include "env/portfolio_env.h"

#include <cmath>

#include "common/check.h"
#include "obs/telemetry.h"

namespace cit::env {

bool IsValidPortfolio(const std::vector<double>& w, double tol) {
  double total = 0.0;
  for (double v : w) {
    if (v < -tol || !std::isfinite(v)) return false;
    total += v;
  }
  return std::fabs(total - 1.0) <= tol;
}

std::vector<double> NormalizeToSimplex(std::vector<double> w) {
  double total = 0.0;
  for (double& v : w) {
    if (!std::isfinite(v) || v < 0.0) v = 0.0;
    total += v;
  }
  // The finite check covers huge entries whose sum overflows to infinity.
  if (total <= 1e-12 || !std::isfinite(total)) {
    const double u = 1.0 / static_cast<double>(w.size());
    for (double& v : w) v = u;
  } else {
    for (double& v : w) v /= total;
  }
  return w;
}

PortfolioEnv::PortfolioEnv(market::PanelView view, EnvConfig config)
    : view_(view), config_(config) {
  CIT_CHECK(view_.valid());
  CIT_CHECK_GE(config_.window, 2);
  start_day_ =
      config_.start_day >= 0 ? config_.start_day : config_.window;
  end_day_ = config_.end_day >= 0 ? config_.end_day : view_.num_days() - 1;
  CIT_CHECK_GE(start_day_, config_.window);
  CIT_CHECK_LT(start_day_, end_day_);
  CIT_CHECK_LE(end_day_, view_.num_days() - 1);
  Reset();
}

void PortfolioEnv::Reset() { ResetAt(start_day_); }

void PortfolioEnv::ResetAt(int64_t day) {
  CIT_CHECK_GE(day, config_.window);
  CIT_CHECK_LT(day, end_day_);
  day_ = day;
  wealth_ = 1.0;
  // The paper initializes portfolios with the average assignment.
  held_.assign(view_.num_assets(),
               1.0 / static_cast<double>(view_.num_assets()));
}

PortfolioEnv::EnvCursor PortfolioEnv::Cursor() const {
  EnvCursor cursor;
  cursor.day = day_;
  cursor.wealth = wealth_;
  cursor.held = held_;
  return cursor;
}

Status PortfolioEnv::RestoreCursor(const EnvCursor& cursor) {
  // day == end_day_ is allowed: that is the done() state.
  if (cursor.day < config_.window || cursor.day > end_day_) {
    return Status::InvalidArgument("env cursor day out of range");
  }
  if (!std::isfinite(cursor.wealth) || cursor.wealth <= 0.0) {
    return Status::InvalidArgument("env cursor wealth must be positive");
  }
  if (static_cast<int64_t>(cursor.held.size()) != view_.num_assets() ||
      !IsValidPortfolio(cursor.held)) {
    return Status::InvalidArgument("env cursor holdings are not a portfolio");
  }
  day_ = cursor.day;
  wealth_ = cursor.wealth;
  held_ = cursor.held;
  return Status::OK();
}

StepResult PortfolioEnv::Step(const std::vector<double>& weights) {
  CIT_OBS_SPAN("env.step");
  CIT_OBS_COUNT("env.steps", 1);
  CIT_CHECK(!done());
  CIT_CHECK_EQ(static_cast<int64_t>(weights.size()), view_.num_assets());
  CIT_CHECK_MSG(IsValidPortfolio(weights), "action must lie on the simplex");

  // Proportional cost on the rebalancing turnover from current (drifted)
  // holdings to the target weights. Liquidity-hole scenarios widen the
  // cost through the view; the guard keeps plain sources bitwise
  // identical to the pre-data-plane arithmetic (no spurious `* 1.0`).
  double turnover = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    turnover += std::fabs(weights[i] - held_[i]);
  }
  double tc = config_.transaction_cost;
  const double cost_mult = view_.CostMultiplier(day_);
  if (cost_mult != 1.0) tc *= cost_mult;
  const double cost_factor = 1.0 - tc * turnover;

  // Gross growth over day_ -> day_+1 under the target weights.
  const int64_t next = day_ + 1;
  double growth = 0.0;
  std::vector<double> drifted(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    const double rel = view_.PriceRelative(next, static_cast<int64_t>(i));
    drifted[i] = weights[i] * rel;
    growth += drifted[i];
  }
  CIT_CHECK_GT(growth, 0.0);
  for (double& v : drifted) v /= growth;

  const double net = growth * cost_factor;
  wealth_ *= net;
  held_ = std::move(drifted);
  day_ = next;

  StepResult result;
  result.portfolio_return = growth;
  result.cost = 1.0 - cost_factor;
  result.turnover = turnover;
  result.reward = std::log(net);
  result.done = done();
  return result;
}

std::vector<double> PortfolioEnv::PriceWindow() const {
  const int64_t z = config_.window;
  const int64_t m = view_.num_assets();
  std::vector<double> out(z * m);
  for (int64_t k = 0; k < z; ++k) {
    const int64_t day = day_ - z + 1 + k;
    for (int64_t i = 0; i < m; ++i) {
      out[k * m + i] = view_.Close(day, i);
    }
  }
  return out;
}

std::vector<double> PortfolioEnv::RelativeWindow() const {
  const int64_t z = config_.window;
  const int64_t m = view_.num_assets();
  std::vector<double> out(z * m);
  for (int64_t k = 0; k < z; ++k) {
    const int64_t day = day_ - z + 1 + k;
    for (int64_t i = 0; i < m; ++i) {
      out[k * m + i] = view_.PriceRelative(day, i);
    }
  }
  return out;
}

}  // namespace cit::env
