// Parameterized property sweeps over module invariants (TEST_P suites).
#include <cmath>

#include <gtest/gtest.h>

#include "env/metrics.h"
#include "env/portfolio_env.h"
#include "market/simulator.h"
#include "math/autograd.h"
#include "math/rng.h"
#include "olps/simplex.h"
#include "rl/gaussian_policy.h"
#include "rl/returns.h"
#include "signal/wavelet.h"

namespace cit {
namespace {

// ---- DWT: perfect reconstruction (band-sum identity) for every length.
class DwtLengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(DwtLengthSweep, ReconstructionAndBandSum) {
  const int n = GetParam();
  math::Rng rng(n);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.Normal();
  // Four bands are a three-level decomposition; their sum is its inverse.
  for (int bands = 2; bands <= 4; ++bands) {
    const auto split = signal::SplitHorizonBands(x, bands);
    for (size_t i = 0; i < x.size(); ++i) {
      double total = 0.0;
      for (const auto& b : split) total += b[i];
      EXPECT_NEAR(total, x[i], 1e-9) << "len=" << n << " bands=" << bands;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, DwtLengthSweep,
                         ::testing::Values(2, 3, 5, 8, 11, 16, 24, 33, 48,
                                           64, 100));

// ---- Env: wealth accounting identity across random trading sequences.
class EnvAccountingSweep : public ::testing::TestWithParam<int> {};

TEST_P(EnvAccountingSweep, WealthEqualsProductOfNetReturns) {
  market::MarketConfig cfg;
  cfg.num_assets = 4;
  cfg.train_days = 80;
  cfg.test_days = 40;
  cfg.seed = 100 + GetParam();
  auto panel = market::SimulateMarket(cfg);
  env::EnvConfig env_cfg;
  env_cfg.window = 6;
  env_cfg.transaction_cost = 0.002;
  env::PortfolioEnv env(panel, env_cfg);
  math::Rng rng(GetParam());
  double product = 1.0;
  while (!env.done()) {
    const env::StepResult r = env.Step(rng.Dirichlet(4, 0.7));
    product *= std::exp(r.reward);
    // Net return decomposes into gross growth times cost factor.
    EXPECT_NEAR(std::exp(r.reward), r.portfolio_return * (1.0 - r.cost),
                1e-9);
  }
  EXPECT_NEAR(env.wealth(), product, 1e-9);
  // Held weights always remain a simplex point.
  EXPECT_TRUE(env::IsValidPortfolio(env.previous_weights(), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnvAccountingSweep, ::testing::Range(0, 8));

// ---- Simplex projection feasibility across dimensions.
class SimplexDimSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimplexDimSweep, ProjectionFeasibleAndIdempotent) {
  const int dim = GetParam();
  math::Rng rng(dim * 7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> y(dim);
    for (auto& v : y) v = rng.Normal(0.0, 2.0);
    const auto p = olps::ProjectToSimplex(y);
    double total = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    // Projecting a simplex point is the identity.
    const auto p2 = olps::ProjectToSimplex(p);
    for (int i = 0; i < dim; ++i) EXPECT_NEAR(p2[i], p[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, SimplexDimSweep,
                         ::testing::Values(1, 2, 3, 5, 10, 40, 100));

// ---- Softmax: simplex output and shift invariance for many sizes.
class SoftmaxSweep : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxSweep, SimplexAndShiftInvariance) {
  const int n = GetParam();
  math::Rng rng(n * 3 + 1);
  math::Tensor raw = math::Tensor::Uniform({n}, rng, -4.0f, 4.0f);
  const auto w = rl::SoftmaxWeights(raw);
  double total = 0.0;
  for (double v : w) {
    EXPECT_GT(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  math::Tensor shifted = raw;
  for (int i = 0; i < n; ++i) shifted[i] += 17.5f;
  const auto w2 = rl::SoftmaxWeights(shifted);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(w2[i], w[i], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SoftmaxSweep,
                         ::testing::Values(1, 2, 4, 9, 20, 45, 80));

// ---- Lambda returns: constant-reward closed form for (gamma, lambda).
class LambdaReturnSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(LambdaReturnSweep, ConstantRewardClosedForm) {
  const double gamma = std::get<0>(GetParam());
  const double lambda = std::get<1>(GetParam());
  // With r == c and V == v for all states, each n-step return is
  // G^(n) = c (1-gamma^n)/(1-gamma) + gamma^n v; the lambda mixture must
  // stay inside [min_n G, max_n G].
  const int len = 6, n_max = 4;
  const double c = 0.5, v = 2.0;
  std::vector<double> rewards(len, c);
  std::vector<double> values(len + 1, v);
  const auto y = rl::LambdaReturns(rewards, values, gamma, lambda, n_max);
  double g_min = 1e18, g_max = -1e18;
  for (int n = 1; n <= n_max; ++n) {
    const double g =
        c * (1.0 - std::pow(gamma, n)) / (1.0 - gamma) +
        std::pow(gamma, n) * v;
    g_min = std::min(g_min, g);
    g_max = std::max(g_max, g);
  }
  // Interior targets (far from trajectory end) obey the bound exactly.
  EXPECT_GE(y[0], g_min - 1e-9);
  EXPECT_LE(y[0], g_max + 1e-9);
  EXPECT_GE(y[1], g_min - 1e-9);
  EXPECT_LE(y[1], g_max + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    GammaLambda, LambdaReturnSweep,
    ::testing::Combine(::testing::Values(0.9, 0.99),
                       ::testing::Values(0.0, 0.5, 0.9, 1.0)));

// ---- Metrics invariants over random wealth curves.
class MetricsSweep : public ::testing::TestWithParam<int> {};

TEST_P(MetricsSweep, DrawdownBoundsAndScaleInvariance) {
  math::Rng rng(GetParam() + 41);
  std::vector<double> wealth = {1.0};
  for (int t = 0; t < 120; ++t) {
    wealth.push_back(wealth.back() *
                     std::exp(rng.Normal(0.0005, 0.015)));
  }
  const auto m = env::ComputeMetrics(wealth);
  EXPECT_GE(m.max_drawdown, 0.0);
  EXPECT_LE(m.max_drawdown, 1.0);
  // Metrics are invariant to rescaling the wealth curve.
  std::vector<double> scaled = wealth;
  for (double& v : scaled) v *= 37.0;
  const auto ms = env::ComputeMetrics(scaled);
  EXPECT_NEAR(ms.accumulative_return, m.accumulative_return, 1e-9);
  EXPECT_NEAR(ms.sharpe_ratio, m.sharpe_ratio, 1e-9);
  EXPECT_NEAR(ms.max_drawdown, m.max_drawdown, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsSweep, ::testing::Range(0, 6));

// ---- Autograd: softmax gradient rows sum to zero for any size (the
// softmax Jacobian annihilates constant vectors).
class SoftmaxGradSweep : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxGradSweep, GradientOrthogonalToConstants) {
  const int n = GetParam();
  math::Rng rng(n + 5);
  ag::Var x = ag::Var::Param(math::Tensor::Uniform({n}, rng, -2, 2));
  ag::Var target =
      ag::Var::Constant(math::Tensor::Uniform({n}, rng, 0, 1));
  ag::Sum(ag::Mul(ag::Softmax(x), target)).Backward();
  double total = 0.0;
  for (int i = 0; i < n; ++i) total += x.grad()[i];
  EXPECT_NEAR(total, 0.0, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SoftmaxGradSweep,
                         ::testing::Values(2, 3, 8, 33));

// ---- Gaussian policy: deterministic softmax weights are invariant to the
// log_std, and sampling respects the simplex for many dimensions.
class GaussianPolicySweep : public ::testing::TestWithParam<int> {};

TEST_P(GaussianPolicySweep, SamplesOnSimplex) {
  const int m = GetParam();
  math::Rng rng(m * 11 + 3);
  ag::Var mean =
      ag::Var::Constant(math::Tensor::Uniform({m}, rng, -1, 1));
  ag::Var log_std = ag::Var::Constant(math::Tensor::Full({m}, -0.5f));
  for (int trial = 0; trial < 5; ++trial) {
    const auto a = rl::SampleGaussianSimplex(mean, log_std, &rng);
    EXPECT_TRUE(env::IsValidPortfolio(a.weights, 1e-9));
    EXPECT_TRUE(std::isfinite(a.log_prob.value().Item()));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, GaussianPolicySweep,
                         ::testing::Values(2, 5, 20, 80));

}  // namespace
}  // namespace cit
