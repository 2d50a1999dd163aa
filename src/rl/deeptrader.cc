#include "rl/deeptrader.h"

#include <cmath>

#include "common/check.h"
#include "rl/features.h"
#include "rl/gaussian_policy.h"

namespace cit::rl {

DeepTraderAgent::DeepTraderAgent(int64_t num_assets,
                                 const DeepTraderConfig& config)
    : num_assets_(num_assets), config_(config), rng_(config.seed) {
  conv1_ = std::make_unique<nn::CausalConv1d>(
      1, config_.conv_channels, /*kernel_size=*/3, /*dilation=*/1, rng_);
  conv2_ = std::make_unique<nn::CausalConv1d>(
      config_.conv_channels, config_.conv_channels, /*kernel_size=*/3,
      /*dilation=*/2, rng_);
  score_head_ = std::make_unique<nn::Linear>(config_.conv_channels, 1, rng_);
  market_unit_ = std::make_unique<nn::Mlp>(
      std::vector<int64_t>{config_.window, config_.hidden, 1}, rng_);

  std::vector<ag::Var> params = nn::ParamVars(*conv1_);
  for (auto& v : nn::ParamVars(*conv2_)) params.push_back(v);
  for (auto& v : nn::ParamVars(*score_head_)) params.push_back(v);
  for (auto& v : nn::ParamVars(*market_unit_)) params.push_back(v);
  opt_ = std::make_unique<nn::Adam>(
      std::move(params), static_cast<float>(config_.lr), 0.9f, 0.999f,
      1e-8f, static_cast<float>(config_.weight_decay));
  Reset();
}

void DeepTraderAgent::Reset() {
  held_.assign(num_assets_, 1.0 / static_cast<double>(num_assets_));
}

ag::Var DeepTraderAgent::ScoresFromWindow(const Tensor& window) const {
  ag::Var h = ag::Relu(conv1_->Forward(ag::Var::Constant(window)));
  h = ag::Relu(conv2_->Forward(h));
  ag::Var last = ag::Reshape(
      ag::Slice(h, /*axis=*/2, config_.window - 1, 1),
      {num_assets_, config_.conv_channels});
  return ag::Reshape(score_head_->Forward(last), {num_assets_});
}

ag::Var DeepTraderAgent::AssetScores(const market::PanelView& panel,
                                     int64_t day) const {
  return ScoresFromWindow(NormalizedWindow(panel, day, config_.window));
}

Tensor DeepTraderAgent::IndexWindow(const Tensor& window) const {
  Tensor index({config_.window});
  for (int64_t k = 0; k < config_.window; ++k) {
    float acc = 0.0f;
    for (int64_t i = 0; i < num_assets_; ++i) acc += window.At({i, 0, k});
    index[k] = acc / static_cast<float>(num_assets_);
  }
  return index;
}

ag::Var DeepTraderAgent::RhoFromIndex(const Tensor& index) const {
  ag::Var logit = market_unit_->Forward(ag::Var::Constant(index));
  return ag::Sigmoid(logit);  // [1]
}

ag::Var DeepTraderAgent::MarketRho(const market::PanelView& panel,
                                   int64_t day) const {
  // Market feature: the cross-asset average normalized window (a synthetic
  // index window), the stand-in for the paper's market-condition embedding.
  return RhoFromIndex(
      IndexWindow(NormalizedWindow(panel, day, config_.window)));
}

ag::Var DeepTraderAgent::WeightsFromInputs(const Tensor& window,
                                           const Tensor& index) const {
  ag::Var scores = ScoresFromWindow(window);
  ag::Var rho = RhoFromIndex(index);
  // Temperature scaling: w = softmax(scores * (0.25 + 1.75 * rho)).
  // rho -> 1 concentrates on top-scored assets; rho -> 0 diversifies.
  ag::Var gain = ag::AddScalar(ag::MulScalar(rho, 1.75f), 0.25f);
  return ag::Softmax(ag::Mul(scores, gain));
}

ag::Var DeepTraderAgent::Weights(const market::PanelView& panel,
                                 int64_t day) const {
  Tensor window = NormalizedWindow(panel, day, config_.window);
  return WeightsFromInputs(window, IndexWindow(window));
}

double DeepTraderAgent::RiskAppetite(const market::PanelView& panel,
                                     int64_t day) const {
  ag::NoGradGuard no_grad;
  return MarketRho(panel, day).value().Item();
}

std::vector<double> DeepTraderAgent::Train(const market::PanelView& panel,
                                           int64_t curve_points) {
  CIT_CHECK_GT(panel.train_end(),
               config_.window + config_.segment_len + 2);
  const int64_t lo = config_.window;
  const int64_t hi = panel.train_end() - config_.segment_len - 2;
  CIT_CHECK_GT(hi, lo);

  std::vector<double> curve;
  double curve_acc = 0.0;
  int64_t curve_n = 0;
  const int64_t curve_every =
      std::max<int64_t>(1, config_.train_steps / curve_points);

  for (int64_t step = 0; step < config_.train_steps; ++step) {
    const int64_t start = lo + rng_.UniformInt(hi - lo);
    ag::Var loss = ag::Var::Constant(Tensor::Scalar(0.0f));
    double segment_reward = 0.0;
    for (int64_t t = 0; t < config_.segment_len; ++t) {
      const int64_t day = start + t;
      ag::Var w = Weights(panel, day);
      Tensor relatives({num_assets_});
      for (int64_t i = 0; i < num_assets_; ++i) {
        relatives[i] =
            static_cast<float>(panel.PriceRelative(day + 1, i));
      }
      ag::Var growth = ag::Sum(ag::Mul(w, ag::Var::Constant(relatives)));
      ag::Var log_ret = ag::Log(growth);
      // Risk-return balance: penalize squared downside moves, which pushes
      // rho down when the market unit foresees adverse conditions.
      ag::Var downside = ag::Min(log_ret,
                                 ag::Var::Constant(Tensor::Scalar(0.0f)));
      loss = ag::Sub(loss, log_ret);
      loss = ag::Add(loss,
                     ag::MulScalar(ag::Square(downside),
                                   static_cast<float>(config_.risk_coef)));
      segment_reward += log_ret.value().Item();
    }
    loss = ag::MulScalar(loss,
                         1.0f / static_cast<float>(config_.segment_len));
    opt_->ZeroGrad();
    loss.Backward();
    opt_->ClipGradNorm(5.0f);
    opt_->Step();

    curve_acc += config_.reward_scale * segment_reward /
                 static_cast<double>(config_.segment_len);
    ++curve_n;
    if ((step + 1) % curve_every == 0) {
      curve.push_back(curve_acc / static_cast<double>(curve_n));
      curve_acc = 0.0;
      curve_n = 0;
    }
  }
  Reset();
  return curve;
}

std::vector<double> DeepTraderAgent::DecideWeights(
    const market::PanelView& panel, int64_t day) {
  ag::NoGradGuard no_grad;
  Tensor window = NormalizedWindow(panel, day, config_.window);
  Tensor index = IndexWindow(window);
  Tensor w = decide_plan_.Run({&window, &index}, [&] {
    return WeightsFromInputs(window, index);
  });
  std::vector<double> weights(num_assets_);
  for (int64_t i = 0; i < num_assets_; ++i) {
    weights[i] = static_cast<double>(w[i]);
  }
  held_ = weights;
  return env::NormalizeToSimplex(std::move(weights));
}

}  // namespace cit::rl
