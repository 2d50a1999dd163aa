#include "rl/eiie.h"

#include <cmath>

#include "common/check.h"
#include "rl/features.h"
#include "rl/gaussian_policy.h"

namespace cit::rl {

EiieAgent::EiieAgent(int64_t num_assets, const EiieConfig& config)
    : num_assets_(num_assets), config_(config), rng_(config.seed) {
  conv1_ = std::make_unique<nn::CausalConv1d>(
      1, config_.conv_channels, /*kernel_size=*/3, /*dilation=*/1, rng_);
  conv2_ = std::make_unique<nn::CausalConv1d>(
      config_.conv_channels, config_.conv_channels, /*kernel_size=*/3,
      /*dilation=*/2, rng_);
  head_ = std::make_unique<nn::Linear>(config_.conv_channels + 1, 1, rng_);

  std::vector<ag::Var> params = nn::ParamVars(*conv1_);
  for (auto& v : nn::ParamVars(*conv2_)) params.push_back(v);
  for (auto& v : nn::ParamVars(*head_)) params.push_back(v);
  opt_ = std::make_unique<nn::Adam>(
      std::move(params), static_cast<float>(config_.lr), 0.9f, 0.999f,
      1e-8f, static_cast<float>(config_.weight_decay));
  Reset();
}

void EiieAgent::Reset() {
  held_.assign(num_assets_, 1.0 / static_cast<double>(num_assets_));
}

ag::Var EiieAgent::Scores(const market::PanelView& panel, int64_t day,
                          const ag::Var& prev_weights) const {
  return ScoresFromWindow(NormalizedWindow(panel, day, config_.window),
                          prev_weights);
}

ag::Var EiieAgent::ScoresFromWindow(const Tensor& window,
                                    const ag::Var& prev_weights) const {
  ag::Var h = ag::Relu(conv1_->Forward(ag::Var::Constant(window)));
  h = ag::Relu(conv2_->Forward(h));
  // Final time step of each asset: [m, channels].
  ag::Var last = ag::Reshape(
      ag::Slice(h, /*axis=*/2, config_.window - 1, 1),
      {num_assets_, config_.conv_channels});
  // Append the previously held weight per asset (PVM feature).
  ag::Var prev_col = ag::Reshape(prev_weights, {num_assets_, 1});
  ag::Var features = ag::Concat({last, prev_col}, /*axis=*/1);
  return ag::Reshape(head_->Forward(features), {num_assets_});
}

std::vector<double> EiieAgent::Train(const market::PanelView& panel,
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
  const float cost = static_cast<float>(config_.transaction_cost);

  for (int64_t step = 0; step < config_.train_steps; ++step) {
    const int64_t start = lo + rng_.UniformInt(hi - lo);
    ag::Var prev = ag::Var::Constant(
        Tensor::Full({num_assets_},
                     1.0f / static_cast<float>(num_assets_)));
    ag::Var loss = ag::Var::Constant(Tensor::Scalar(0.0f));
    double segment_reward = 0.0;
    for (int64_t t = 0; t < config_.segment_len; ++t) {
      const int64_t day = start + t;
      ag::Var w = ag::Softmax(Scores(panel, day, prev));
      Tensor relatives({num_assets_});
      for (int64_t i = 0; i < num_assets_; ++i) {
        relatives[i] =
            static_cast<float>(panel.PriceRelative(day + 1, i));
      }
      ag::Var growth = ag::Sum(ag::Mul(w, ag::Var::Constant(relatives)));
      ag::Var turnover = ag::Sum(ag::Abs(ag::Sub(w, prev)));
      ag::Var log_ret = ag::Sub(ag::Log(growth),
                                ag::MulScalar(turnover, cost));
      loss = ag::Sub(loss, log_ret);
      segment_reward += log_ret.value().Item();
      prev = w;  // differentiable chain through the segment
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

std::vector<double> EiieAgent::DecideWeights(const market::PanelView& panel,
                                             int64_t day) {
  ag::NoGradGuard no_grad;
  Tensor window = NormalizedWindow(panel, day, config_.window);
  Tensor prev({num_assets_});
  for (int64_t i = 0; i < num_assets_; ++i) {
    prev[i] = static_cast<float>(held_[i]);
  }
  Tensor scores = decide_plan_.Run({&window, &prev}, [&] {
    return ScoresFromWindow(window, ag::Var::Constant(prev));
  });
  std::vector<double> weights = SoftmaxWeights(scores);
  held_ = weights;
  return weights;
}

}  // namespace cit::rl
