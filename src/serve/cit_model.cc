#include "serve/cit_model.h"

#include <memory>
#include <utility>
#include <vector>

#include "core/trader.h"
#include "market/source.h"
#include "nn/checkpoint.h"

namespace cit::serve {

namespace {

class CitServedModel : public ServedModel {
 public:
  CitServedModel(int64_t num_assets, const core::CrossInsightConfig& config)
      : trader_(num_assets, config) {}

  int64_t num_assets() const override { return trader_.num_assets(); }
  // NormalizedWindow/HorizonBandWindows need `window` rows of history to
  // decide at the panel's last day.
  int64_t min_days() const override { return trader_.config().window; }

  std::vector<Result<std::vector<double>>> DecideBatch(
      const std::vector<const market::PricePanel*>& panels) override {
    // Each panel gets a fresh source (and source id) for the call; the
    // views borrow the panels, so nothing is copied. DecideWeightsBatch
    // is stateless by construction (uniform previous actions, feature
    // cache bypassed), so each result is bitwise identical to Reset() +
    // DecideWeights on that panel alone.
    std::vector<market::PanelView> views;
    views.reserve(panels.size());
    for (const market::PricePanel* p : panels) views.emplace_back(*p);
    std::vector<Result<std::vector<double>>> out;
    out.reserve(panels.size());
    for (std::vector<double>& w : trader_.DecideWeightsBatch(views)) {
      out.push_back(std::move(w));
    }
    return out;
  }

  Status LoadWeights(const std::vector<uint8_t>& bytes) override {
    return trader_.LoadModelFromBytes(bytes);
  }

 private:
  core::CrossInsightTrader trader_;
};

}  // namespace

ModelFactory MakeCitModelFactory(int64_t num_assets,
                                 const core::CrossInsightConfig& config,
                                 const std::string& initial_weights_path) {
  // The file is read once, here, so every replica loads the same bytes.
  std::shared_ptr<const std::vector<uint8_t>> weights;
  if (!initial_weights_path.empty()) {
    std::vector<uint8_t> bytes;
    if (!nn::ReadFileBytes(initial_weights_path, &bytes).ok()) {
      return [] { return std::unique_ptr<ServedModel>(); };
    }
    weights = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  }
  return [num_assets, config, weights]() -> std::unique_ptr<ServedModel> {
    auto model = std::make_unique<CitServedModel>(num_assets, config);
    if (weights != nullptr && !model->LoadWeights(*weights).ok()) {
      return nullptr;
    }
    return model;
  };
}

}  // namespace cit::serve
