#ifndef CIT_MARKET_PANEL_H_
#define CIT_MARKET_PANEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cit::market {

// A panel of daily closing prices for `num_assets` assets over `num_days`
// trading days, plus the train/test split boundary. Prices are stored in
// double precision (portfolio accounting is sensitive to compounding error);
// neural-network feature windows are converted to float at extraction time.
class PricePanel {
 public:
  PricePanel() = default;
  PricePanel(int64_t num_days, int64_t num_assets);

  int64_t num_days() const { return num_days_; }
  int64_t num_assets() const { return num_assets_; }

  double Close(int64_t day, int64_t asset) const;
  void SetClose(int64_t day, int64_t asset, double price);

  // Price relative x_t(i) = p_t(i) / p_{t-1}(i); day must be >= 1.
  // Halted-asset semantics: when either endpoint is non-positive or
  // non-finite (zeroed quote, delisted asset), the relative is exactly
  // 1.0 — capital parked in a halted asset neither grows nor shrinks.
  // See HaltAwareRelative in market/source.h.
  double PriceRelative(int64_t day, int64_t asset) const;

  // Equal-weight buy-and-hold index level normalized to 1.0 at day
  // `base_day` — the "market" rows/curves in the paper's evaluation.
  std::vector<double> IndexLevels(int64_t base_day = 0) const;

  // First day of the test period; days [0, train_end) are training data.
  int64_t train_end() const { return train_end_; }
  void set_train_end(int64_t day) { train_end_ = day; }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::vector<std::string>& asset_names() { return asset_names_; }
  const std::vector<std::string>& asset_names() const { return asset_names_; }

  // The full close-price history of one asset (length num_days).
  std::vector<double> AssetSeries(int64_t asset) const;

  // A panel restricted to days [start, end).
  PricePanel SliceDays(int64_t start, int64_t end) const;

  // Raw row-major [num_days, num_assets] close storage; stable while the
  // panel is alive and unmodified. Lets InMemorySource use the panel's
  // storage as its close array without a copy.
  const double* raw_closes() const { return close_.data(); }

 private:
  int64_t num_days_ = 0;
  int64_t num_assets_ = 0;
  int64_t train_end_ = 0;
  std::string name_;
  std::vector<std::string> asset_names_;
  std::vector<double> close_;  // row-major [num_days, num_assets]
};

}  // namespace cit::market

#endif  // CIT_MARKET_PANEL_H_
