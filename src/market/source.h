#ifndef CIT_MARKET_SOURCE_H_
#define CIT_MARKET_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "market/panel.h"

namespace cit::market {

// ---------------------------------------------------------------------------
// The data-plane abstraction (DESIGN.md §11). A PanelSource is one price
// panel as immutable data; a PanelView gives consumers the exact read API
// of PricePanel (Close / PriceRelative / dims) on top of it. Everything
// downstream of the market layer — envs, backtests, agents, the feature
// cache, serving — reads through PanelView, so an in-memory panel and a
// scenario-transformed stack are interchangeable.
// ---------------------------------------------------------------------------

// Immutable panel-level metadata, fixed for the lifetime of a source.
struct PanelMeta {
  int64_t num_days = 0;
  int64_t num_assets = 0;
  int64_t train_end = 0;  // first test day; days [0, train_end) train
  std::string name;
  std::vector<std::string> asset_names;
};

// Halted/delisted-asset convention for price relatives: when either
// endpoint is missing (non-finite) or non-positive — a halted day, a
// zeroed quote, a delisted asset — capital parked in the asset neither
// grows nor shrinks: the relative is exactly 1.0. For valid prices this is
// the plain ratio; a frozen (stale) quote also yields exactly 1.0 because
// IEEE division guarantees p/p == 1.0 for finite nonzero p.
inline double HaltAwareRelative(double prev, double cur) {
  if (!(prev > 0.0) || !(cur > 0.0) || prev - prev != 0.0 ||
      cur - cur != 0.0) {
    return 1.0;
  }
  return cur / prev;
}

// One logical price panel as plain data, fixed at construction: its
// meta, one row-major [num_days, num_assets] close array, an optional
// per-day cost-multiplier array and a source id. Nothing in a source
// changes after its constructor returns, so any number of threads may
// read it at once.
//
// source_id() is allocated from a process-global counter and never
// recycled, so downstream caches keyed by (source_id, day) can never
// confuse two sources the way address-keyed caches could when a
// short-lived panel's address was reused.
class PanelSource {
 public:
  virtual ~PanelSource() = default;

  PanelSource(const PanelSource&) = delete;
  PanelSource& operator=(const PanelSource&) = delete;

  uint64_t source_id() const { return source_id_; }
  const PanelMeta& meta() const { return meta_; }

  // Row-major [num_days, num_assets] closes.
  const double* closes() const { return closes_; }

  // Scenario hook: scales the env's proportional transaction cost on the
  // step executed at `day` (liquidity-hole stress). 1.0 everywhere for
  // plain data sources.
  double CostMultiplier(int64_t day) const {
    if (cost_mult_.empty()) return 1.0;
    CIT_CHECK(day >= 0 && day < meta_.num_days);
    return cost_mult_[static_cast<size_t>(day)];
  }

  // The whole panel as one chunk, for bench/e2e's scenario-read probe:
  // num_chunks() is 1 for a non-empty panel and FetchChunk(0) returns
  // closes().
  int64_t num_chunks() const { return meta_.num_days > 0 ? 1 : 0; }
  const double* FetchChunk(int64_t index) const {
    CIT_CHECK_EQ(index, 0);
    return closes_;
  }

 protected:
  PanelSource();

  // Set by the derived constructor, never afterwards.
  PanelMeta meta_;
  const double* closes_ = nullptr;  // storage borrowed or derived-owned
  std::vector<double> cost_mult_;   // per day; empty = 1.0 everywhere

 private:
  uint64_t source_id_;
};

// A copyable, immutable window onto a PanelSource with the read API of
// PricePanel: a pointer to the source's close array plus its meta, so
// Close is two range checks and one load. A view holds no mutable state,
// so one view may be shared by any number of threads. The source must
// outlive every view onto it — the same lifetime contract as the
// `const PricePanel*` this type replaced.
class PanelView {
 public:
  PanelView() = default;
  explicit PanelView(const PanelSource* source) : source_(source) {
    CIT_CHECK(source != nullptr);
    meta_ = &source->meta();
    closes_ = source->closes();
  }

  // Implicit adapter: wraps `panel` in a view-owned InMemorySource
  // borrowing the panel's storage, so PanelView-taking APIs accept a
  // PricePanel directly. The panel must outlive the view — the same
  // lifetime contract as the `const PricePanel*` this type replaces.
  // Every conversion allocates a fresh source id, so code that relies on
  // source-keyed caches across calls should build one source up front
  // instead of converting per call.
  PanelView(const PricePanel& panel);  // NOLINT(runtime/explicit)

  bool valid() const { return source_ != nullptr; }
  uint64_t source_id() const { return source_->source_id(); }

  int64_t num_days() const { return meta_->num_days; }
  int64_t num_assets() const { return meta_->num_assets; }
  int64_t train_end() const { return meta_->train_end; }
  const std::string& name() const { return meta_->name; }
  const std::vector<std::string>& asset_names() const {
    return meta_->asset_names;
  }

  double Close(int64_t day, int64_t asset) const {
    CIT_CHECK(day >= 0 && day < meta_->num_days);
    CIT_CHECK(asset >= 0 && asset < meta_->num_assets);
    return closes_[day * meta_->num_assets + asset];
  }

  // The closes of `day`, num_assets() contiguous values. The rows of later
  // days follow at a stride of num_assets() (the source's row-major
  // array), so a window of consecutive days reads through one pointer.
  const double* Row(int64_t day) const {
    CIT_CHECK(day >= 0 && day < meta_->num_days);
    return closes_ + day * meta_->num_assets;
  }

  // Price relative x_t(i) = p_t(i) / p_{t-1}(i) with halted-asset
  // semantics (HaltAwareRelative); day must be >= 1.
  double PriceRelative(int64_t day, int64_t asset) const {
    CIT_CHECK_GE(day, 1);
    return HaltAwareRelative(Close(day - 1, asset), Close(day, asset));
  }

  // Cost-multiplier passthrough for the env (liquidity scenarios).
  double CostMultiplier(int64_t day) const {
    return source_->CostMultiplier(day);
  }

  // Materializes the viewed range into an owned PricePanel (tests, tools).
  PricePanel Materialize() const;

 private:
  const PanelSource* source_ = nullptr;  // borrowed unless owned_source_
  std::shared_ptr<const PanelSource> owned_source_;  // the panel adapter's
  const PanelMeta* meta_ = nullptr;
  const double* closes_ = nullptr;
};

// The bitwise-compatibility anchor: a PricePanel as a source whose close
// array is the panel's own storage (zero copy), so reads through a view
// are the very same loads as reads through the panel.
class InMemorySource : public PanelSource {
 public:
  // Borrows `panel`, which must outlive the source.
  explicit InMemorySource(const PricePanel* panel);
  // Owns a moved-in panel.
  explicit InMemorySource(PricePanel panel);

 private:
  void Init(const PricePanel& panel);

  PricePanel owned_;
};

}  // namespace cit::market

#endif  // CIT_MARKET_SOURCE_H_
