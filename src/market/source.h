#ifndef CIT_MARKET_SOURCE_H_
#define CIT_MARKET_SOURCE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "market/panel.h"

namespace cit::market {

// ---------------------------------------------------------------------------
// The data-plane abstraction (DESIGN.md §11). A PanelSource hands out
// immutable chunks of a price panel on demand; a PanelView gives consumers
// the exact read API of PricePanel (Close / PriceRelative / dims) on top of
// whatever chunking the source uses. Everything downstream of the market
// layer — envs, backtests, agents, the feature cache, serving — reads
// through PanelView, so an in-memory panel, a streamed CSV, an on-demand
// simulator, and a scenario-transformed stack are interchangeable.
// ---------------------------------------------------------------------------

// Immutable panel-level metadata, fixed for the lifetime of a source.
struct PanelMeta {
  int64_t num_days = 0;
  int64_t num_assets = 0;
  int64_t train_end = 0;  // first test day; days [0, train_end) train
  std::string name;
  std::vector<std::string> asset_names;
};

// One contiguous run of days. `data` points at row-major
// [num_days, num_assets] closes; it either borrows storage that outlives
// the chunk (in-memory sources) or points into `owned`.
struct PanelChunk {
  int64_t start_day = 0;
  int64_t num_days = 0;
  int64_t num_assets = 0;
  const double* data = nullptr;
  std::vector<double> owned;

  bool Covers(int64_t day) const {
    return day >= start_day && day < start_day + num_days;
  }
  double At(int64_t day, int64_t asset) const {
    return data[(day - start_day) * num_assets + asset];
  }
  // Bytes of chunk-owned storage (0 for borrowing chunks).
  int64_t OwnedBytes() const {
    return static_cast<int64_t>(owned.size() * sizeof(double));
  }
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

// Chunked read access to one logical price panel.
//
// Contract:
//  * meta() is fixed at construction and valid for the source's lifetime.
//  * chunk_days() > 0; chunk `c` covers days
//    [c * chunk_days, min((c+1) * chunk_days, num_days)).
//  * FetchChunk returns the same data for the same index every time,
//    independent of access order or calling thread (determinism gate), and
//    is safe to call from multiple threads concurrently.
//  * Prefetch is a non-binding hint; correctness never depends on it.
//  * source_id() is allocated from a process-global counter and never
//    recycled, so downstream caches keyed by (source_id, day) can never
//    confuse two sources the way address-keyed caches could when a
//    short-lived panel's address was reused.
class PanelSource {
 public:
  PanelSource();
  virtual ~PanelSource() = default;

  PanelSource(const PanelSource&) = delete;
  PanelSource& operator=(const PanelSource&) = delete;

  uint64_t source_id() const { return source_id_; }

  virtual const PanelMeta& meta() const = 0;
  virtual int64_t chunk_days() const = 0;
  virtual std::shared_ptr<const PanelChunk> FetchChunk(int64_t index) = 0;

  // Hint that days [first_day, last_day] will be read soon.
  virtual void Prefetch(int64_t first_day, int64_t last_day) {
    (void)first_day;
    (void)last_day;
  }

  // Scenario hook: scales the env's proportional transaction cost on the
  // step executed at `day` (liquidity-hole stress). 1.0 everywhere for
  // plain data sources.
  virtual double CostMultiplier(int64_t day) const {
    (void)day;
    return 1.0;
  }

  int64_t num_chunks() const {
    const int64_t days = meta().num_days;
    const int64_t cd = chunk_days();
    return days == 0 ? 0 : (days + cd - 1) / cd;
  }

 private:
  uint64_t source_id_;
};

// A lightweight, copyable window onto a PanelSource with the read API of
// PricePanel. Holds a small MRU ring of fetched chunks, so sequential and
// windowed access patterns (feature windows, backtest loops) hit at most
// one fetch per chunk transition; when one chunk covers the whole panel
// (InMemorySource) every read after the first is a direct pointer index.
//
// A PanelView is NOT safe for concurrent use by multiple threads — copy it
// instead (copies share the source but keep private rings). This is the
// same lifetime contract as the `const PricePanel*` it replaces: the
// source must outlive every view onto it.
class PanelView {
 public:
  PanelView() = default;
  explicit PanelView(PanelSource* source) : source_(source) {
    CIT_CHECK(source != nullptr);
    meta_ = &source->meta();
    chunk_days_ = source->chunk_days();
    CIT_CHECK_GT(chunk_days_, 0);
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
  PanelSource* source() const { return source_; }

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
    const PanelChunk* c = hot_;
    if (c == nullptr || !c->Covers(day)) c = ChunkFor(day);
    return c->At(day, asset);
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

  // Forwards a read-ahead hint to the source (clamped to the panel).
  void Hint(int64_t first_day, int64_t last_day) const;

  // Materializes the viewed range into an owned PricePanel (tests, tools).
  PricePanel Materialize() const;

 private:
  const PanelChunk* ChunkFor(int64_t day) const;

  PanelSource* source_ = nullptr;  // borrowed unless owned_source_ is set
  std::shared_ptr<PanelSource> owned_source_;  // set by the panel adapter
  const PanelMeta* meta_ = nullptr;
  int64_t chunk_days_ = 1;
  // MRU ring of resident chunks; hot_ points into the ring entry that
  // served the last read.
  static constexpr int kRing = 4;
  mutable std::array<std::shared_ptr<const PanelChunk>, kRing> ring_;
  mutable int ring_next_ = 0;
  mutable const PanelChunk* hot_ = nullptr;
};

// The bitwise-compatibility anchor: wraps a PricePanel as a single
// whole-panel chunk borrowing the panel's storage (zero copy), so reads
// through a view are the very same loads as reads through the panel.
class InMemorySource : public PanelSource {
 public:
  // Borrows `panel`, which must outlive the source.
  explicit InMemorySource(const PricePanel* panel);
  // Owns a moved-in panel.
  explicit InMemorySource(PricePanel panel);

  const PanelMeta& meta() const override { return meta_; }
  int64_t chunk_days() const override;
  std::shared_ptr<const PanelChunk> FetchChunk(int64_t index) override;

  const PricePanel& panel() const { return *panel_; }

 private:
  void Init();

  PricePanel owned_;
  const PricePanel* panel_ = nullptr;
  PanelMeta meta_;
  std::shared_ptr<const PanelChunk> chunk_;
};

}  // namespace cit::market

#endif  // CIT_MARKET_SOURCE_H_
