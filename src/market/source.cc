#include "market/source.h"

#include <atomic>
#include <utility>

namespace cit::market {

namespace {

// Process-global id allocator. Ids start at 1 (0 = "no source" in caches)
// and are never recycled.
std::atomic<uint64_t> g_next_source_id{1};

}  // namespace

PanelSource::PanelSource()
    : source_id_(g_next_source_id.fetch_add(1, std::memory_order_relaxed)) {}

PanelView::PanelView(const PricePanel& panel)
    : owned_source_(std::make_shared<InMemorySource>(&panel)) {
  source_ = owned_source_.get();
  meta_ = &source_->meta();
  closes_ = source_->closes();
}

PricePanel PanelView::Materialize() const {
  PricePanel out(num_days(), num_assets());
  out.set_name(name());
  out.set_train_end(train_end());
  out.asset_names() = asset_names();
  for (int64_t t = 0; t < num_days(); ++t) {
    for (int64_t i = 0; i < num_assets(); ++i) {
      out.SetClose(t, i, Close(t, i));
    }
  }
  return out;
}

InMemorySource::InMemorySource(const PricePanel* panel) {
  CIT_CHECK(panel != nullptr);
  Init(*panel);
}

InMemorySource::InMemorySource(PricePanel panel) : owned_(std::move(panel)) {
  Init(owned_);
}

void InMemorySource::Init(const PricePanel& panel) {
  meta_.num_days = panel.num_days();
  meta_.num_assets = panel.num_assets();
  meta_.train_end = panel.train_end();
  meta_.name = panel.name();
  meta_.asset_names = panel.asset_names();
  closes_ = panel.raw_closes();  // zero copy: borrows panel storage
}

}  // namespace cit::market
