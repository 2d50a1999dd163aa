#include "math/plan.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "obs/telemetry.h"

namespace cit::plan {

namespace kernels = math::kernels;
using math::Shape;

namespace {

std::atomic<bool> g_compile_allowed{true};

}  // namespace

bool CompileAllowed() {
  return g_compile_allowed.load(std::memory_order_relaxed);
}

void SetCompileAllowed(bool allowed) {
  g_compile_allowed.store(allowed, std::memory_order_relaxed);
}

namespace {

// ---- Plan data model -------------------------------------------------------

// Identity of a tensor's backing buffer during recording. Every tensor the
// recorder registers stays pinned (a COW handle is held) until recording
// ends, so a live key can never be recycled onto a different value.
struct BufKey {
  const void* storage;
  int64_t offset;
  bool operator==(const BufKey& o) const {
    return storage == o.storage && offset == o.offset;
  }
};

struct BufKeyHash {
  size_t operator()(const BufKey& k) const {
    return std::hash<const void*>()(k.storage) ^
           (static_cast<size_t>(k.offset) * 0x9e3779b97f4a7c15ULL);
  }
};

// One value in the plan. Steps reference values by slot id; ids are
// assigned in SSA order (every op output is a fresh slot).
struct Slot {
  enum Kind : uint8_t {
    kInput,  // caller-provided tensor, rebound every replay
    kParam,  // trainable leaf, bound live + revalidated by version
    kConst,  // value baked at record time (pinned COW handle)
    kInter,  // intermediate, lives in the slab at a fixed offset
    kAlias,  // zero-copy view of another slot (Reshape / contiguous Slice)
  };
  Kind kind = kInter;
  int64_t numel = 0;
  int input_index = -1;             // kInput
  std::shared_ptr<ag::Node> param;  // kParam
  uint64_t param_version = 0;       // kParam: Node::version at record time
  Tensor constant;                  // kConst
  int64_t slab_off = -1;            // kInter
  int alias_of = -1;                // kAlias (always a lower slot id)
  int64_t alias_elem_off = 0;       // kAlias
};

struct Step {
  ReplayFn fn;                          // null for elementwise steps
  std::vector<int> ins;
  int out = -1;
  bool is_elem = false;                 // single-input elementwise, fusable
  std::vector<kernels::ElemOp> chain;   // scalar program when is_elem
  int64_t n = 0;                        // element count when is_elem
};

struct ExecPlan {
  std::vector<Slot> slots;
  std::vector<Step> steps;
  int out_slot = -1;
  Shape out_shape;
  int64_t slab_size = 0;  // floats
};

int Root(const std::vector<Slot>& slots, int id) {
  while (slots[id].kind == Slot::kAlias) id = slots[id].alias_of;
  return id;
}

// ---- Recorder --------------------------------------------------------------

struct Recorder {
  ExecPlan plan;
  std::unordered_map<BufKey, int, BufKeyHash> by_buf;
  std::unordered_map<const ag::Node*, int> by_node;
  // Pins every registered tensor for the duration of the recording: a
  // BufKey is a storage address, and the allocator may hand a freed
  // buffer's address to a new value, which would make a by_buf key
  // silently resolve to the wrong slot.
  std::vector<Tensor> pins;
  int64_t ops_seen = 0;      // MakeOp calls (via NoteOp)
  int64_t ops_recorded = 0;  // Record* calls
  bool failed = false;       // op the recorder cannot express (e.g. a
                             // non-view aliasing pattern)
};

thread_local Recorder* t_recorder = nullptr;

class RecorderScope {
 public:
  explicit RecorderScope(Recorder* r) {
    CIT_CHECK(t_recorder == nullptr);
    t_recorder = r;
    detail::t_recording = true;
  }
  ~RecorderScope() {
    t_recorder = nullptr;
    detail::t_recording = false;
  }
};

BufKey KeyOf(const Tensor& t) {
  return BufKey{t.storage_ptr(), t.storage_offset()};
}

int AddSlot(Recorder& r, Slot s) {
  r.plan.slots.push_back(std::move(s));
  return static_cast<int>(r.plan.slots.size()) - 1;
}

void RegisterValue(Recorder& r, const Tensor& t, int slot_id) {
  r.by_buf[KeyOf(t)] = slot_id;
  r.pins.push_back(t);
}

// Resolves an op input to a slot: a previously recorded value, a trainable
// parameter (live-bound, revalidated by version on every replay), or — for
// anything created outside the recorded region — a baked constant.
int ResolveInput(Recorder& r, const ag::Var& v) {
  const Tensor& t = v.value();
  auto it = r.by_buf.find(KeyOf(t));
  if (it != r.by_buf.end()) return it->second;
  if (std::shared_ptr<ag::Node> node = v.node();
      node != nullptr && node->requires_grad) {
    auto pit = r.by_node.find(node.get());
    if (pit != r.by_node.end()) return pit->second;
    Slot s;
    s.kind = Slot::kParam;
    s.numel = t.numel();
    s.param_version = node->version;
    s.param = std::move(node);
    const int id = AddSlot(r, std::move(s));
    r.by_node.emplace(r.plan.slots[id].param.get(), id);
    return id;
  }
  Slot s;
  s.kind = Slot::kConst;
  s.numel = t.numel();
  s.constant = t;  // COW handle: content cannot change underneath us
  const int id = AddSlot(r, std::move(s));
  RegisterValue(r, t, id);
  return id;
}

// Appends a step that reads `ins[0..n)` and writes `out` into a fresh
// intermediate slot.
Step& AppendStep(Recorder& r, const Tensor& out, const ag::Var* const* ins,
                 size_t n) {
  ++r.ops_recorded;
  Step st;
  st.ins.reserve(n);
  for (size_t i = 0; i < n; ++i) st.ins.push_back(ResolveInput(r, *ins[i]));
  Slot s;
  s.kind = Slot::kInter;
  s.numel = out.numel();
  st.out = AddSlot(r, std::move(s));
  RegisterValue(r, out, st.out);
  r.plan.steps.push_back(std::move(st));
  return r.plan.steps.back();
}

// ---- Finalization: fusion + slab layout ------------------------------------

// Folds an elementwise step into its producer when the producer is itself
// elementwise over the same element count and its output feeds exactly this
// one consumer. The merged step keeps the producer's position (legal under
// SSA: the consumed value had no other reader) and produces the consumer's
// output; the producer's output slot goes dead and is never materialized.
int64_t FuseElemChains(ExecPlan& p) {
  std::vector<int> uses(p.slots.size(), 0);
  for (const Step& st : p.steps) {
    for (int in : st.ins) ++uses[Root(p.slots, in)];
  }
  if (p.out_slot >= 0) ++uses[Root(p.slots, p.out_slot)];

  int64_t fused = 0;
  std::vector<Step> out;
  out.reserve(p.steps.size());
  std::unordered_map<int, size_t> elem_producer;  // slot id -> index in `out`
  for (Step& st : p.steps) {
    if (st.is_elem) {
      const int r = Root(p.slots, st.ins[0]);
      auto it = elem_producer.find(r);
      if (it != elem_producer.end() && uses[r] == 1 &&
          out[it->second].n == st.n) {
        const size_t idx = it->second;
        Step& prod = out[idx];
        prod.chain.insert(prod.chain.end(), st.chain.begin(), st.chain.end());
        prod.out = st.out;
        elem_producer.erase(it);
        elem_producer.emplace(st.out, idx);
        ++fused;
        continue;
      }
    }
    out.push_back(std::move(st));
    if (out.back().is_elem) {
      elem_producer[out.back().out] = out.size() - 1;
    }
  }
  p.steps = std::move(out);
  return fused;
}

// Packs intermediates into one slab with a liveness-driven exact-size
// freelist. A step's output is placed before its dead inputs are freed, so
// an output can never alias one of its own inputs (reduction/transpose
// kernels read across indices and would corrupt on overlap).
void AssignSlab(ExecPlan& p) {
  const int num_steps = static_cast<int>(p.steps.size());
  std::vector<int> last_use(p.slots.size(), -1);
  for (int i = 0; i < num_steps; ++i) {
    for (int in : p.steps[i].ins) last_use[Root(p.slots, in)] = i;
  }
  if (p.out_slot >= 0) last_use[Root(p.slots, p.out_slot)] = num_steps;

  std::unordered_map<int64_t, std::vector<int64_t>> freelist;
  int64_t size = 0;
  for (int i = 0; i < num_steps; ++i) {
    Step& st = p.steps[i];
    Slot& o = p.slots[st.out];
    std::vector<int64_t>& fl = freelist[o.numel];
    if (!fl.empty()) {
      o.slab_off = fl.back();
      fl.pop_back();
    } else {
      o.slab_off = size;
      size += o.numel;
    }
    for (size_t k = 0; k < st.ins.size(); ++k) {
      const int r = Root(p.slots, st.ins[k]);
      bool seen = false;
      for (size_t j = 0; j < k && !seen; ++j) {
        seen = Root(p.slots, st.ins[j]) == r;
      }
      if (seen) continue;  // duplicate input: free once
      if (p.slots[r].kind == Slot::kInter && last_use[r] == i) {
        freelist[p.slots[r].numel].push_back(p.slots[r].slab_off);
      }
    }
  }
  p.slab_size = size;
}

}  // namespace

namespace detail {
void NoteOp() {
  if (t_recorder != nullptr) ++t_recorder->ops_seen;
}
}  // namespace detail

// ---- Recording hooks -------------------------------------------------------

void RecordStep(const Tensor& out, const ag::Var* const* ins, size_t n,
                ReplayFn fn) {
  if (Recorder* r = t_recorder) AppendStep(*r, out, ins, n).fn = std::move(fn);
}

void RecordElem(const Tensor& out, const ag::Var& in,
                math::kernels::ElemOp op) {
  Recorder* r = t_recorder;
  if (r == nullptr) return;
  const ag::Var* ins[] = {&in};
  Step& st = AppendStep(*r, out, ins, 1);
  st.is_elem = true;
  st.chain.push_back(op);
  st.n = out.numel();
}

void RecordAlias(const Tensor& out, const ag::Var& src) {
  Recorder* r = t_recorder;
  if (r == nullptr) return;
  ++r->ops_recorded;
  const Tensor& sv = src.value();
  if (out.storage_ptr() != sv.storage_ptr()) {
    // The op produced a view of storage the recorder cannot see through.
    r->failed = true;
    return;
  }
  Slot s;
  s.kind = Slot::kAlias;
  s.numel = out.numel();
  s.alias_of = ResolveInput(*r, src);
  s.alias_elem_off = out.storage_offset() - sv.storage_offset();
  const int id = AddSlot(*r, std::move(s));
  RegisterValue(*r, out, id);
}

// ---- CompiledFn ------------------------------------------------------------

struct CompiledFn::Impl {
  struct Entry {
    std::vector<Shape> key;
    bool valid = false;
    bool poisoned = false;  // recording failed: interpret this key forever
    ExecPlan plan;
    std::vector<float> slab;
    std::vector<const float*> ptrs;  // per-slot resolved pointers
    // One step's input pointers, sized to the plan's widest step.
    std::vector<const float*> args;
    uint64_t last_used = 0;
  };

  std::vector<Entry> entries;
  PlanStats stats;
  uint64_t tick = 0;

  // Shape keys the LRU has dropped, so a later miss on the same key can be
  // attributed to the eviction (plan.misses_evicted — the thrash signal)
  // rather than a genuinely new shape (plan.misses_cold). Bounded ring:
  // remembering more keys than this only sharpens attribution of ancient
  // evictions, which is not worth unbounded growth.
  static constexpr size_t kMaxEvictedKeys = 64;
  std::vector<std::vector<Shape>> evicted_keys;

  void RememberEvicted(std::vector<Shape> key) {
    for (std::vector<Shape>& k : evicted_keys) {
      if (k == key) return;  // already remembered
    }
    if (evicted_keys.size() >= kMaxEvictedKeys) {
      evicted_keys.erase(evicted_keys.begin());
    }
    evicted_keys.push_back(std::move(key));
  }

  bool WasEvicted(const std::vector<Shape>& key) const {
    for (const std::vector<Shape>& k : evicted_keys) {
      if (k == key) return true;
    }
    return false;
  }

  // Single-owner enforcement (debug builds): the first compiled-path Run
  // pins this CompiledFn to its calling thread; a default-constructed id
  // means "unowned". Atomic so the *detection* of a cross-thread caller is
  // itself race-free — everything past the check still assumes one owner.
  std::atomic<std::thread::id> owner{std::thread::id()};

  void CheckOwner() {
#ifndef NDEBUG
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};
    if (!owner.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed) &&
        expected != self) {
      CIT_CHECK_MSG(false,
                    "plan::CompiledFn used from a second thread; a "
                    "CompiledFn (and the model replica holding it) belongs "
                    "to exactly one thread — give each worker its own "
                    "replica, or Clear() before handing it over");
    }
#endif
  }

  Entry* Find(std::initializer_list<const Tensor*> inputs) {
    for (Entry& e : entries) {
      if (e.key.size() != inputs.size()) continue;
      bool match = true;
      size_t i = 0;
      for (const Tensor* t : inputs) {
        if (t->shape() != e.key[i++]) {
          match = false;
          break;
        }
      }
      if (match) return &e;
    }
    return nullptr;
  }

  static bool Stale(const Entry& e) {
    for (const Slot& s : e.plan.slots) {
      if (s.kind == Slot::kParam && s.param->version != s.param_version) {
        return true;
      }
    }
    return false;
  }

  Tensor Replay(Entry& e, std::initializer_list<const Tensor*> inputs) {
    ExecPlan& p = e.plan;
    std::vector<const float*>& ptrs = e.ptrs;
    const Tensor* const* in = inputs.begin();
    const int num_slots = static_cast<int>(p.slots.size());
    for (int i = 0; i < num_slots; ++i) {
      const Slot& s = p.slots[i];
      switch (s.kind) {
        case Slot::kInput:
          ptrs[i] = in[s.input_index]->data();  // const overload: no detach
          break;
        case Slot::kParam:
          ptrs[i] = std::as_const(s.param->value).data();
          break;
        case Slot::kAlias:
          ptrs[i] = ptrs[s.alias_of] + s.alias_elem_off;
          break;
        case Slot::kConst:
        case Slot::kInter:
          break;  // resolved once at finalize
      }
    }
    const float** args = e.args.data();
    for (Step& st : p.steps) {
      for (size_t k = 0; k < st.ins.size(); ++k) args[k] = ptrs[st.ins[k]];
      float* out = const_cast<float*>(ptrs[st.out]);
      if (st.is_elem) {
        kernels::FusedElemwise(args[0], out, st.n, st.chain.data(),
                               static_cast<int>(st.chain.size()));
      } else {
        st.fn(args, out);
      }
    }
    Tensor result(p.out_shape);
    if (result.numel() > 0) {
      kernels::Copy(ptrs[p.out_slot], result.data(), result.numel());
    }
    return result;
  }

  Tensor RecordInto(Entry& e, std::initializer_list<const Tensor*> inputs,
                    const std::function<ag::Var()>& forward) {
    e.valid = false;
    e.plan = ExecPlan{};
    e.slab.clear();
    e.ptrs.clear();
    e.args.clear();

    Recorder rec;
    int idx = 0;
    for (const Tensor* t : inputs) {
      Slot s;
      s.kind = Slot::kInput;
      s.numel = t->numel();
      s.input_index = idx++;
      const int id = AddSlot(rec, std::move(s));
      RegisterValue(rec, *t, id);
    }

    Tensor out_val;
    {
      RecorderScope scope(&rec);
      out_val = forward().value();
    }

    auto out_it = rec.by_buf.find(KeyOf(out_val));
    const bool ok = !rec.failed && rec.ops_seen == rec.ops_recorded &&
                    out_it != rec.by_buf.end();
    if (!ok) {
      // Never replayable (an op without a recording hook, or an output the
      // recorder cannot trace): interpret this shape key from now on.
      e.poisoned = true;
      CIT_OBS_COUNT("plan.poisoned", 1);
      return out_val;
    }

    ExecPlan& p = rec.plan;
    p.out_slot = out_it->second;
    p.out_shape = out_val.shape();
    const int64_t fused = FuseElemChains(p);
    stats.fused_ops += fused;
    CIT_OBS_COUNT("plan.fused_ops", fused);
    AssignSlab(p);

    e.slab.assign(static_cast<size_t>(p.slab_size), 0.0f);
    e.ptrs.assign(p.slots.size(), nullptr);
    size_t widest = 0;
    for (const Step& st : p.steps) widest = std::max(widest, st.ins.size());
    e.args.assign(widest, nullptr);
    for (size_t i = 0; i < p.slots.size(); ++i) {
      const Slot& s = p.slots[i];
      if (s.kind == Slot::kConst) {
        e.ptrs[i] = s.constant.data();
      } else if (s.kind == Slot::kInter && s.slab_off >= 0) {
        e.ptrs[i] = e.slab.data() + s.slab_off;
      }
    }
    e.plan = std::move(p);
    e.valid = true;
    return out_val;
  }
};

CompiledFn::CompiledFn() : impl_(std::make_unique<Impl>()) {}
CompiledFn::~CompiledFn() = default;
CompiledFn::CompiledFn(CompiledFn&&) noexcept = default;
CompiledFn& CompiledFn::operator=(CompiledFn&&) noexcept = default;

const PlanStats& CompiledFn::stats() const {
  impl_->stats.entries = static_cast<int64_t>(impl_->entries.size());
  return impl_->stats;
}

void CompiledFn::Clear() {
  impl_->entries.clear();
  impl_->evicted_keys.clear();
  impl_->owner.store(std::thread::id(), std::memory_order_relaxed);
}

Tensor CompiledFn::Run(std::initializer_list<const Tensor*> inputs,
                       const std::function<ag::Var()>& forward) {
  Impl& im = *impl_;
  // Nested Run (recording already active on this thread) stays interpreted:
  // its ops flow into the outer recording, which is exactly right.
  if (!CompileAllowed() || detail::t_recording) {
    ++im.stats.fallbacks;
    return forward().value();
  }
  im.CheckOwner();
  ++im.tick;
  Impl::Entry* e = im.Find(inputs);
  if (e != nullptr) {
    e->last_used = im.tick;
    if (e->poisoned) {
      ++im.stats.fallbacks;
      return forward().value();
    }
    if (e->valid) {
      if (Impl::Stale(*e)) {
        ++im.stats.invalidations;
        CIT_OBS_COUNT("plan.invalidations", 1);
        e->valid = false;  // fall through and re-record in place
      } else {
        ++im.stats.hits;
        CIT_OBS_COUNT("plan.hits", 1);
        return im.Replay(*e, inputs);
      }
    }
  } else {
    while (im.entries.size() >= static_cast<size_t>(kMaxEntries)) {
      size_t victim = 0;
      for (size_t i = 1; i < im.entries.size(); ++i) {
        if (im.entries[i].last_used < im.entries[victim].last_used) {
          victim = i;
        }
      }
      im.RememberEvicted(std::move(im.entries[victim].key));
      im.entries.erase(im.entries.begin() +
                       static_cast<ptrdiff_t>(victim));
      ++im.stats.evictions;
      CIT_OBS_COUNT("plan.evictions", 1);
    }
    im.entries.emplace_back();
    e = &im.entries.back();
    for (const Tensor* t : inputs) e->key.push_back(t->shape());
    e->last_used = im.tick;
    // Attribute the recording: a key the LRU previously dropped is a
    // re-record forced by capacity (thrash), anything else a cold compile.
    // In-place re-records after a parameter invalidation take the branch
    // above and bump only the `misses` total.
    if (im.WasEvicted(e->key)) {
      ++im.stats.misses_evicted;
      CIT_OBS_COUNT("plan.misses_evicted", 1);
    } else {
      ++im.stats.misses_cold;
      CIT_OBS_COUNT("plan.misses_cold", 1);
    }
  }
  ++im.stats.misses;
  CIT_OBS_COUNT("plan.misses", 1);
  return im.RecordInto(*e, inputs, forward);
}

}  // namespace cit::plan
