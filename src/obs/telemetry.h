#ifndef CIT_OBS_TELEMETRY_H_
#define CIT_OBS_TELEMETRY_H_

// Low-overhead process-wide telemetry: named counters, gauges, and
// fixed-bucket histograms behind a Registry, RAII ScopedTimer spans that
// feed histograms (and the chrome://tracing writer in trace.h), and a
// TelemetrySession that drives periodic JSON-lines snapshots from a
// TelemetryConfig on the trainer configs.
//
// Cost model:
//   * Compiled out (-DCIT_OBS_DISABLED via the CIT_OBS=OFF CMake option):
//     the CIT_OBS_* macros expand to nothing — exactly zero cost.
//   * Compiled in but disabled at runtime (the default): one relaxed
//     atomic load + branch per instrumentation site; no clock reads.
//   * Enabled: counters/gauges are one relaxed fetch_add/store on a
//     per-thread shard (no contended cache line, no locks); spans add two
//     steady_clock reads.
//
// Determinism: telemetry only observes — it never feeds a value back into
// any computation, so training curves are bitwise identical with telemetry
// on, off, or compiled out, at any CIT_NUM_THREADS.
//
// This library deliberately depends on nothing else in the tree (cit_common
// links against it, so a dependency the other way would be circular).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace cit::obs {

#ifdef CIT_OBS_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

// Runtime master switch. Reading it is one relaxed load; flipping it is
// rare (TelemetrySession construction, tests, CIT_TELEMETRY=1).
inline bool Enabled() {
  if constexpr (!kCompiledIn) return false;
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool on);

// Monotonic microseconds since an arbitrary process-local epoch. Used for
// durations and span timing; meaningless across processes or restarts.
inline uint64_t MonotonicMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Wall-clock microseconds since the Unix epoch (system_clock). Snapshot
// lines carry this alongside the steady stamp so a daemon's /stats output
// and archived JSON-lines files can be correlated across processes and
// restarts; durations keep using MonotonicMicros (wall time can step).
inline uint64_t WallMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// Each thread hashes onto one of kShards slots; shards are cache-line
// padded so concurrent increments from different threads never share a
// line. 16 shards cover the pool sizes this project runs (<= hardware
// concurrency, clamped in ThreadPool).
inline constexpr int kShards = 16;

namespace internal {
inline int ThisThreadShard() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed) %
      static_cast<uint32_t>(kShards);
  return static_cast<int>(shard);
}

struct alignas(64) U64Shard {
  std::atomic<uint64_t> v{0};
};
}  // namespace internal

// Monotonic event count (calls, FLOPs, bytes, steps...). Lock-free,
// per-thread-sharded increment path.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    if (!Enabled()) return;
    shards_[internal::ThisThreadShard()].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  uint64_t Total() const {
    uint64_t t = 0;
    for (const auto& s : shards_) t += s.v.load(std::memory_order_relaxed);
    return t;
  }
  void Reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  internal::U64Shard shards_[kShards];
};

// Last-observed scalar (loss, grad norm, queue depth...).
class Gauge {
 public:
  void Set(double v) {
    if (!Enabled()) return;
    bits_.store(Encode(v), std::memory_order_relaxed);
    set_.store(true, std::memory_order_relaxed);
  }
  double Get() const { return Decode(bits_.load(std::memory_order_relaxed)); }
  bool ever_set() const { return set_.load(std::memory_order_relaxed); }
  void Reset() {
    bits_.store(Encode(0.0), std::memory_order_relaxed);
    set_.store(false, std::memory_order_relaxed);
  }

 private:
  // double stored through its bit pattern: atomic<double> is lock-free on
  // the targets we build for, but atomic<uint64_t> is guaranteed to be.
  static uint64_t Encode(double v);
  static double Decode(uint64_t bits);
  std::atomic<uint64_t> bits_{0};
  std::atomic<bool> set_{false};
};

// Fixed power-of-two-bucket histogram over non-negative integer samples
// (typically microseconds). Bucket i counts samples whose bit width is i,
// i.e. [2^(i-1), 2^i); bucket 0 holds zeros and the last bucket is a
// catch-all. Increments are per-thread-sharded and lock-free.
class Histogram {
 public:
  static constexpr int kBuckets = 28;  // last bucket: >= 2^26 us (~67 s)

  void Record(uint64_t sample);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    uint64_t buckets[kBuckets] = {};
    double Mean() const { return count ? double(sum) / double(count) : 0.0; }
    // Upper bound of the bucket holding quantile q in [0, 1].
    uint64_t ApproxQuantile(double q) const;
  };
  Snapshot Get() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> buckets[kBuckets] = {};
  };
  Shard shards_[kShards];
  std::atomic<uint64_t> max_{0};
};

// Process-wide registry of named instruments. Get* registers on first use
// (under a mutex — each macro site caches the reference in a function-local
// static, so the lock is taken once per site, not per event) and returns a
// stable reference that lives for the process.
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // Zeroes every registered instrument (names stay registered). Tests use
  // this for isolation; the snapshot exporter does not reset.
  void ResetAll();

  // One JSON object (single line, no trailing newline) with all counters,
  // gauges and histogram summaries, stamped with both clocks:
  //   {"ts_us":<steady>, "wall_us":<unix-epoch>, "counters":{...},
  //    "gauges":{...}, "histograms":{...}}
  // ts_us is monotonic (process-local; subtract two for a duration);
  // wall_us is system_clock and stays meaningful across processes and
  // restarts — the stamp consumers of a daemon's stats endpoint need.
  // Safe to call concurrently with increments: values are relaxed-atomic
  // reads, so a snapshot taken while threads are mid-update is approximate
  // but well-formed.
  std::string SnapshotJson() const;

  // Appends SnapshotJson() + '\n' to a JSON-lines file. Returns false on
  // I/O failure.
  bool AppendSnapshotLine(const std::string& path) const;

 private:
  Registry();
  struct Impl;
  Impl* impl_;  // leaked on purpose: instruments must outlive static dtors
};

// RAII span: records elapsed microseconds into a histogram and, when a
// trace is active, emits a chrome://tracing complete event. `name` must be
// a string literal (the trace writer stores the pointer).
class ScopedTimer {
 public:
  ScopedTimer(const char* name, Histogram& hist)
      : name_(name), hist_(&hist), armed_(Enabled()),
        start_us_(armed_ ? MonotonicMicros() : 0) {}
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  const char* name_;
  Histogram* hist_;
  bool armed_;
  uint64_t start_us_;
};

// Per-run telemetry knobs, carried on every trainer config. Fields are
// overridden by environment variables so any binary (tests, bench,
// examples) can be observed without a config change:
//   CIT_TELEMETRY=1     -> enabled = true
//   CIT_TRACE=<path>    -> trace_path
//   CIT_METRICS=<path>  -> metrics_path
struct TelemetryConfig {
  bool enabled = false;       // master switch for this run
  std::string trace_path;     // chrome://tracing JSON ("" = no trace)
  std::string metrics_path;   // JSON-lines snapshots ("" = no snapshots)
  int64_t snapshot_every = 0;  // updates between snapshots (0 = final only)
};

// Scopes one observed run (a Train() call): resolves env overrides, flips
// the global enable flag for the duration, starts/stops the trace writer,
// and appends periodic + final snapshot lines. Destruction restores the
// previous enabled state, so nested/sequential runs compose.
class TelemetrySession {
 public:
  explicit TelemetrySession(const TelemetryConfig& config);
  ~TelemetrySession();

  // Call once per optimizer update with the 0-based update index; appends
  // a snapshot line every `snapshot_every` updates.
  void Tick(int64_t update_index);

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

 private:
  TelemetryConfig resolved_;
  bool active_ = false;        // this session turned telemetry on
  bool prev_enabled_ = false;  // state to restore
  bool tracing_ = false;
};

}  // namespace cit::obs

// Instrumentation macros. Each site pays one static-local lookup on first
// execution; afterwards the disabled-at-runtime cost is a relaxed load and
// a predictable branch. With CIT_OBS_DISABLED they expand to nothing.
// Because the lookup is cached per site, `name` must be a string literal
// (`"" name` rejects anything else at compile time): a computed name would
// register only the first value the site sees.
#ifndef CIT_OBS_DISABLED
#define CIT_OBS_COUNT(name, delta)                                        \
  do {                                                                    \
    static ::cit::obs::Counter& cit_obs_c =                               \
        ::cit::obs::Registry::Global().GetCounter("" name);               \
    cit_obs_c.Add(static_cast<uint64_t>(delta));                          \
  } while (0)
#define CIT_OBS_GAUGE(name, value)                                        \
  do {                                                                    \
    static ::cit::obs::Gauge& cit_obs_g =                                 \
        ::cit::obs::Registry::Global().GetGauge("" name);                 \
    cit_obs_g.Set(static_cast<double>(value));                            \
  } while (0)
// Records one sample into histogram `name` (no timing, no trace event).
#define CIT_OBS_HIST(name, value)                                         \
  do {                                                                    \
    static ::cit::obs::Histogram& cit_obs_hm =                            \
        ::cit::obs::Registry::Global().GetHistogram("" name);             \
    cit_obs_hm.Record(static_cast<uint64_t>(value));                      \
  } while (0)
// Times the enclosing scope into histogram `name` (+ trace event).
#define CIT_OBS_SPAN(name)                                                \
  static ::cit::obs::Histogram& CIT_OBS_CAT_(cit_obs_h_, __LINE__) =      \
      ::cit::obs::Registry::Global().GetHistogram("" name);               \
  ::cit::obs::ScopedTimer CIT_OBS_CAT_(cit_obs_t_, __LINE__)(             \
      name, CIT_OBS_CAT_(cit_obs_h_, __LINE__))
#define CIT_OBS_CAT_(a, b) CIT_OBS_CAT2_(a, b)
#define CIT_OBS_CAT2_(a, b) a##b
#else
#define CIT_OBS_COUNT(name, delta) ((void)0)
#define CIT_OBS_GAUGE(name, value) ((void)0)
#define CIT_OBS_HIST(name, value) ((void)0)
#define CIT_OBS_SPAN(name) ((void)0)
#endif

#endif  // CIT_OBS_TELEMETRY_H_
