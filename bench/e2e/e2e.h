#ifndef CIT_BENCH_E2E_E2E_H_
#define CIT_BENCH_E2E_E2E_H_

// Pure helpers of the end-to-end benchmark (citbench): sample statistics,
// the seeded request order, byte-exact reply matching, digests, a tiny
// JSON writer and the benchmark's own span log. Nothing here touches
// sockets or the trading model (only the library's seeded RNG), so
// test_e2e.cc pins every rule down in isolation.

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cit::e2e {

// Microseconds on the steady clock (process-local epoch).
int64_t NowUs();
// Nanoseconds on the steady clock (process-local epoch).
int64_t NowNs();

// Independent sub-seed `stream` of the workload seed: every generated
// input (market, request windows, request order) draws from its own
// stream.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// ---- Sample statistics ------------------------------------------------------

// Linear-interpolated quantile of an ascending sample (q in [0, 1]).
double SortedQuantile(const std::vector<double>& sorted, double q);
// Quantile q of an unsorted sample.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

// A percentile as the exact fraction num/den (p99 = 99/100), so the
// "samples beyond" count never suffers from rounding.
struct Level {
  const char* name;
  int64_t num;
  int64_t den;
};
inline constexpr Level kLevels[] = {{"p50", 1, 2},
                                    {"p90", 9, 10},
                                    {"p99", 99, 100},
                                    {"p99.9", 999, 1000},
                                    {"p99.99", 9999, 10000}};

// Samples lying beyond `level` in a sample of n: floor(n * (1 - level)).
int64_t SamplesBeyond(int64_t n, const Level& level);

// A percentile is reported only when at least this many samples lie
// beyond it; fewer make the value one or two outliers.
inline constexpr int64_t kMinBeyond = 10;

struct Tail {
  std::string level;
  double value = 0.0;
  int64_t count = 0;   // sample size
  int64_t beyond = 0;  // samples beyond the level
};

// Every level of kLevels that the sample supports, ascending; the last
// entry is the highest percentile with >= kMinBeyond samples beyond it.
std::vector<Tail> SupportedTails(std::vector<double> samples);

// ---- Request order ----------------------------------------------------------

// `count` request-line indices drawn uniformly from [0, num_lines) with
// `seed`; the same arguments give the same order.
std::vector<int32_t> RequestOrder(int num_lines, int count, uint64_t seed);

// ---- Reply matching ---------------------------------------------------------

// Reply stream of one connection. The protocol answers in request order,
// so each complete reply line belongs to the oldest outstanding request;
// it matches when its bytes (with the '\n') equal the expected reply.
class ReplyStream {
 public:
  // Registers a request sent on this connection; `expected` must outlive
  // its reply.
  void Expect(int64_t request, const std::string* expected) {
    fifo_.emplace_back(request, expected);
  }

  // Consumes received bytes; calls on_reply(request, matched) per
  // complete line. Lines arriving with nothing outstanding count as
  // unexpected.
  template <typename OnReply>
  void Feed(std::string_view bytes, OnReply&& on_reply) {
    buf_.append(bytes.data(), bytes.size());
    size_t start = 0;
    for (;;) {
      const size_t nl = buf_.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string_view line(buf_.data() + start, nl + 1 - start);
      if (fifo_.empty()) {
        ++unexpected_;
      } else {
        const auto [request, expected] = fifo_.front();
        fifo_.pop_front();
        on_reply(request, line == *expected);
      }
      start = nl + 1;
    }
    buf_.erase(0, start);
  }

  size_t outstanding() const { return fifo_.size(); }
  int64_t unexpected() const { return unexpected_; }

 private:
  std::string buf_;
  std::deque<std::pair<int64_t, const std::string*>> fifo_;
  int64_t unexpected_ = 0;
};

// ---- Digests and JSON -------------------------------------------------------

inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;
uint64_t Fnv1a(std::string_view bytes, uint64_t h = kFnvOffset);
// Folds a double's "%.17g" text (exact round trip) into the digest.
uint64_t FnvDouble(double v, uint64_t h);
std::string Hex64(uint64_t v);

// JSON value text: strings escaped, non-finite numbers as null, finite
// numbers with all 17 significant digits.
std::string JsonStr(std::string_view s);
std::string JsonNum(double v);

// An ordered JSON object built from already-rendered values.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, std::string value);
  JsonObject& Str(const std::string& key, std::string_view value) {
    return Raw(key, JsonStr(value));
  }
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, JsonNum(value));
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---- Span log ---------------------------------------------------------------

// The benchmark's own spans around its calls into each layer: name, start,
// end, parent and request id, kept in memory and written when the run
// ends. Disabled (the untraced run), Begin/End/Add cost one branch.
struct Span {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t parent = -1;  // index of the enclosing span, -1 for a root
  uint64_t request_id = 0;
};

class SpanLog {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Opens a span whose parent is the calling thread's innermost open span
  // or, on a thread with none, the current root (see set_root). Returns
  // -1 when disabled.
  int64_t Begin(std::string name, uint64_t request_id = 0);
  void End(int64_t id);
  // Records a span timed elsewhere (e.g. one request of the closed loop).
  int64_t Add(std::string name, int64_t start_us, int64_t end_us,
              int64_t parent, uint64_t request_id = 0);
  // Parent for spans begun on threads that have no open span of their
  // own (thread-pool workers running sweep cells).
  void set_root(int64_t id) { root_ = id; }
  int64_t root() const { return root_; }

  // Self time per span name: each span's duration minus the union of its
  // children's intervals, summed over spans of that name.
  std::map<std::string, double> SelfTimeUs() const;
  // Total duration per span name.
  std::map<std::string, double> TotalUs() const;
  size_t size() const;

  std::string ToJson() const;

 private:
  bool enabled_ = false;
  int64_t root_ = -1;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span on `log` (nullptr or disabled: nothing recorded).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint64_t request_id = 0)
      : log_(log),
        id_(log != nullptr && log->enabled()
                ? log->Begin(std::move(name), request_id)
                : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

}  // namespace cit::e2e

#endif  // CIT_BENCH_E2E_E2E_H_
