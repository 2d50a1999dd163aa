#include "e2e.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "math/rng.h"

namespace cit::e2e {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return math::Rng::Split(seed, stream, 0).NextU64();
}

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return SortedQuantile(samples, q);
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

int64_t SamplesBeyond(int64_t n, const Level& level) {
  return n * (level.den - level.num) / level.den;
}

std::vector<Tail> SupportedTails(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const int64_t n = static_cast<int64_t>(samples.size());
  std::vector<Tail> out;
  for (const Level& level : kLevels) {
    const int64_t beyond = SamplesBeyond(n, level);
    if (beyond < kMinBeyond) break;
    out.push_back(Tail{level.name,
                       SortedQuantile(samples, double(level.num) /
                                                   double(level.den)),
                       n, beyond});
  }
  return out;
}

std::vector<int32_t> RequestOrder(int num_lines, int count, uint64_t seed) {
  std::vector<int32_t> out;
  if (num_lines <= 0 || count <= 0) return out;
  out.reserve(static_cast<size_t>(count));
  math::Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    out.push_back(static_cast<int32_t>(rng.UniformInt(num_lines)));
  }
  return out;
}

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FnvDouble(double v, uint64_t h) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g;", v);
  return Fnv1a(std::string_view(buf, static_cast<size_t>(n)), h);
}

std::string Hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string JsonStr(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

JsonObject& JsonObject::Raw(const std::string& key, std::string value) {
  fields_.emplace_back(key, std::move(value));
  return *this;
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonStr(fields_[i].first);
    out += ": ";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

namespace {
// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> t_open;
}  // namespace

int64_t SpanLog::Begin(std::string name, uint64_t request_id) {
  if (!enabled_) return -1;
  const int64_t parent = t_open.empty() ? root_ : t_open.back();
  const int64_t id = Add(std::move(name), NowUs(), -1, parent, request_id);
  t_open.push_back(id);
  return id;
}

void SpanLog::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowUs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_us = now;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

int64_t SpanLog::Add(std::string name, int64_t start_us, int64_t end_us,
                     int64_t parent, uint64_t request_id) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      Span{std::move(name), start_us, end_us, parent, request_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> SpanLog::SelfTimeUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_us,
                                                            s.end_us);
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_us);
      hi = std::min(hi, s.end_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[s.name] += static_cast<double>(s.end_us - s.start_us - covered);
  }
  return out;
}

std::map<std::string, double> SpanLog::TotalUs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[s.name] += static_cast<double>(s.end_us - s.start_us);
  }
  return out;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string SpanLog::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"schema\": \"cit.e2e.spans.v1\", \"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += JsonObject()
               .Int("id", static_cast<int64_t>(i))
               .Str("name", s.name)
               .Int("start_us", s.start_us)
               .Int("end_us", s.end_us)
               .Int("parent", s.parent)
               .Int("request_id", static_cast<int64_t>(s.request_id))
               .Render();
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace cit::e2e
