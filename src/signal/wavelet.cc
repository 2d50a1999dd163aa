#include "signal/wavelet.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cit::signal {
namespace {

const double kInvSqrt2 = 1.0 / std::sqrt(2.0);

// Lengths halve (rounding up) at every level, and any 64-bit length
// reaches 1 within 63 halvings, where the decomposition stops.
constexpr int64_t kMaxLevels = 64;

// Levels a length-n decomposition reaches when `levels` are requested: it
// stops early once the approximation is a single sample.
int64_t EffectiveLevels(int64_t n, int64_t levels) {
  int64_t reached = 0;
  for (int64_t len = n; reached < levels;) {
    len = (len + 1) / 2;
    ++reached;
    if (len == 1) break;
  }
  return reached;
}

// One inverse level with every detail masked, in place: y[0, (len+1)/2)
// holds the approximation entering the level and y[0, len) receives its
// output, the padding sample dropped. A masked detail is still added as
// +0.0, never skipped: -0.0 + 0.0 is +0.0, and the bands keep that sign.
// Descending i reads y[i] before any write reaches it.
void InverseMaskedDetails(double* y, int64_t len) {
  for (int64_t i = (len + 1) / 2 - 1; i >= 0; --i) {
    const double a = y[i];
    if (2 * i + 1 < len) y[2 * i + 1] = (a - 0.0) * kInvSqrt2;
    y[2 * i] = (a + 0.0) * kInvSqrt2;
  }
}

// The level whose detail band is kept: its approximation is masked to
// +0.0 (every coarser level of a masked band inverts to exactly +0.0).
void InverseMaskedApprox(const double* detail, double* y, int64_t len) {
  for (int64_t i = 0; i < (len + 1) / 2; ++i) {
    y[2 * i] = (0.0 + detail[i]) * kInvSqrt2;
    if (2 * i + 1 < len) y[2 * i + 1] = (0.0 - detail[i]) * kInvSqrt2;
  }
}

}  // namespace

int64_t BandSplitScratchSize(int64_t n, int64_t num_bands) {
  CIT_CHECK_GE(n, 1);
  CIT_CHECK_GE(num_bands, 1);
  int64_t size = n;  // the signal, whose prefix each level overwrites
  int64_t len = n;
  for (int64_t l = EffectiveLevels(n, num_bands - 1); l > 0; --l) {
    len = (len + 1) / 2;
    size += len;  // one level's details
  }
  return size;
}

void SplitHorizonBandsInto(const double* x, int64_t n, int64_t num_bands,
                           double* scratch, double* bands) {
  CIT_CHECK_GE(n, 1);
  CIT_CHECK_GE(num_bands, 1);
  if (num_bands == 1) {
    std::copy_n(x, n, bands);
    return;
  }
  const int64_t levels = EffectiveLevels(n, num_bands - 1);
  CIT_CHECK_LE(levels, kMaxLevels);

  // Forward transform. len[l] is the length entering level l; the level's
  // approximation overwrites the prefix of `work` (step i reads samples
  // 2i and 2i+1 before writing sample i) and its details land behind it.
  // An odd length pads with its final sample.
  int64_t len[kMaxLevels];
  const double* detail[kMaxLevels];
  double* work = scratch;
  std::copy_n(x, n, work);
  double* next = scratch + n;
  int64_t cur = n;
  for (int64_t l = 0; l < levels; ++l) {
    const int64_t half = (cur + 1) / 2;
    for (int64_t i = 0; i < half; ++i) {
      const double a = work[2 * i];
      const double b = 2 * i + 1 < cur ? work[2 * i + 1] : a;
      next[i] = (a - b) * kInvSqrt2;
      work[i] = (a + b) * kInvSqrt2;
    }
    len[l] = cur;
    detail[l] = next;
    next += half;
    cur = half;
  }

  // Inverse, one band at a time, in place in the band's own output row.
  for (int64_t b = 0; b < num_bands; ++b) {
    double* y = bands + b * n;
    if (b > levels) {  // past the signal's depth: an all-zero band
      std::fill_n(y, n, 0.0);
      continue;
    }
    int64_t l = levels - 1;
    if (b == 0) {
      std::copy_n(work, cur, y);  // the approximation a^L
    } else {
      l = levels - b;  // the kept detail level
      InverseMaskedApprox(detail[l], y, len[l]);
      --l;
    }
    for (; l >= 0; --l) InverseMaskedDetails(y, len[l]);
  }
}

std::vector<std::vector<double>> SplitHorizonBands(
    const std::vector<double>& x, int64_t num_bands) {
  const int64_t n = static_cast<int64_t>(x.size());
  std::vector<double> scratch(BandSplitScratchSize(n, num_bands));
  std::vector<double> flat(num_bands * n);
  SplitHorizonBandsInto(x.data(), n, num_bands, scratch.data(), flat.data());
  std::vector<std::vector<double>> bands(num_bands);
  for (int64_t b = 0; b < num_bands; ++b) {
    bands[b].assign(flat.begin() + b * n, flat.begin() + (b + 1) * n);
  }
  return bands;
}

}  // namespace cit::signal
