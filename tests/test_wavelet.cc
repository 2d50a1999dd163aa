#include "signal/wavelet.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "market/scenario.h"
#include "market/simulator.h"
#include "market/source.h"
#include "math/rng.h"
#include "rl/features.h"
#include "signal/filters.h"

namespace cit::signal {
namespace {

// ---- The bitwise oracle ----------------------------------------------------
// The vector implementation the in-place split replaced, kept verbatim:
// decompose into per-level coefficient vectors, then reconstruct each band
// from a copy with every other coefficient zeroed. SplitHorizonBandsInto
// must reproduce it bit for bit, signed zeros and NaN payloads included.
namespace oracle {

const double kInvSqrt2 = 1.0 / std::sqrt(2.0);

struct DwtCoeffs {
  std::vector<std::vector<double>> details;
  std::vector<double> approx;
  std::vector<int64_t> level_lengths;

  int64_t levels() const { return static_cast<int64_t>(details.size()); }
};

void HaarStep(const std::vector<double>& x, std::vector<double>* approx,
              std::vector<double>* detail) {
  std::vector<double> padded = x;
  if (padded.size() % 2 != 0) padded.push_back(padded.back());
  const size_t half = padded.size() / 2;
  approx->resize(half);
  detail->resize(half);
  for (size_t i = 0; i < half; ++i) {
    const double a = padded[2 * i];
    const double b = padded[2 * i + 1];
    (*approx)[i] = (a + b) * kInvSqrt2;
    (*detail)[i] = (a - b) * kInvSqrt2;
  }
}

std::vector<double> HaarInverseStep(const std::vector<double>& approx,
                                    const std::vector<double>& detail,
                                    int64_t original_len) {
  std::vector<double> x(approx.size() * 2);
  for (size_t i = 0; i < approx.size(); ++i) {
    x[2 * i] = (approx[i] + detail[i]) * kInvSqrt2;
    x[2 * i + 1] = (approx[i] - detail[i]) * kInvSqrt2;
  }
  x.resize(original_len);
  return x;
}

DwtCoeffs HaarDecompose(const std::vector<double>& x, int64_t levels) {
  DwtCoeffs coeffs;
  std::vector<double> current = x;
  for (int64_t l = 0; l < levels; ++l) {
    coeffs.level_lengths.push_back(static_cast<int64_t>(current.size()));
    std::vector<double> approx;
    std::vector<double> detail;
    HaarStep(current, &approx, &detail);
    coeffs.details.push_back(std::move(detail));
    current = std::move(approx);
    if (current.size() == 1 && l + 1 < levels) break;
  }
  coeffs.approx = std::move(current);
  return coeffs;
}

std::vector<double> HaarReconstruct(const DwtCoeffs& coeffs) {
  std::vector<double> current = coeffs.approx;
  for (int64_t l = coeffs.levels() - 1; l >= 0; --l) {
    current = HaarInverseStep(current, coeffs.details[l],
                              coeffs.level_lengths[l]);
  }
  return current;
}

std::vector<double> ReconstructBand(const DwtCoeffs& coeffs, int64_t band) {
  const int64_t levels = coeffs.levels();
  DwtCoeffs masked = coeffs;
  if (band == 0) {
    for (auto& d : masked.details) std::fill(d.begin(), d.end(), 0.0);
  } else {
    const int64_t keep_level = levels - band;
    std::fill(masked.approx.begin(), masked.approx.end(), 0.0);
    for (int64_t l = 0; l < levels; ++l) {
      if (l != keep_level) {
        std::fill(masked.details[l].begin(), masked.details[l].end(), 0.0);
      }
    }
  }
  return HaarReconstruct(masked);
}

std::vector<std::vector<double>> SplitHorizonBands(
    const std::vector<double>& x, int64_t num_bands) {
  if (num_bands == 1) return {x};
  DwtCoeffs coeffs = HaarDecompose(x, num_bands - 1);
  const int64_t effective_bands = coeffs.levels() + 1;
  std::vector<std::vector<double>> bands;
  for (int64_t b = 0; b < num_bands; ++b) {
    if (b < effective_bands) {
      bands.push_back(ReconstructBand(coeffs, b));
    } else {
      bands.emplace_back(x.size(), 0.0);
    }
  }
  return bands;
}

// The per-tensor feature build the one-block build replaced.
math::Tensor NormalizedWindow(const market::PanelView& panel, int64_t day,
                              int64_t window, float scale = 10.0f) {
  const int64_t m = panel.num_assets();
  math::Tensor out({m, 1, window});
  for (int64_t i = 0; i < m; ++i) {
    const double anchor = panel.Close(day, i);
    for (int64_t k = 0; k < window; ++k) {
      const double p = panel.Close(day - window + 1 + k, i);
      out.At({i, 0, k}) = static_cast<float>(scale * (p / anchor - 1.0));
    }
  }
  return out;
}

math::Tensor FlatWindow(const market::PanelView& panel, int64_t day,
                        int64_t window, float scale = 10.0f) {
  const int64_t m = panel.num_assets();
  math::Tensor out({window * m});
  for (int64_t k = 0; k < window; ++k) {
    for (int64_t i = 0; i < m; ++i) {
      const double anchor = panel.Close(day, i);
      const double p = panel.Close(day - window + 1 + k, i);
      out[k * m + i] = static_cast<float>(scale * (p / anchor - 1.0));
    }
  }
  return out;
}

std::vector<math::Tensor> HorizonBandWindows(const market::PanelView& panel,
                                             int64_t day, int64_t window,
                                             int64_t num_bands,
                                             float scale = 10.0f) {
  const int64_t m = panel.num_assets();
  std::vector<math::Tensor> bands;
  for (int64_t b = 0; b < num_bands; ++b) {
    bands.emplace_back(math::Shape{m, 1, window});
  }
  std::vector<double> series(window);
  for (int64_t i = 0; i < m; ++i) {
    const double anchor = panel.Close(day, i);
    for (int64_t k = 0; k < window; ++k) {
      const double p = panel.Close(day - window + 1 + k, i);
      series[k] = scale * (p / anchor - 1.0);
    }
    const auto split = SplitHorizonBands(series, num_bands);
    for (int64_t b = 0; b < num_bands; ++b) {
      for (int64_t k = 0; k < window; ++k) {
        bands[b].At({i, 0, k}) = static_cast<float>(split[b][k]);
      }
    }
  }
  return bands;
}

// The critic's view of a [m, 1, z] window: its trailing cd days.
math::Tensor CriticView(const math::Tensor& window, int64_t cd) {
  const int64_t m = window.dim(0);
  const int64_t z = window.dim(2);
  return window.Slice(2, z - cd, cd).Reshape({cd * m});
}

}  // namespace oracle

std::vector<double> RandomSignal(int64_t n, uint64_t seed) {
  math::Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.Normal();
  return x;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// A quiet NaN with a payload, and one with the sign bit set: arithmetic
// carries a NaN operand's payload through, so a split that reorders or
// drops a `+ 0.0` shows up in the bits.
const double kNanPayload = FromBits(0x7ff800000000beefULL);
const double kNegNanPayload = FromBits(0xfff8000000c0ffeeULL);
const double kInf = std::numeric_limits<double>::infinity();

// Every signal family the bitwise sweep runs at one length.
std::vector<std::pair<std::string, std::vector<double>>> SignalFamilies(
    int64_t n) {
  std::vector<std::pair<std::string, std::vector<double>>> out;
  out.push_back({"normal", RandomSignal(n, 100 + static_cast<uint64_t>(n))});
  out.push_back({"constant", std::vector<double>(n, 1.5)});
  out.push_back({"zeros", std::vector<double>(n, 0.0)});
  out.push_back({"negative_zeros", std::vector<double>(n, -0.0)});
  math::Rng rng(200 + static_cast<uint64_t>(n));
  std::vector<double> signed_zeros(n);
  for (double& v : signed_zeros) v = rng.Uniform() < 0.5 ? 0.0 : -0.0;
  out.push_back({"signed_zeros", signed_zeros});
  // Mostly signed zeros with a few tiny values, so masked sums see -0.0
  // next to nonzero coefficients.
  std::vector<double> sparse(n);
  for (double& v : sparse) {
    const double u = rng.Uniform();
    v = u < 0.4 ? -0.0 : (u < 0.8 ? 0.0 : (u < 0.9 ? 1e-300 : -4.9e-324));
  }
  out.push_back({"sparse_zeros", sparse});
  // Non-finite values: +-inf and NaNs (one payload per signal, so no sum
  // of two different NaNs depends on operand order), among normals.
  const double specials[] = {kInf, -kInf, kNanPayload, -0.0, 1e308};
  for (double special : specials) {
    std::vector<double> x = RandomSignal(n, 300 + static_cast<uint64_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      if (rng.Uniform() < 0.2) x[i] = special;
    }
    x[rng.UniformInt(n)] = special;
    out.push_back({"special_" + std::to_string(special), x});
  }
  std::vector<double> neg_nan(n, -2.0);
  neg_nan[n - 1] = kNegNanPayload;  // the padded sample of odd lengths
  out.push_back({"negative_nan_last", neg_nan});
  std::vector<double> inf_pair = RandomSignal(n, 400 + static_cast<uint64_t>(n));
  inf_pair[0] = kInf;
  if (n > 1) inf_pair[1] = kInf;  // inf - inf: a generated NaN
  out.push_back({"inf_pair", inf_pair});
  return out;
}

// One split through SplitHorizonBandsInto, with scratch and output
// poisoned beforehand so that a read of unwritten memory shows.
std::vector<double> SplitInto(const std::vector<double>& x,
                              int64_t num_bands) {
  const int64_t n = static_cast<int64_t>(x.size());
  std::vector<double> scratch(BandSplitScratchSize(n, num_bands),
                              FromBits(0x7ff4dead0000dead));
  std::vector<double> bands(num_bands * n, FromBits(0x7ff4beef0000beef));
  SplitHorizonBandsInto(x.data(), n, num_bands, scratch.data(),
                        bands.data());
  return bands;
}

// ---- Bitwise equality with the oracle --------------------------------------

TEST(BandSplitOracle, EveryLengthAndDepthBitwise) {
  int64_t cases = 0;
  for (int64_t n = 1; n <= 64; ++n) {
    for (const auto& [family, x] : SignalFamilies(n)) {
      for (int64_t num_bands = 1; num_bands <= 6; ++num_bands) {
        const auto want = oracle::SplitHorizonBands(x, num_bands);
        const std::vector<double> got = SplitInto(x, num_bands);
        const auto wrapped = SplitHorizonBands(x, num_bands);
        ASSERT_EQ(static_cast<int64_t>(wrapped.size()), num_bands);
        for (int64_t b = 0; b < num_bands; ++b) {
          ASSERT_EQ(0, std::memcmp(want[b].data(), got.data() + b * n,
                                   n * sizeof(double)))
              << family << " n=" << n << " bands=" << num_bands
              << " band=" << b;
          ASSERT_EQ(0, std::memcmp(want[b].data(), wrapped[b].data(),
                                   n * sizeof(double)))
              << family << " n=" << n << " bands=" << num_bands
              << " band=" << b;
        }
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 64 * 13 * 6);
}

TEST(BandSplitOracle, SignalsTooShortForTheDepthBitwise) {
  // Every requested depth past the signal's own: the split stops when the
  // approximation reaches one sample and the surplus bands are +0.0.
  for (int64_t n : {1, 2, 3, 4, 5}) {
    const auto x = RandomSignal(n, 500 + static_cast<uint64_t>(n));
    for (int64_t num_bands = 2; num_bands <= 12; ++num_bands) {
      const auto want = oracle::SplitHorizonBands(x, num_bands);
      const std::vector<double> got = SplitInto(x, num_bands);
      for (int64_t b = 0; b < num_bands; ++b) {
        ASSERT_EQ(0, std::memcmp(want[b].data(), got.data() + b * n,
                                 n * sizeof(double)))
            << "n=" << n << " bands=" << num_bands << " band=" << b;
      }
    }
  }
}

TEST(BandSplitOracle, ScratchSizeIsExact) {
  // The forward pass writes every scratch element it is given: a smaller
  // buffer would not hold the coefficients.
  for (int64_t n = 1; n <= 64; ++n) {
    for (int64_t num_bands = 1; num_bands <= 6; ++num_bands) {
      int64_t expected = n;
      if (num_bands > 1) {
        const auto c = oracle::HaarDecompose(std::vector<double>(n, 1.0),
                                             num_bands - 1);
        for (const auto& d : c.details) {
          expected += static_cast<int64_t>(d.size());
        }
      }
      EXPECT_EQ(BandSplitScratchSize(n, num_bands), expected)
          << "n=" << n << " bands=" << num_bands;
    }
  }
}

// ---- Feature block against the per-tensor build ----------------------------

struct FeatureShape {
  const char* name;
  int64_t assets, window, bands, critic_days;
};

// U.S. shape (the paper's defaults at default scale) and citd's shape.
const FeatureShape kFeatureShapes[] = {{"us", 20, 24, 5, 8},
                                       {"citd", 8, 16, 3, 8}};

market::PricePanel FeaturePanel(int64_t assets) {
  market::MarketConfig cfg;
  cfg.num_assets = assets;
  cfg.train_days = 120;
  cfg.test_days = 80;
  cfg.seed = 31;
  return market::SimulateMarket(cfg);
}

bool SameBits(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

// Checks one day's block, and each wrapper, against the oracle build.
void ExpectBlockMatchesOracle(const market::PanelView& view, int64_t day,
                              const FeatureShape& s,
                              const std::string& label) {
  const int64_t m = s.assets, z = s.window, n = s.bands, cd = s.critic_days;
  std::vector<float> block(rl::FeatureBlockSize(m, z, n, cd), -7.0f);
  std::vector<double> scratch(rl::FeatureBlockScratchSize(z, n), -7.0);
  rl::FeatureBlockInto(view, day, z, n, cd, scratch.data(), block.data());

  const math::Tensor market = oracle::NormalizedWindow(view, day, z);
  const auto bands = oracle::HorizonBandWindows(view, day, z, n);
  std::vector<math::Tensor> windows = {market};
  windows.insert(windows.end(), bands.begin(), bands.end());
  const float* flats = block.data() + (1 + n) * m * z;
  for (int64_t j = 0; j <= n; ++j) {
    ASSERT_TRUE(SameBits(block.data() + j * m * z, windows[j].data(), m * z))
        << label << " day=" << day << " window=" << j;
    const math::Tensor flat = oracle::CriticView(windows[j], cd);
    ASSERT_TRUE(SameBits(flats + j * m * cd, flat.data(), m * cd))
        << label << " day=" << day << " flat=" << j;
  }

  const math::Tensor wrapped = rl::NormalizedWindow(view, day, z);
  ASSERT_EQ(wrapped.shape(), market.shape());
  ASSERT_TRUE(SameBits(wrapped.data(), market.data(), m * z)) << label;
  const math::Tensor flat = rl::FlatWindow(view, day, z);
  const math::Tensor want_flat = oracle::FlatWindow(view, day, z);
  ASSERT_EQ(flat.shape(), want_flat.shape());
  ASSERT_TRUE(SameBits(flat.data(), want_flat.data(), m * z)) << label;
  const auto wrapped_bands = rl::HorizonBandWindows(view, day, z, n);
  ASSERT_EQ(wrapped_bands.size(), bands.size());
  for (int64_t b = 0; b < n; ++b) {
    ASSERT_EQ(wrapped_bands[b].shape(), bands[b].shape());
    ASSERT_TRUE(SameBits(wrapped_bands[b].data(), bands[b].data(), m * z))
        << label << " band=" << b;
  }
}

TEST(FeatureBlockOracle, SimulatedPanelBitwise) {
  for (const FeatureShape& s : kFeatureShapes) {
    const market::PricePanel panel = FeaturePanel(s.assets);
    market::InMemorySource source(&panel);
    const market::PanelView view(&source);
    for (int64_t day = s.window - 1; day < panel.num_days(); ++day) {
      ExpectBlockMatchesOracle(view, day, s, s.name);
    }
  }
}

TEST(FeatureBlockOracle, ZeroedHaltQuotesBitwise) {
  // halt:zero=1 zeroes asset 0's quotes for 30 test days, so windows
  // anchored on a zero quote divide by zero: +inf, and NaN where the
  // window's own quote is zero too.
  const auto specs = market::ParseScenarioStack("halt:zero=1");
  ASSERT_TRUE(specs.ok());
  for (const FeatureShape& s : kFeatureShapes) {
    const market::PricePanel panel = FeaturePanel(s.assets);
    market::InMemorySource base(&panel);
    auto made = market::ScenarioSource::Make(&base, specs.value());
    ASSERT_TRUE(made.ok());
    const market::PanelView view(made.value().get());
    int64_t non_finite_days = 0;
    for (int64_t day = s.window - 1; day < panel.num_days(); ++day) {
      ExpectBlockMatchesOracle(view, day, s, std::string(s.name) + "+halt");
      const math::Tensor w = rl::NormalizedWindow(view, day, s.window);
      bool finite = true;
      for (int64_t i = 0; i < w.numel(); ++i) finite &= std::isfinite(w[i]);
      non_finite_days += finite ? 0 : 1;
    }
    EXPECT_EQ(non_finite_days, 30) << s.name;
  }
}

// ---- Properties of the split -----------------------------------------------

double SumOfSquares(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return s;
}

void ExpectBandsSumTo(const std::vector<double>& x, int64_t num_bands,
                      double tol) {
  const auto split = SplitHorizonBands(x, num_bands);
  ASSERT_EQ(static_cast<int64_t>(split.size()), num_bands);
  for (size_t i = 0; i < x.size(); ++i) {
    double total = 0.0;
    for (const auto& b : split) total += b[i];
    EXPECT_NEAR(total, x[i], tol)
        << "n=" << x.size() << " bands=" << num_bands << " i=" << i;
  }
}

TEST(HaarDwt, SingleLevelKnownCoefficients) {
  // a = ((1+3), (2+6)) / sqrt2 and d = ((1-3), (2-6)) / sqrt2, each
  // inverted alone.
  const auto split = SplitHorizonBands({1.0, 3.0, 2.0, 6.0}, 2);
  const std::vector<double> low = {2.0, 2.0, 4.0, 4.0};
  const std::vector<double> high = {-1.0, 1.0, -2.0, 2.0};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(split[0][i], low[i], 1e-12);
    EXPECT_NEAR(split[1][i], high[i], 1e-12);
  }
}

TEST(HaarDwt, PerfectReconstructionEvenLength) {
  const auto x = RandomSignal(64, 1);
  for (int64_t levels = 1; levels <= 5; ++levels) {
    ExpectBandsSumTo(x, levels + 1, 1e-10);
  }
}

TEST(HaarDwt, PerfectReconstructionOddLengths) {
  for (int64_t n : {3, 7, 13, 31, 57}) {
    ExpectBandsSumTo(RandomSignal(n, n), 4, 1e-10);
  }
}

TEST(HaarDwt, RoundtripPropertyOddAndPrimeLengths) {
  // Every odd/prime length times every depth up to (and past) the maximum
  // effective depth: odd levels exercise the pad-with-last-sample path at
  // every scale.
  for (int64_t n : {1, 2, 3, 5, 7, 11, 17, 19, 23, 29, 37, 41, 53, 61, 97}) {
    const auto x = RandomSignal(n, 1000 + static_cast<uint64_t>(n));
    for (int64_t levels = 1; levels <= 8; ++levels) {
      ExpectBandsSumTo(x, levels + 1, 1e-9);
    }
  }
}

TEST(HaarDwt, ParsevalEnergyConservation) {
  // With no padding the Haar basis is orthonormal, so the bands are
  // orthogonal projections and their energies add up to the signal's.
  const auto x = RandomSignal(32, 5);
  double energy = 0.0;
  for (const auto& band : SplitHorizonBands(x, 4)) {
    energy += SumOfSquares(band);
  }
  EXPECT_NEAR(energy, SumOfSquares(x), 1e-9);
}

TEST(HaarDwt, Linearity) {
  const auto x = RandomSignal(16, 7);
  const auto y = RandomSignal(16, 8);
  std::vector<double> z(16);
  for (int i = 0; i < 16; ++i) z[i] = 2.0 * x[i] - 3.0 * y[i];
  const auto bx = SplitHorizonBands(x, 3);
  const auto by = SplitHorizonBands(y, 3);
  const auto bz = SplitHorizonBands(z, 3);
  for (size_t b = 0; b < 3; ++b) {
    for (size_t i = 0; i < 16; ++i) {
      EXPECT_NEAR(bz[b][i], 2.0 * bx[b][i] - 3.0 * by[b][i], 1e-9);
    }
  }
}

TEST(HaarDwt, ConstantSignalIsPureApproximation) {
  const auto split = SplitHorizonBands(std::vector<double>(16, 3.0), 4);
  for (double v : split[0]) EXPECT_NEAR(v, 3.0, 1e-12);
  for (size_t b = 1; b < split.size(); ++b) {
    for (double v : split[b]) EXPECT_NEAR(v, 0.0, 1e-12);
  }
}

TEST(HorizonBands, SumToOriginalSignal) {
  const auto x = RandomSignal(48, 9);
  for (int64_t bands : {1, 2, 3, 5}) ExpectBandsSumTo(x, bands, 1e-9);
}

TEST(HorizonBands, LowBandIsSmootherThanHighBand) {
  // Roughness = mean squared first difference. The approximation band must
  // be smoother than the finest detail band for a noisy signal.
  const auto x = RandomSignal(64, 10);
  const auto split = SplitHorizonBands(x, 3);
  auto roughness = [](const std::vector<double>& v) {
    double s = 0.0;
    for (size_t i = 1; i < v.size(); ++i) {
      s += (v[i] - v[i - 1]) * (v[i] - v[i - 1]);
    }
    return s / static_cast<double>(v.size() - 1);
  };
  EXPECT_LT(roughness(split[0]), roughness(split[2]));
}

TEST(HorizonBands, SeparatesSlowAndFastSinusoids) {
  // A slow + fast sinusoid mixture: band 0 should correlate with the slow
  // component, the last band with the fast one.
  const int64_t n = 64;
  std::vector<double> slow(n), fast(n), mix(n);
  for (int64_t i = 0; i < n; ++i) {
    slow[i] = std::sin(2.0 * M_PI * i / 32.0);
    fast[i] = 0.5 * std::cos(M_PI * i);  // Nyquist-rate alternation
    mix[i] = slow[i] + fast[i];
  }
  const auto split = SplitHorizonBands(mix, 4);
  EXPECT_GT(PearsonCorrelation(split[0], slow), 0.8);
  EXPECT_GT(PearsonCorrelation(split[3], fast), 0.8);
}

TEST(HorizonBands, TooShortSignalYieldsZeroSurplusBands) {
  std::vector<double> x = {1.0, 2.0};  // only 1 level possible
  const auto split = SplitHorizonBands(x, 4);
  ASSERT_EQ(split.size(), 4u);
  // Bands beyond the effective depth are all-zero; the sum identity holds.
  for (size_t i = 0; i < x.size(); ++i) {
    double total = 0.0;
    for (const auto& b : split) total += b[i];
    EXPECT_NEAR(total, x[i], 1e-9);
  }
  for (double v : split[3]) EXPECT_EQ(v, 0.0);
}

TEST(Filters, L1MedianOfSymmetricPointsIsCenter) {
  std::vector<std::vector<double>> pts = {
      {1.0, 0.0}, {-1.0, 0.0}, {0.0, 1.0}, {0.0, -1.0}};
  const auto med = L1Median(pts);
  EXPECT_NEAR(med[0], 0.0, 1e-6);
  EXPECT_NEAR(med[1], 0.0, 1e-6);
}

TEST(Filters, L1MedianRobustToOutlier) {
  // Coordinate-wise mean is dragged by the outlier; L1 median is not.
  std::vector<std::vector<double>> pts = {
      {0.0}, {0.1}, {-0.1}, {0.05}, {100.0}};
  const auto med = L1Median(pts);
  EXPECT_LT(std::fabs(med[0]), 1.0);
}

TEST(Filters, PearsonCorrelationEdgeCases) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
  std::vector<double> c = {4, 3, 2, 1};
  EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-12);
  std::vector<double> flat = {5, 5, 5, 5};
  EXPECT_EQ(PearsonCorrelation(a, flat), 0.0);
}

}  // namespace
}  // namespace cit::signal
