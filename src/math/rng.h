#ifndef CIT_MATH_RNG_H_
#define CIT_MATH_RNG_H_

#include <cstdint>
#include <vector>

namespace cit::math {

// Deterministic pseudo-random generator (xoshiro256++ seeded via SplitMix64).
// Every stochastic component in the library takes an explicit seed so that
// experiments are exactly reproducible; std::mt19937 is avoided because its
// distributions are not portable across standard-library implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Raw 64 random bits.
  uint64_t NextU64();

  // Uniform in [0, 1).
  double Uniform();

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  // Standard normal via Box-Muller (second draw cached).
  double Normal();

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  // Gamma(shape, 1) via Marsaglia-Tsang; shape > 0.
  double Gamma(double shape);

  // A point uniform (alpha=1) or concentrated on the probability simplex.
  // Returns k non-negative entries summing to 1.
  std::vector<double> Dirichlet(int k, double alpha);

  // Derives an independent stream for a sub-component (e.g. per policy).
  Rng Fork();

  // Counter-split stream derivation: a generator that depends only on
  // (seed, stream, substream), not on any sequential draw order. Each
  // on-policy training update draws its rollout from
  // Split(config.seed, step, 0), so the update index alone fixes the
  // stream: the same for any thread count and after a resume.
  static Rng Split(uint64_t seed, uint64_t stream, uint64_t substream);

  // Full generator state, exposed so trainers with a sequential RNG (DDPG)
  // can checkpoint mid-run and resume bitwise-identically.
  struct State {
    uint64_t s[4] = {0, 0, 0, 0};
    bool has_cached_normal = false;
    double cached_normal = 0.0;
  };
  State SaveState() const;
  void RestoreState(const State& state);

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace cit::math

#endif  // CIT_MATH_RNG_H_
