// Deterministic, seedable random number generation.
//
// All stochastic components in the library (data synthesis, worker
// simulation, group sampling, weight init, optimizers) draw from an Rng
// passed in explicitly, so every experiment is reproducible from a seed.
// The engine is xoshiro256** seeded via splitmix64 — fast, high quality,
// and stable across platforms (unlike std::normal_distribution, whose
// output differs between standard library implementations; we implement
// our own transforms).

#ifndef RLL_COMMON_RNG_H_
#define RLL_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace rll {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation), seeded with splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) { Seed(seed); }

  /// Re-seeds the generator; identical seeds yield identical streams.
  void Seed(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Marsaglia polar method.
  double Normal();

  /// Normal with the given mean and stddev.
  double Normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Gamma(shape, 1) via Marsaglia–Tsang; shape > 0.
  double Gamma(double shape);

  /// Beta(alpha, beta) via two Gamma draws; alpha, beta > 0.
  double Beta(double alpha, double beta);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// k distinct indices sampled uniformly from [0, n) in selection order.
  /// Requires k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Index sampled from an unnormalized non-negative weight vector.
  size_t Categorical(const std::vector<double>& weights);

  /// Derives an independent child generator (for per-fold / per-worker
  /// streams that must not interact).
  Rng Split();

 private:
  uint64_t state_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Derives the seed of stream `index` under `parent` — a splitmix64-based
/// hash of both values, so the streams {SplitSeed(p, 0), SplitSeed(p, 1),
/// …} are statistically independent of each other and of Rng(p) itself.
///
/// This is the seeding discipline for every parallel layer: instead of
/// threading one mutable Rng through a loop (whose draws would then depend
/// on execution order), the caller derives one seed per unit of work —
/// per fold, per epoch, per example — and each task builds a private
/// Rng(SplitSeed(parent, i)). Results are then independent of how tasks
/// interleave across threads.
uint64_t SplitSeed(uint64_t parent, uint64_t index);

}  // namespace rll

#endif  // RLL_COMMON_RNG_H_
