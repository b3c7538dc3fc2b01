// Deterministic pseudo-random numbers for the benchmark's input generators.
//
// SplitMix64 with our own bounded and real-valued draws, so the same seed
// yields the same inputs on every standard library (std distributions are
// implementation-defined).

#ifndef PERFBENCH_RNG_H_
#define PERFBENCH_RNG_H_

#include <cstdint>

namespace perfbench {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n); n must be positive.
  uint32_t Below(uint32_t n) {
    return static_cast<uint32_t>(((Next() >> 32) * n) >> 32);
  }

  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from a run seed and a stream tag.
inline uint64_t StreamSeed(uint64_t seed, uint64_t tag) {
  Rng r(seed ^ (tag * 0xd1b54a32d192ed03ULL));
  return r.Next();
}

}  // namespace perfbench

#endif  // PERFBENCH_RNG_H_
