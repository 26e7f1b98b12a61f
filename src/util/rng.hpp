// Deterministic random number generation for reproducible distributed runs.
//
// Every randomized component in freelunch draws from a Xoshiro256** stream
// derived from a (seed, node, level, trial) key via SplitMix64 mixing. This
// guarantees:
//   * a distributed Sampler run is bit-reproducible given its seed;
//   * per-node streams are statistically independent, matching the paper's
//     model where each node owns private randomness;
//   * tests can replay exact executions when a property fails.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace fl::util {

/// SplitMix64 — tiny, fast mixer used to seed and key other generators.
/// Passes BigCrush when used as a generator; we use it mostly as a hash.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Stateless mix of a single value (useful as a 64-bit hash).
  static std::uint64_t mix(std::uint64_t x) { return SplitMix64(x).next(); }

  /// Combine two 64-bit values into one well-mixed value.
  static std::uint64_t combine(std::uint64_t a, std::uint64_t b) {
    return mix(a ^ (0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2) + mix(b)));
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** — the workhorse generator. Satisfies UniformRandomBitGenerator
/// so it can be plugged into <random> distributions, but freelunch uses the
/// bias-free helpers below instead of std distributions to keep cross-platform
/// determinism (libstdc++ / libc++ implement distributions differently).
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t bound) {
    FL_REQUIRE(bound > 0, "below() needs a positive bound");
    // 128-bit multiply-shift with rejection of the short range.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    FL_REQUIRE(lo <= hi, "uniform_int() needs lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Pick an index into a non-empty container of size `n` uniformly.
  std::size_t index(std::size_t n) {
    FL_REQUIRE(n > 0, "index() needs a non-empty range");
    return static_cast<std::size_t>(below(n));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

/// Derives independent per-entity generator streams from a master seed.
///
/// The paper's algorithm keys randomness by node, hierarchy level and trial
/// index; StreamFactory reproduces that keying so the distributed and
/// centralized implementations can share randomness when desired.
class StreamFactory {
 public:
  explicit StreamFactory(std::uint64_t master_seed) : master_(master_seed) {}

  /// Stream for a (node) key.
  Xoshiro256 node_stream(std::uint64_t node) const {
    return Xoshiro256(SplitMix64::combine(master_, node));
  }

  /// Stream for a (node, level, trial) key.
  Xoshiro256 trial_stream(std::uint64_t node, std::uint64_t level,
                          std::uint64_t trial) const {
    return Xoshiro256(SplitMix64::combine(
        SplitMix64::combine(SplitMix64::combine(master_, node), level),
        trial));
  }

 private:
  std::uint64_t master_;
};

/// Fisher–Yates shuffle with a caller-supplied generator (deterministic).
template <typename T>
void shuffle(std::vector<T>& v, Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::size_t j = rng.index(i);
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

/// Reservoir-sample `k` items out of [0, n). Returns ascending indices count
/// may be < k when n < k. Used by tests to pick random vertex pairs.
std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                    std::size_t k,
                                                    Xoshiro256& rng);

}  // namespace fl::util
