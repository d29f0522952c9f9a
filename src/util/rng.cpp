#include "util/rng.h"

#include <cmath>

#include "util/error.h"

namespace dnnv {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
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

std::uint64_t Rng::uniform_u64(std::uint64_t bound) {
  DNNV_CHECK(bound > 0, "uniform_u64 bound must be positive");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

int Rng::uniform_int(int lo, int hi) {
  DNNV_CHECK(lo <= hi, "uniform_int requires lo <= hi, got " << lo << " > " << hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - lo + 1;
  // A span past INT_MAX draws offsets no int holds: add in 64 bits; the sum
  // lies in [lo, hi].
  return static_cast<int>(static_cast<std::int64_t>(lo) +
                          static_cast<std::int64_t>(uniform_u64(span)));
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::flip(double p_true) { return uniform() < p_true; }

Rng Rng::split(std::uint64_t salt) const {
  // Mix the current state with the salt through SplitMix64; the child's state
  // depends only on (state_, salt), not on how often the parent is used later.
  std::uint64_t mix = state_[0] ^ rotl(state_[3], 13) ^ (salt * 0xD1342543DE82EF95ull);
  return Rng(splitmix64(mix));
}

void Rng::shuffle(std::vector<int>& values) {
  for (std::size_t i = values.size(); i > 1; --i) {
    const std::size_t j = uniform_u64(i);
    std::swap(values[i - 1], values[j]);
  }
}

}  // namespace dnnv
