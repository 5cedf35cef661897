// Implementation-independent random primitives.
//
// The standard fixes std::*_distribution's statistics but not their
// algorithms, so libstdc++ and libc++ draw different sequences from one
// engine. Arrival schedules, Zipf ranks, chaos plans and backoff jitter use
// the helpers below and replay bit-identically under any standard library.
// The trace generators' coins and uniform node ids and core/shape.cpp's
// random shapes still use std::uniform_{real,int}_distribution, so traces,
// shapes and the goldens and pins derived from them hold under libstdc++
// only, which both CI compilers link.
#pragma once

#include <cstdint>
#include <random>

namespace san {

/// Uniform double in (0, 1], built from the top 53 bits of a raw RNG word.
/// The +1 keeps 0 out of the range, making -log(u) finite.
inline double uniform_open(std::mt19937_64& rng) {
  return (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
}

/// splitmix64's increment, 2^64 / golden ratio (odd).
inline constexpr std::uint64_t kSplitmix64Gamma = 0x9e3779b97f4a7c15ull;

/// splitmix64 finalizer: a fixed 64-bit mix used as a seeded stateless
/// hash (shard scattering, the rebalance window's slot index). Never
/// change the constants — checked-in partitions, chaos plans and backoff
/// schedules depend on them.
inline std::uint64_t splitmix64_mix(std::uint64_t x) {
  x += kSplitmix64Gamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// splitmix64 as a stateful generator: returns the mix of the current
/// state, then advances the state by the gamma. Tiny, seedable and stable
/// across platforms (chaos plans, handover-retry backoff jitter).
inline std::uint64_t splitmix64_next(std::uint64_t& state) {
  const std::uint64_t x = splitmix64_mix(state);
  state += kSplitmix64Gamma;
  return x;
}

}  // namespace san
