// Non-cryptographic content hashes: which one serves what.
//
// - fnv1a: byte-wise FNV-1a 64-bit. Tiny and stable, but ~1 byte per
//   multiply. It fingerprints small keys and anything pinned in checked-in
//   files: golden-frame hashes (tests/golden/), TileStore keys, field
//   fingerprints, service job keys and perfbench input hashes. Changing it
//   would invalidate those files and baselines, so it does not change.
// - lane_hash: four independent 64-bit multiply-xorshift lanes over 8-byte
//   words, then the tail and the byte length, then a 64-bit finalizer. It
//   runs at roughly memory speed and hashes bulk pixel data on the per-frame
//   path: Framebuffer::content_hash and net::tile_payload_hash. Its values
//   are part of the wire contract (net::kProtocolVersion), and
//   tests/test_util.cpp pins known answers so they cannot drift silently.
//
// Neither is cryptographic; each only has to make an accidental collision
// between a corrupted or regressed buffer and the expected one astronomically
// unlikely. For lane_hash every step is a bijection in the word it absorbs
// and in the lane it updates, and the fold and finalizer are bijections in
// each lane, so two inputs of equal length that differ in one 8-byte word
// always hash differently — in particular every single-bit flip is caught.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dcsn::util {

inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// Hashes `bytes` bytes starting at `data`; chain calls via `seed`.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                         std::uint64_t seed = kFnv1aOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnv1aPrime;
  }
  return h;
}

inline constexpr std::uint64_t kLaneHashSeed = 0x243F6A8885A308D3ULL;

namespace detail {

inline constexpr std::uint64_t kLaneMul = 0x9E3779B97F4A7C15ULL;  // odd

/// Absorbs word `w` into lane `h`: xor, odd multiply and xorshift are each
/// bijective, so the step is a bijection in `w` and in `h`.
[[nodiscard]] inline std::uint64_t lane_step(std::uint64_t h, std::uint64_t w) {
  h = (h ^ w) * kLaneMul;
  return h ^ (h >> 32);
}

[[nodiscard]] inline std::uint64_t load_word(const unsigned char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

}  // namespace detail

/// Hashes `bytes` bytes starting at `data` at roughly memory speed; chain
/// calls via `seed`. Words load in host byte order, so values are only
/// portable between little-endian hosts (the wire requires one anyway).
[[nodiscard]] inline std::uint64_t lane_hash(const void* data, std::size_t bytes,
                                             std::uint64_t seed = kLaneHashSeed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t lane[4] = {seed ^ 0x13198A2E03707344ULL, seed ^ 0xA4093822299F31D0ULL,
                           seed ^ 0x082EFA98EC4E6C89ULL, seed ^ 0x452821E638D01377ULL};
  std::size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    lane[0] = detail::lane_step(lane[0], detail::load_word(p + i));
    lane[1] = detail::lane_step(lane[1], detail::load_word(p + i + 8));
    lane[2] = detail::lane_step(lane[2], detail::load_word(p + i + 16));
    lane[3] = detail::lane_step(lane[3], detail::load_word(p + i + 24));
  }
  // Up to three whole words, then a zero-padded partial word, continue the
  // lane rotation; the byte length below tells zero padding from zero data.
  std::size_t next = 0;
  for (; i + 8 <= bytes; i += 8, ++next) {
    lane[next] = detail::lane_step(lane[next], detail::load_word(p + i));
  }
  if (i < bytes) {
    unsigned char tail[8] = {};
    std::memcpy(tail, p + i, bytes - i);
    lane[next] = detail::lane_step(lane[next], detail::load_word(tail));
  }
  std::uint64_t h = detail::lane_step(lane[0], lane[1]);
  h = detail::lane_step(h, lane[2]);
  h = detail::lane_step(h, lane[3]);
  h = detail::lane_step(h, static_cast<std::uint64_t>(bytes));
  // MurmurHash3's fmix64: a bijective avalanche finalizer.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace dcsn::util
