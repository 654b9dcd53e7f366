// Cross-tier byte-equality suite for the runtime-dispatched SIMD kernels.
//
// The contract (util/simd_dispatch.hpp): every tier — SSE2, AVX2 —
// reproduces the scalar kernels BIT-FOR-BIT: signed zeros, infinities,
// denormals, and NaN *placement* included. The one sanctioned exception is
// the NaN *payload* when both operands of a float add are NaN: IEEE leaves
// the surviving payload to instruction operand order, and the compiler may
// legally commute an add on either side of the comparison, so a lane where
// both results are NaN compares equal regardless of payload bits. (Real
// profile data is NaN-free; the whole-engine hash test below is strict.)
// This suite enforces the contract three ways:
//
//  1. per-kernel fuzz: every kernel of every available tier against the
//     scalar table on adversarial float streams (random magnitudes, NaN,
//     -0.0, +/-inf, denormals), lane-compared over the whole destination
//     buffer so an out-of-bounds lane write cannot hide;
//  2. the fused span sampler on synthetic 32.32 fixed-point walks over
//     special-valued profile tables, including the slightly-negative
//     positions whose clamp is the subtlest part of the vector port, plus
//     the batched form (which may reorder and pack non-aliasing spans)
//     against span-by-span calls;
//  3. a whole-engine render per tier, hashes compared pairwise — the
//     end-to-end proof that tier choice cannot move one bit of a frame.
//
// ctest label: simd. DCSN_SIMD=<tier> runs the rest of the test suite under
// one tier; this binary instead iterates every tier the host can run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/spot_source.hpp"
#include "field/analytic.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/simd_dispatch.hpp"

namespace {

using namespace dcsn;
namespace simd = util::simd;

// Restores the ambient dispatch tier, so a failing test cannot leak a
// non-default tier into later suites.
class TierGuard {
 public:
  TierGuard() : saved_(simd::active_tier()) {}
  ~TierGuard() { simd::set_active_tier(saved_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  simd::Tier saved_;
};

// Adversarial float stream: mostly finite values spanning many magnitudes,
// salted with the IEEE specials every blend kernel must forward untouched.
float fuzz_float(util::Rng& rng) {
  switch (rng() % 16) {
    case 0:
      return std::numeric_limits<float>::quiet_NaN();
    case 1:
      return -0.0f;
    case 2:
      return std::numeric_limits<float>::infinity();
    case 3:
      return -std::numeric_limits<float>::infinity();
    case 4:
      return std::numeric_limits<float>::denorm_min() *
             static_cast<float>(1 + rng() % 100);
    case 5:
      return 0.0f;
    default: {
      const float mag = static_cast<float>(
          std::pow(10.0, rng.uniform(-12.0, 8.0)));
      return rng() % 2 ? mag : -mag;
    }
  }
}

std::vector<float> fuzz_buffer(util::Rng& rng, std::size_t n) {
  std::vector<float> out(n);
  for (float& f : out) f = fuzz_float(rng);
  return out;
}

std::uint32_t float_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// Lane-by-lane bit comparison, with the sanctioned both-NaN payload
// exception described at the top of the file. NaN placement is still
// exact: a lane that is NaN on one side and not the other fails.
::testing::AssertionResult lanes_match(const std::vector<float>& want,
                                       const std::vector<float>& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::uint32_t a = float_bits(want[i]);
    const std::uint32_t b = float_bits(got[i]);
    if (a == b) continue;
    if (std::isnan(want[i]) && std::isnan(got[i])) continue;
    return ::testing::AssertionFailure()
           << "lane " << i << ": want 0x" << std::hex << a << " got 0x" << b;
  }
  return ::testing::AssertionSuccess();
}

#define EXPECT_BYTES_EQ(a, b, tier)                                         \
  EXPECT_TRUE(lanes_match((a), (b)))                                        \
      << "tier " << simd::tier_name(tier) << " diverged from scalar"

TEST(SimdKernels, ElementwiseKernelsMatchScalarBitwise) {
  const auto& scalar = simd::kernels_for(simd::Tier::kScalar);
  util::Rng rng(0x51d0u);
  for (const simd::Tier tier : simd::available_tiers()) {
    const auto& k = simd::kernels_for(tier);
    for (int round = 0; round < 200; ++round) {
      const std::size_t n = rng() % 130;  // covers empty, tails, full blocks
      const auto src = fuzz_buffer(rng, n);
      const auto base = fuzz_buffer(rng, n + 8);  // +8: overrun canary zone
      const float w = fuzz_float(rng);
      const float v = fuzz_float(rng);

      auto want = base;
      auto got = base;
      scalar.add(want.data(), src.data(), n);
      k.add(got.data(), src.data(), n);
      EXPECT_BYTES_EQ(want, got, tier);

      want = base;
      got = base;
      scalar.add_scaled(want.data(), src.data(), w, n);
      k.add_scaled(got.data(), src.data(), w, n);
      EXPECT_BYTES_EQ(want, got, tier);

      want = base;
      got = base;
      scalar.max_scaled(want.data(), src.data(), w, n);
      k.max_scaled(got.data(), src.data(), w, n);
      EXPECT_BYTES_EQ(want, got, tier);

      want = base;
      got = base;
      scalar.max_with(want.data(), v, n);
      k.max_with(got.data(), v, n);
      EXPECT_BYTES_EQ(want, got, tier);

      want = base;
      got = base;
      scalar.quantize_span(want.data(), src.data(), n);
      k.quantize_span(got.data(), src.data(), n);
      EXPECT_BYTES_EQ(want, got, tier);
    }
  }
}

// A synthetic profile table + in-range 32.32 walk. The table carries fuzzed
// values (specials included) — the kernels only require positions to stay
// inside the table, not that the table holds a well-behaved profile.
struct FuzzSpan {
  simd::SampleSpan span;
  std::uint32_t len = 0;
};

constexpr std::size_t kTableStride = 80;  // padded_stride(64 + 1)
constexpr std::size_t kTableRows = 66;

// `like`, when set, copies the prototype's dfx/dfy/weight — the shape of a
// production batch, where one triangle's constant texture gradient makes
// every span share those (only start position and length vary). The batched
// kernels key a fast path off exactly that, so both shapes need coverage.
FuzzSpan make_span(util::Rng& rng, const std::vector<float>& table,
                   std::uint32_t max_len,
                   const simd::SampleSpan* like = nullptr) {
  FuzzSpan f;
  f.len = static_cast<std::uint32_t>(rng() % (max_len + 1));
  f.span.table = table.data();
  f.span.stride = kTableStride;
  if (like != nullptr) {
    f.span.dfx = like->dfx;
    f.span.dfy = like->dfy;
  } else {
    // Steps up to ~2 texels per fragment, either sign.
    f.span.dfx = static_cast<std::int64_t>(rng() % (1ull << 33)) - (1ll << 32);
    f.span.dfy = static_cast<std::int64_t>(rng() % (1ull << 33)) - (1ll << 32);
  }
  // Start so every step of the walk stays in [0, 63] x [0, 63] texels
  // (the +1 bilinear neighbour then stays inside the padded table)...
  const auto place = [&](std::int64_t df) {
    const std::int64_t walk = df * static_cast<std::int64_t>(
                                       f.len > 0 ? f.len - 1 : 0);
    const std::int64_t lo = walk < 0 ? -walk : 0;
    const std::int64_t hi = (63ll << 32) - (walk > 0 ? walk : 0);
    return lo + static_cast<std::int64_t>(
                    rng.uniform() * static_cast<double>(hi - lo));
  };
  f.span.fx0 = place(f.span.dfx);
  f.span.fy0 = place(f.span.dfy);
  // ...except an occasional epsilon-negative start: the scalar sampler
  // clamps fx < 0 to texel 0 / fraction 0, and every tier must too.
  if (f.len > 0 && rng() % 8 == 0 && f.span.dfx > 0) {
    f.span.fx0 = -static_cast<std::int64_t>(rng() % (1u << 20));
  }
  f.span.weight = like != nullptr ? like->weight : fuzz_float(rng);
  return f;
}

TEST(SimdKernels, FusedSpanSamplerMatchesScalarBitwise) {
  const auto& scalar = simd::kernels_for(simd::Tier::kScalar);
  util::Rng rng(0xfa57u);
  const auto table = fuzz_buffer(rng, kTableStride * kTableRows);
  for (const simd::Tier tier : simd::available_tiers()) {
    const auto& k = simd::kernels_for(tier);
    for (int round = 0; round < 400; ++round) {
      const FuzzSpan f = make_span(rng, table, 40);
      const auto base = fuzz_buffer(rng, f.len + 16);
      auto want = base;
      auto got = base;
      if (round % 2 == 0) {
        scalar.sample_row_add(want.data(), f.span, f.len);
        k.sample_row_add(got.data(), f.span, f.len);
      } else {
        scalar.sample_row_max(want.data(), f.span, f.len);
        k.sample_row_max(got.data(), f.span, f.len);
      }
      EXPECT_BYTES_EQ(want, got, tier);
    }
  }
}

// The batched kernels may reorder and pack spans (their documented license:
// batch spans never alias). Lay spans on disjoint rows of one destination
// and require the whole buffer to match span-by-span scalar calls — on
// every tier, with mixed short/single-block/multi-block lengths, zero
// lengths, a batch bigger than the internal chunking, and a batch whose
// spans come from two different tables (packing must fall back, not blend
// across tables).
TEST(SimdKernels, BatchedSpanKernelMatchesPerSpanCalls) {
  const auto& scalar = simd::kernels_for(simd::Tier::kScalar);
  util::Rng rng(0xba7c4u);
  const auto table_a = fuzz_buffer(rng, kTableStride * kTableRows);
  const auto table_b = fuzz_buffer(rng, kTableStride * kTableRows);
  constexpr std::size_t kWidth = 64;
  for (const simd::Tier tier : simd::available_tiers()) {
    const auto& k = simd::kernels_for(tier);
    for (int round = 0; round < 60; ++round) {
      const std::size_t count = 1 + rng() % 150;  // crosses the 64-chunk seam
      std::vector<FuzzSpan> spans;
      std::vector<simd::SampleSpan> raw;
      std::vector<std::uint32_t> lens;
      spans.reserve(count);
      // Alternate batch shapes: production-like (every span shares the
      // first span's dfx/dfy/weight — the batched fast path) and fully
      // heterogeneous (per-span parameters — the generic fallback).
      const bool production_shape = (round / 2) % 2 == 1;  // decoupled from
                                                           // the add/max pick
      for (std::size_t i = 0; i < count; ++i) {
        const auto& table = (round % 3 == 0 && i % 2 == 1) ? table_b : table_a;
        const simd::SampleSpan* like =
            production_shape && i > 0 ? &spans.front().span : nullptr;
        spans.push_back(make_span(rng, table, 30, like));
        raw.push_back(spans.back().span);
        lens.push_back(spans.back().len);
      }
      const auto base = fuzz_buffer(rng, count * kWidth);
      auto want = base;
      auto got = base;
      std::vector<float*> want_dst(count);
      std::vector<float*> got_dst(count);
      for (std::size_t i = 0; i < count; ++i) {
        want_dst[i] = want.data() + i * kWidth;
        got_dst[i] = got.data() + i * kWidth;
      }
      if (round % 2 == 0) {
        for (std::size_t i = 0; i < count; ++i) {
          scalar.sample_row_add(want_dst[i], raw[i], lens[i]);
        }
        k.sample_rows_add(got_dst.data(), raw.data(), lens.data(), count);
      } else {
        for (std::size_t i = 0; i < count; ++i) {
          scalar.sample_row_max(want_dst[i], raw[i], lens[i]);
        }
        k.sample_rows_max(got_dst.data(), raw.data(), lens.data(), count);
      }
      EXPECT_BYTES_EQ(want, got, tier);
    }
  }
}

TEST(SimdKernels, WholeEngineHashIdenticalAcrossTiers) {
  TierGuard guard;
  const field::Rect domain{0.0, 0.0, 4.0, 4.0};
  const auto f = field::analytic::rankine_vortex({2.0, 2.0}, 1.5, 1.0, domain);
  core::SynthesisConfig sc;
  sc.texture_width = 96;
  sc.texture_height = 96;
  sc.spot_count = 200;
  sc.spot_radius_px = 6.0;
  sc.kind = core::SpotKind::kEllipse;
  core::DncConfig dnc;
  dnc.processors = 4;
  dnc.pipes = 2;
  dnc.raster_algorithm = render::RasterAlgorithm::kSpan;

  util::Rng rng(20260808);
  auto spots = core::make_random_spots(f->domain(), sc.spot_count, rng);
  for (auto& s : spots) s.intensity *= 0.2;

  std::uint64_t scalar_hash = 0;
  for (const simd::Tier tier : simd::available_tiers()) {
    simd::set_active_tier(tier);
    core::DncSynthesizer engine(sc, dnc);
    engine.synthesize(*f, spots);
    const std::uint64_t h = engine.texture().content_hash();
    if (tier == simd::Tier::kScalar) {
      scalar_hash = h;
    } else {
      EXPECT_EQ(scalar_hash, h)
          << "tier " << simd::tier_name(tier)
          << " rendered a different frame than the scalar tier";
    }
  }
}

TEST(SimdDispatch, TierNamesRoundTripAndRejectUnknown) {
  for (const simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kSse2, simd::Tier::kAvx2}) {
    simd::Tier parsed{};
    ASSERT_TRUE(simd::tier_from_name(simd::tier_name(t), parsed));
    EXPECT_EQ(t, parsed);
  }
  simd::Tier parsed{};
  EXPECT_FALSE(simd::tier_from_name("avx512", parsed));
  EXPECT_FALSE(simd::tier_from_name("", parsed));
  EXPECT_FALSE(simd::tier_from_name("Scalar", parsed));
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndActiveTierListed) {
  EXPECT_TRUE(simd::tier_available(simd::Tier::kScalar));
  const auto tiers = simd::available_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(simd::Tier::kScalar, tiers.front());
  bool listed = false;
  for (const simd::Tier t : tiers) listed |= (t == simd::active_tier());
  EXPECT_TRUE(listed);
  EXPECT_FALSE(simd::cpu_flags().empty());
}

TEST(SimdDispatch, SetActiveTierSwitchesKernelTable) {
  TierGuard guard;
  for (const simd::Tier t : simd::available_tiers()) {
    simd::set_active_tier(t);
    EXPECT_EQ(t, simd::active_tier());
    EXPECT_EQ(&simd::kernels_for(t), &simd::kernels());
  }
}

}  // namespace
