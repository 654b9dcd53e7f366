// The all-software baseline synthesizer.
//
// This is spot noise as published in 1991 and as run before this paper made
// it interactive: generate every spot, scan-convert and blend on the CPU,
// no graphics subsystem involved. It doubles as the paper's §4 alternative
// ("if processors are sufficiently fast ... bypassing the graphics
// subsystem altogether") when run with threads > 1, where spots are
// processed into worker-private framebuffers that are summed at the end —
// valid because lattice-snapped addition commutes exactly.
//
// The threads > 1 path is one Runtime::fork_join over the spots: its
// workers come from the shared core::Runtime (the same pool the
// divide-and-conquer engine multiplexes) and its worker-private partials
// from the runtime's framebuffer pool.
//
// It is also the reference implementation the divide-and-conquer engine is
// tested against: for the same spots both must produce the same texture
// (bit-identical — see tests/test_determinism.cpp).
#pragma once

#include <memory>

#include "core/runtime.hpp"
#include "core/spot_geometry.hpp"
#include "core/spot_params.hpp"
#include "render/framebuffer.hpp"
#include "render/rasterizer.hpp"

namespace dcsn::core {

struct SerialStats {
  double total_seconds = 0.0;
  double genP_seconds = 0.0;  ///< geometry generation
  double genT_seconds = 0.0;  ///< scan conversion + blending
  std::int64_t spots = 0;
  std::int64_t vertices = 0;
  render::RasterStats raster;
};

class SerialSynthesizer {
 public:
  /// Borrows from the process-global Runtime for threads > 1.
  explicit SerialSynthesizer(SynthesisConfig config);
  SerialSynthesizer(SynthesisConfig config, Runtime& runtime);

  /// Renders `spots` over `f` into the internal texture and returns stats.
  /// threads == 1 reproduces the historical serial path bit-for-bit for a
  /// fixed seed; threads > 1 parallelizes over the runtime's worker pool
  /// (the calling thread always participates, so progress never depends on
  /// pool availability).
  SerialStats synthesize(const field::VectorField& f,
                         std::span<const SpotInstance> spots, int threads = 1);

  [[nodiscard]] const render::Framebuffer& texture() const { return texture_; }
  [[nodiscard]] const SynthesisConfig& config() const { return config_; }
  [[nodiscard]] Runtime& runtime() const { return *runtime_; }

  /// Intensity scale that keeps texture standard deviation roughly
  /// independent of spot count: amplitudes add in quadrature, so scale by
  /// 1/sqrt(expected spots overlapping a pixel).
  [[nodiscard]] static double natural_intensity(const SynthesisConfig& config);

 private:
  SynthesisConfig config_;
  Runtime* runtime_;
  render::Framebuffer texture_;
  std::shared_ptr<const render::SpotProfile> profile_;
};

}  // namespace dcsn::core
