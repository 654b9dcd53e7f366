// Line Integral Convolution (Cabral & Leedom, SIGGRAPH '93) — the other
// dense texture-based flow visualization of the era and the natural
// comparator for spot noise (LIC eventually displaced it).
//
// Where spot noise is *object order* (each spot splats into the texture —
// which is what made the divide-and-conquer parallelization natural), LIC
// is *image order*: each output pixel convolves an input noise texture
// along the streamline through that pixel. Pixels are independent, so LIC
// parallelizes trivially over rows on the runtime's pool; the comparison
// bench puts the two approaches' cost structures side by side.
#pragma once

#include <cstdint>

#include "field/vector_field.hpp"
#include "render/framebuffer.hpp"

namespace dcsn::core {

struct LicConfig {
  int width = 512;
  int height = 512;
  /// Streamline half-length of the convolution, in output pixels.
  double kernel_half_length_px = 15.0;
  /// Integration step along the streamline, in output pixels.
  double step_px = 1.0;
  std::uint64_t noise_seed = 42;
  /// Participant cap of the row loop (0 = one per hardware thread).
  int threads = 0;
};

/// White-noise input texture for LIC (one value per output pixel).
[[nodiscard]] render::Framebuffer make_lic_noise(int width, int height,
                                                 std::uint64_t seed);

/// Convolves `noise` along streamlines of `field` with a box kernel.
/// `noise` must match the configured output size.
[[nodiscard]] render::Framebuffer lic(const field::VectorField& f,
                                      const render::Framebuffer& noise,
                                      const LicConfig& config);

}  // namespace dcsn::core
