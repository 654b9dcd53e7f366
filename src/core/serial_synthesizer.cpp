#include "core/serial_synthesizer.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace dcsn::core {

namespace {

constexpr std::int64_t kChunk = 64;

// One participant's private state. Slot 0 (the caller) rasterizes straight
// into the texture; every other slot into a pooled partial, summed in after
// the loop.
struct Participant {
  bool started = false;
  render::Framebuffer partial;
  render::CommandBuffer buffer;
  double genP = 0.0;
  double genT = 0.0;
  std::int64_t vertices = 0;
  render::RasterStats raster;
};

}  // namespace

SerialSynthesizer::SerialSynthesizer(SynthesisConfig config)
    : SerialSynthesizer(config, Runtime::global()) {}

SerialSynthesizer::SerialSynthesizer(SynthesisConfig config, Runtime& runtime)
    : config_(config),
      runtime_(&runtime),
      texture_(config.texture_width, config.texture_height),
      profile_(render::SpotProfile::make_shared(config.profile_shape,
                                                config.profile_resolution)) {}

double SerialSynthesizer::natural_intensity(const SynthesisConfig& config) {
  const double texture_area =
      static_cast<double>(config.texture_width) * config.texture_height;
  const double spot_area =
      config.spot_radius_px * config.spot_radius_px * 3.141592653589793;
  const double overlap =
      std::max(1.0, static_cast<double>(config.spot_count) * spot_area / texture_area);
  return 1.0 / std::sqrt(overlap);
}

SerialStats SerialSynthesizer::synthesize(const field::VectorField& f,
                                          std::span<const SpotInstance> spots,
                                          int threads) {
  DCSN_CHECK(threads >= 1, "thread count must be >= 1");
  const util::Stopwatch total;
  const SpotGeometryGenerator generator(config_, f);
  texture_.clear();

  // The participants are this thread plus runtime pool workers. Their
  // partials are reduced by lattice-exact addition, so neither the fold
  // order nor who rasterized which chunk can show in the pixels.
  std::vector<Participant> participants(static_cast<std::size_t>(threads));
  runtime_->ensure_workers(threads - 1);
  runtime_->fork_join(
      static_cast<std::int64_t>(spots.size()), kChunk, threads,
      [&](int slot, std::int64_t begin, std::int64_t end) {
        Participant& p = participants[static_cast<std::size_t>(slot)];
        if (!p.started) {
          p.started = true;
          if (slot > 0) {
            p.partial = runtime_->framebuffers().acquire(texture_.width(),
                                                         texture_.height());
          }
          p.buffer.reserve(kChunk, static_cast<std::size_t>(config_.vertices_per_spot()));
        }
        const render::RasterTarget target{
            slot > 0 ? p.partial.pixels() : texture_.pixels(), 0, 0};
        p.buffer.clear();
        util::ThreadCpuStopwatch watch;
        generator.generate_all(spots.subspan(static_cast<std::size_t>(begin),
                                             static_cast<std::size_t>(end - begin)),
                               p.buffer);
        p.genP += watch.seconds();
        watch.restart();
        render::rasterize_buffer(target, p.buffer, *profile_, p.raster);
        p.genT += watch.seconds();
        p.vertices += static_cast<std::int64_t>(p.buffer.vertex_count());
      });

  SerialStats stats;
  stats.spots = static_cast<std::int64_t>(spots.size());
  for (std::size_t slot = 0; slot < participants.size(); ++slot) {
    Participant& p = participants[slot];
    if (slot > 0 && p.started) {
      texture_.accumulate(p.partial);
      runtime_->framebuffers().release(std::move(p.partial));
    }
    stats.genP_seconds += p.genP;
    stats.genT_seconds += p.genT;
    stats.vertices += p.vertices;
    stats.raster += p.raster;
  }
  stats.total_seconds = total.seconds();
  return stats;
}

}  // namespace dcsn::core
