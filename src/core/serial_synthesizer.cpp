#include "core/serial_synthesizer.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_annotations.hpp"
#include "util/threading.hpp"

namespace dcsn::core {

namespace {

constexpr std::int64_t kChunk = 64;

// Cooperative parallel-reduction job: participants (the caller + runtime
// pool workers, capped at `max_participants`) claim spot chunks, rasterize
// into a private pooled framebuffer, and fold their partial into the shared
// texture on leave. Heap-owned via shared_ptr because pool workers may call
// serve() from a stale registry snapshot after the frame finished — a
// closed job refuses the join before touching any frame state.
struct PartialReduceJob final : Runtime::SharedJob {
  PartialReduceJob(Runtime& rt, const SynthesisConfig& config,
                   const SpotGeometryGenerator& generator,
                   const render::SpotProfile& profile,
                   std::span<const SpotInstance> spots,
                   render::Framebuffer& texture, int max_participants)
      : runtime(rt),
        config(config),
        generator(generator),
        profile(profile),
        spots(spots),
        texture(texture),
        max_participants(max_participants),
        counter(static_cast<std::int64_t>(spots.size()), kChunk) {}

  bool serve() override {
    {
      util::MutexLock lock(mutex);
      if (closed || active >= max_participants) return false;
      ++active;
    }
    const bool worked = work();
    {
      util::MutexLock lock(mutex);
      --active;
    }
    cv.notify_all();
    return worked;
  }

  bool work() {
    render::Framebuffer partial =
        runtime.framebuffers().acquire(texture.width(), texture.height());
    const render::RasterTarget target{partial.pixels(), 0, 0};
    render::CommandBuffer buffer;
    buffer.reserve(kChunk, static_cast<std::size_t>(config.vertices_per_spot()));
    double genP = 0.0, genT = 0.0;
    std::int64_t verts = 0;
    render::RasterStats raster;
    bool worked = false;
    try {
      for (;;) {
        if (failed.load(std::memory_order_relaxed)) break;
        const auto range = counter.claim();
        if (range.empty()) break;
        worked = true;
        buffer.clear();
        util::ThreadCpuStopwatch watch;
        generator.generate_all(spots.subspan(static_cast<std::size_t>(range.begin),
                                             static_cast<std::size_t>(range.size())),
                               buffer);
        genP += watch.seconds();
        watch.restart();
        render::rasterize_buffer(target, buffer, profile, raster);
        genT += watch.seconds();
        verts += static_cast<std::int64_t>(buffer.vertex_count());
      }
    } catch (...) {
      util::MutexLock lock(mutex);
      if (!error) error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
    {
      util::MutexLock lock(mutex);
      // Lattice-exact accumulation commutes, so fold order cannot show in
      // the pixels — any participant may merge at any time.
      if (!failed.load(std::memory_order_relaxed)) texture.accumulate(partial);
      stats.genP_seconds += genP;
      stats.genT_seconds += genT;
      stats.vertices += verts;
      stats.raster += raster;
    }
    runtime.framebuffers().release(std::move(partial));
    return worked;
  }

  /// Caller-side completion: work is drained (or the job failed) and every
  /// participant folded out. Does not throw — the caller deregisters the
  /// job from the runtime first and rethrows `error` after, so a failed
  /// frame can never leak a registered job.
  void finish_as_caller() {
    util::MutexLock lock(mutex);
    cv.wait(lock, [&]() DCSN_REQUIRES(mutex) {
      return (counter.drained() || failed.load(std::memory_order_relaxed)) &&
             active == 0;
    });
    closed = true;
  }

  Runtime& runtime;
  const SynthesisConfig& config;
  const SpotGeometryGenerator& generator;
  const render::SpotProfile& profile;
  std::span<const SpotInstance> spots;  // lock-lint: unguarded(immutable after construction)
  render::Framebuffer& texture;
  const int max_participants;

  util::WorkCounter counter;  // lock-lint: unguarded(internally synchronized)
  util::Mutex mutex;
  util::CondVar cv;
  int active DCSN_GUARDED_BY(mutex) = 0;
  bool closed DCSN_GUARDED_BY(mutex) = false;
  std::atomic<bool> failed{false};
  std::exception_ptr error DCSN_GUARDED_BY(mutex);
  SerialStats stats DCSN_GUARDED_BY(mutex);
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
  SerialStats stats;
  stats.spots = static_cast<std::int64_t>(spots.size());

  const SpotGeometryGenerator generator(config_, f);
  texture_.clear();

  if (threads == 1) {
    const render::RasterTarget target{texture_.pixels(), 0, 0};
    render::CommandBuffer buffer;
    buffer.reserve(kChunk, static_cast<std::size_t>(config_.vertices_per_spot()));
    util::TimeAccumulator genP, genT;
    for (std::size_t begin = 0; begin < spots.size(); begin += kChunk) {
      const std::size_t end = std::min(spots.size(), begin + kChunk);
      buffer.clear();
      {
        const util::ScopedTimer t(genP);
        generator.generate_all(spots.subspan(begin, end - begin), buffer);
      }
      {
        const util::ScopedTimer t(genT);
        render::rasterize_buffer(target, buffer, *profile_, stats.raster);
      }
      stats.vertices += static_cast<std::int64_t>(buffer.vertex_count());
    }
    stats.genP_seconds = genP.seconds();
    stats.genT_seconds = genT.seconds();
  } else {
    // Worker-private framebuffers reduced by lattice-exact addition; the
    // workers are the runtime's shared pool plus this thread.
    runtime_->ensure_workers(threads);
    auto job = std::make_shared<PartialReduceJob>(*runtime_, config_, generator,
                                                  *profile_, spots, texture_, threads);
    runtime_->register_job(job);
    (void)job->serve();  // the caller participates (and guarantees progress)
    // Wait out pool participants still holding chunks, deregister, and
    // only then surface a participant's exception — rethrowing first would
    // leak the job in the runtime's registry.
    job->finish_as_caller();
    runtime_->deregister_job(job.get());
    // Every participant folded out, so the lock is uncontended — taken
    // anyway to satisfy the guarded-member discipline.
    util::MutexLock lock(job->mutex);
    if (job->error) std::rethrow_exception(job->error);
    stats.genP_seconds = job->stats.genP_seconds;
    stats.genT_seconds = job->stats.genT_seconds;
    stats.vertices = job->stats.vertices;
    stats.raster = job->stats.raster;
  }

  stats.total_seconds = total.seconds();
  return stats;
}

}  // namespace dcsn::core
