#include "workloads.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace perfbench {

using dcsn::core::SpotInstance;

namespace {

constexpr dcsn::field::Rect kDomain{0.0, 0.0, 4.0, 4.0};
constexpr int kTexture = 256;
/// browse: frames in the scrubbed series.
constexpr int kSeriesFrames = 16;
/// Keeps every texture's per-pixel sums far inside the contribution
/// lattice's exact range, as the repo's other spot benches do.
constexpr double kIntensityScale = 0.2;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent stream seed for (seed, workload, stream id).
std::uint64_t stream_seed(const Workload& w, std::uint64_t stream) {
  return splitmix64(splitmix64(w.seed ^ (static_cast<std::uint64_t>(w.kind) << 56)) ^
                    stream);
}

constexpr std::uint64_t kSeriesStream = 0xB0B5E1E5ULL;

/// Pixels per world unit along x (the texture covers the whole domain).
double pixels_per_unit() { return kTexture / kDomain.width(); }

dcsn::core::SynthesisConfig bent_config(std::int64_t spots, int substeps) {
  dcsn::core::SynthesisConfig s;
  s.texture_width = kTexture;
  s.texture_height = kTexture;
  s.spot_count = spots;
  s.spot_radius_px = 3.0;
  s.kind = dcsn::core::SpotKind::kBent;
  s.bent.mesh_cols = 16;
  s.bent.mesh_rows = 3;
  s.bent.length_px = 22.0;
  s.bent.trace_substeps = substeps;
  return s;
}

dcsn::particles::ParticleSystemConfig particle_config(std::int64_t count) {
  dcsn::particles::ParticleSystemConfig p;
  p.count = count;
  p.mean_lifetime = 2.0;
  return p;
}

/// Advection step that moves the fastest particle about `pixels` pixels.
double advection_dt(const dcsn::field::VectorField& f, double pixels) {
  return pixels / (pixels_per_unit() * f.max_magnitude());
}

void scale_intensity(std::vector<SpotInstance>& spots) {
  for (SpotInstance& s : spots) s.intensity *= kIntensityScale;
}

std::uint64_t hash_doubles(std::uint64_t h, std::initializer_list<double> values) {
  for (const double v : values) h = dcsn::util::fnv1a(&v, sizeof v, h);
  return h;
}

std::uint64_t hash_spots(std::uint64_t h, const std::vector<SpotInstance>& spots) {
  for (const SpotInstance& s : spots) {
    h = hash_doubles(h, {s.position.x, s.position.y, s.intensity});
  }
  return h;
}

}  // namespace

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  if (name == "steer") return WorkloadKind::kSteer;
  if (name == "animate") return WorkloadKind::kAnimate;
  if (name == "browse") return WorkloadKind::kBrowse;
  return std::nullopt;
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kSteer:
      return "steer";
    case WorkloadKind::kAnimate:
      return "animate";
    case WorkloadKind::kBrowse:
      return "browse";
  }
  return "?";
}

Workload make_workload(WorkloadKind kind, std::uint64_t seed) {
  Workload w;
  w.kind = kind;
  w.seed = seed;
  w.dnc.processors = 4;
  w.dnc.pipes = 4;
  w.dnc.tiled = true;
  w.dnc.tile_strategy = dcsn::core::TileStrategy::kGrid;
  w.dnc.chunk_spots = 32;
  // 64 KiB per 128x128 tile: browse's 16 frames x 4 tiles take 4 MiB.
  w.tile_cache_bytes = 10u << 20;

  switch (kind) {
    case WorkloadKind::kSteer:
      // bench_incremental's slow-flow scene, lighter: a mild flow
      // everywhere gives every ribbon its full length, and genP-heavy
      // tracing makes the three retained tiles worth keeping.
      w.field.kind = dcsn::net::FieldSpec::Kind::kUniform;
      w.field.a = 0.55;
      w.field.b = 0.22;
      w.field.domain = kDomain;
      w.synthesis = bent_config(3000, 8);
      w.incremental = true;
      w.warmup_frames = 3;
      break;
    case WorkloadKind::kAnimate:
    case WorkloadKind::kBrowse:
      w.field.kind = dcsn::net::FieldSpec::Kind::kRankineVortex;
      w.field.a = 2.0;
      w.field.b = 2.0;
      w.field.c = 1.2;
      w.field.d = 0.8;
      w.field.domain = kDomain;
      w.synthesis = bent_config(1500, 4);
      w.dnc.tile_cache = true;
      w.warmup_frames = kind == WorkloadKind::kAnimate ? 3 : kSeriesFrames / kClients;
      break;
  }

  if (kind == WorkloadKind::kBrowse) {
    const auto field = w.field.make_field();
    dcsn::particles::ParticleSystem system(particle_config(w.synthesis.spot_count),
                                           kDomain,
                                           dcsn::util::Rng(stream_seed(w, kSeriesStream)));
    const double dt = advection_dt(*field, 3.0);
    for (int k = 0; k < kSeriesFrames; ++k) {
      w.series.push_back(dcsn::core::spots_from_particles(system));
      scale_intensity(w.series.back());
      system.advance(*field, dt);
    }
  }
  return w;
}

FrameStream::FrameStream(const Workload& workload, int client)
    : workload_(&workload),
      client_(client),
      walk_rng_(stream_seed(workload, static_cast<std::uint64_t>(client))) {
  const std::uint64_t seed = stream_seed(workload, static_cast<std::uint64_t>(client));
  switch (workload.kind) {
    case WorkloadKind::kSteer: {
      dcsn::util::Rng rng(seed);
      spots_ = dcsn::core::make_random_spots(kDomain, workload.synthesis.spot_count, rng);
      scale_intensity(spots_);
      // bench_incremental's probe disc: radius 0.55 over a 16-area domain
      // holds ~6% of a uniform population and sits deep inside the
      // bottom-left render tile, so the other three tiles stay clean.
      const dcsn::field::Vec2 center{1.0, 1.0};
      for (std::size_t k = 0; k < spots_.size(); ++k) {
        const double dx = spots_[k].position.x - center.x;
        const double dy = spots_[k].position.y - center.y;
        if (dx * dx + dy * dy <= 0.55 * 0.55) probe_.push_back(k);
      }
      break;
    }
    case WorkloadKind::kAnimate: {
      field_ = workload.field.make_field();
      particles_ = std::make_unique<dcsn::particles::ParticleSystem>(
          particle_config(workload.synthesis.spot_count), kDomain,
          dcsn::util::Rng(seed));
      dt_ = advection_dt(*field_, 1.5);
      break;
    }
    case WorkloadKind::kBrowse:
      walk_index_ = walk_rng_.index(static_cast<std::int64_t>(workload.series.size()));
      break;
  }
}

StreamFrame FrameStream::next() {
  const std::int64_t position = position_++;
  switch (workload_->kind) {
    case WorkloadKind::kSteer: {
      if (position > 0) {
        // Rotate the probe spots 0.12 rad around the probe center: a
        // localized stir that keeps them inside the disc.
        const double c = std::cos(0.12);
        const double s = std::sin(0.12);
        for (const std::size_t k : probe_) {
          const double dx = spots_[k].position.x - 1.0;
          const double dy = spots_[k].position.y - 1.0;
          spots_[k].position = {1.0 + c * dx - s * dy, 1.0 + s * dx + c * dy};
        }
      }
      return {position, &spots_};
    }
    case WorkloadKind::kAnimate:
      if (position > 0) particles_->advance(*field_, dt_);
      spots_ = dcsn::core::spots_from_particles(*particles_);
      scale_intensity(spots_);
      return {position, &spots_};
    case WorkloadKind::kBrowse: {
      const auto k = static_cast<std::int64_t>(workload_->series.size());
      std::int64_t index = 0;
      if (position < workload_->warmup_frames) {
        // Set-up: this client's share of one pass over the series.
        index = client_ + kClients * position;
      } else {
        // Scrub: a +/-1 random walk, reflecting at the ends, so consecutive
        // frames always differ.
        if (walk_index_ == 0) {
          walk_index_ = 1;
        } else if (walk_index_ == k - 1) {
          walk_index_ = k - 2;
        } else {
          walk_index_ += (walk_rng_() & 1u) != 0 ? 1 : -1;
        }
        index = walk_index_;
      }
      return {index, &workload_->series[static_cast<std::size_t>(index)]};
    }
  }
  throw dcsn::util::Error("unknown workload");
}

double FrameStream::moved_share() const {
  if (workload_->kind != WorkloadKind::kSteer) return 1.0;
  return static_cast<double>(probe_.size()) /
         static_cast<double>(workload_->synthesis.spot_count);
}

std::uint64_t input_hash(const Workload& w, int frames) {
  std::uint64_t h = dcsn::util::kFnv1aOffset;
  const auto add_int = [&h](std::int64_t v) { h = dcsn::util::fnv1a(&v, sizeof v, h); };
  add_int(static_cast<std::int64_t>(w.kind));
  add_int(static_cast<std::int64_t>(w.seed));
  add_int(static_cast<std::int64_t>(w.field.kind));
  h = hash_doubles(h, {w.field.a, w.field.b, w.field.c, w.field.d, w.field.domain.x0,
                       w.field.domain.y0, w.field.domain.x1, w.field.domain.y1});
  const dcsn::core::SynthesisConfig& s = w.synthesis;
  for (const std::int64_t v :
       {std::int64_t{s.texture_width}, std::int64_t{s.texture_height}, s.spot_count,
        static_cast<std::int64_t>(s.kind), std::int64_t{s.bent.mesh_cols},
        std::int64_t{s.bent.mesh_rows}, std::int64_t{s.bent.trace_substeps},
        std::int64_t{w.dnc.processors}, std::int64_t{w.dnc.pipes},
        std::int64_t{w.dnc.tiled}, std::int64_t{w.dnc.tile_cache},
        std::int64_t{w.incremental}, std::int64_t{w.warmup_frames},
        static_cast<std::int64_t>(w.tile_cache_bytes)}) {
    add_int(v);
  }
  h = hash_doubles(h, {s.spot_radius_px, s.bent.length_px});
  for (const auto& frame : w.series) h = hash_spots(h, frame);
  for (int c = 0; c < kClients; ++c) {
    FrameStream stream(w, c);
    for (int f = 0; f < frames; ++f) {
      const StreamFrame frame = stream.next();
      add_int(frame.key);
      h = hash_spots(h, *frame.spots);
    }
  }
  return h;
}

}  // namespace perfbench
