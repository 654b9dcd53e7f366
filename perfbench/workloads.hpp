// The benchmark's three workloads and the seeded input streams that feed
// them. The server only ever sees a net::FieldSpec and spot populations; all
// randomness lives here and derives from (workload, seed), so one seed gives
// byte-identical inputs on every run (input_hash() pins that).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/spot_source.hpp"
#include "field/vector_field.hpp"
#include "net/protocol.hpp"
#include "particles/particle_system.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Closed-loop client connections. The host has 4 cores and the server keeps
/// the default 2 drivers, so four sessions contend for two drivers.
inline constexpr int kClients = 4;

enum class WorkloadKind {
  kSteer,    ///< smog-steering analogue: a probe stirs ~6% of the spots
  kAnimate,  ///< every spot advects every frame
  kBrowse,   ///< four clients scrub the same K precomputed frames
};

[[nodiscard]] std::optional<WorkloadKind> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(WorkloadKind kind);

struct Workload {
  WorkloadKind kind = WorkloadKind::kSteer;
  std::uint64_t seed = 0;
  dcsn::net::FieldSpec field;
  dcsn::core::SynthesisConfig synthesis;
  dcsn::core::DncConfig dnc;
  /// Submit through the session's SynthesisCache (retention).
  bool incremental = false;
  /// Frames each client submits during set-up before timing starts. For
  /// browse these are the client's share of one pass over the series, which
  /// fills the tile store.
  int warmup_frames = 0;
  /// Byte budget of the benchmark Runtime's tile store: browse's K-frame
  /// working set fits with headroom; animate overruns it within its first
  /// second of publishing, so it runs at steady-state eviction.
  std::size_t tile_cache_bytes = 0;
  /// browse only: the K frames of one advected series every client scrubs.
  std::vector<std::vector<dcsn::core::SpotInstance>> series;
};

[[nodiscard]] Workload make_workload(WorkloadKind kind, std::uint64_t seed);

/// One frame of a client's stream. `key` identifies its content for the
/// reference replay: the stream position for steer and animate, the series
/// index for browse.
struct StreamFrame {
  std::int64_t key = 0;
  const std::vector<dcsn::core::SpotInstance>* spots = nullptr;
};

/// One client's deterministic frame sequence. Two streams built from the
/// same (workload, client) yield identical frames, which is what lets the
/// replay regenerate any frame a client saw.
class FrameStream {
 public:
  FrameStream(const Workload& workload, int client);

  /// The next frame; the returned pointer stays valid until the next call.
  [[nodiscard]] StreamFrame next();

  /// steer: share of the population the probe moves per frame; other
  /// workloads move every spot (1.0).
  [[nodiscard]] double moved_share() const;

 private:
  const Workload* workload_;
  int client_;
  std::int64_t position_ = 0;
  std::vector<dcsn::core::SpotInstance> spots_;
  // steer
  std::vector<std::size_t> probe_;
  // animate
  std::unique_ptr<dcsn::field::VectorField> field_;
  std::unique_ptr<dcsn::particles::ParticleSystem> particles_;
  double dt_ = 0.0;
  // browse
  dcsn::util::Rng walk_rng_;
  std::int64_t walk_index_ = 0;
};

/// FNV-1a over the workload definition and the first `frames` frames of
/// every client's stream (plus browse's whole series).
[[nodiscard]] std::uint64_t input_hash(const Workload& workload, int frames = 8);

}  // namespace perfbench
