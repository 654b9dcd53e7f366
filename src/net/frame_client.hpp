// Synchronous client for the streaming frame protocol.
//
// Single-threaded by design: submit() writes a request and returns a client
// tag immediately (frames pipeline server-side up to the server's inflight
// ceiling); await_frame() reads messages until one full frame sequence —
// Begin, the changed tiles, End — has been applied to the local framebuffer.
//
// Verification is the protocol's backbone: every tile's payload hash is
// checked against its rect+pixels (a reordered or swapped payload fails
// here), and after the last tile the reassembled framebuffer's
// content_hash must equal the engine hash in the frame header bit for bit.
// A mismatch throws — a client never silently displays a corrupt frame.
//
// The client keeps the tiles its framebuffer displaced in a TileLru
// (net/tile_lru.hpp) that the server mirrors. A kFrameTileRef names one of
// them: its hash must be held and its rect must match, or the frame is a
// ProtocolError; a tile-hash collision still fails the frame hash.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <string>

#include "core/spot_source.hpp"
#include "core/synthesis_service.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/tile_lru.hpp"
#include "render/framebuffer.hpp"

namespace dcsn::net {

/// The server reported a job-level failure (kJobError) for a submitted
/// frame: canceled, timed out, rejected, quarantined or failed.
class ServerJobError : public util::Error {
 public:
  ServerJobError(JobErrorCode code, const std::string& message)
      : util::Error("server job error: " + message), code_(code) {}
  [[nodiscard]] JobErrorCode code() const { return code_; }

 private:
  JobErrorCode code_;
};

/// Per-submit wire options (mirrors core::SubmitOptions' wire subset).
struct ClientSubmitOptions {
  bool incremental = true;
  double deadline_seconds = std::numeric_limits<double>::infinity();
  core::SubmitOptions::DeadlinePolicy policy =
      core::SubmitOptions::DeadlinePolicy::kStrict;
  int max_retries = 0;
};

class FrameClient {
 public:
  /// What await_frame() hands back besides the framebuffer update.
  struct FrameResult {
    std::uint64_t client_tag = 0;
    std::int64_t job_id = 0;
    std::uint64_t content_hash = 0;
    bool degraded = false;
    bool full = false;  ///< every tile transmitted (first frame)
    int tiles = 0;      ///< changed tiles, sent in full or by reference
    int tiles_by_ref = 0;  ///< of those, sent as a kFrameTileRef
    /// Bytes on the wire for this frame: every message's header and
    /// payload. The bench's delta-vs-full ratio numerator.
    std::uint64_t wire_bytes = 0;
    std::int64_t service_seq = 0;
    int attempts = 1;
  };

  explicit FrameClient(const std::string& socket_path);
  /// Wraps an already-connected socket (Socket::pair() loopback tests).
  explicit FrameClient(Socket socket);

  FrameClient(const FrameClient&) = delete;
  FrameClient& operator=(const FrameClient&) = delete;

  /// Opens this connection's session. Must be called once, first.
  SessionOpenedMsg open_session(const FieldSpec& field,
                                const core::SynthesisConfig& synthesis,
                                const core::DncConfig& dnc, int priority = 0);

  /// Sends one frame request; returns its client tag without waiting.
  std::uint64_t submit(std::span<const core::SpotInstance> spots,
                       const ClientSubmitOptions& options = {});

  /// Blocks until the next frame (in submit order) is fully reassembled
  /// and verified. Throws ServerJobError when the server reported the job
  /// failed, ProtocolError on hash mismatch or malformed stream, and
  /// ConnectionClosed when the server went away.
  FrameResult await_frame();

  /// Blocks until the server's ack for `client_tag` arrives; returns the
  /// job id (the handle cancel() needs).
  std::int64_t job_id_for(std::uint64_t client_tag);

  void cancel(std::int64_t job_id);

  /// Round-trips a health request.
  HealthRespMsg health();

  /// The reassembled texture: after await_frame() it is bit-identical to
  /// the server engine's framebuffer (verified via content_hash).
  [[nodiscard]] const render::Framebuffer& framebuffer() const { return fb_; }

  /// Half-closes the write side (the goodbye) — the server reader sees EOF
  /// and drains what was submitted.
  void finish_writes();

 private:
  /// One frame outcome in submit order: a result or a failure.
  struct FrameEvent {
    std::optional<FrameResult> result;
    std::optional<ServerJobError> failure;
  };

  /// Reads one message and dispatches it to the ack map / frame queue /
  /// health slot. A kFrameBegin consumes its whole contiguous sequence.
  void pump_one();
  void apply_frame_sequence(const FrameBeginMsg& begin,
                            std::size_t begin_payload_bytes);
  /// Runs one tile message through the LRU and puts its pixels on screen:
  /// `pixels` for a full tile, the cached payload for a reference (empty
  /// `pixels`, whose hash the caller has checked is held at `rect`).
  void apply_tile(const TileRect& rect, std::uint64_t hash,
                  std::span<const float> pixels);

  Socket socket_;
  render::Framebuffer fb_;
  TileLru<std::vector<float>> tile_cache_{kTileCacheBytes};
  bool session_open_ = false;
  std::uint64_t next_tag_ = 1;
  std::map<std::uint64_t, std::int64_t> acks_;  ///< tag -> job id
  std::deque<FrameEvent> frames_;
  std::deque<HealthRespMsg> health_;
};

}  // namespace dcsn::net
