// Network front end for core::SynthesisService: sessions over local
// sockets, frames as changed-tile deltas.
//
// Threading model (per server):
//
//   * one accept thread polls the listen socket and reaps finished
//     connections;
//   * per connection, a *reader* thread decodes requests and a *pump*
//     thread resolves submitted tickets in FIFO order and streams the
//     finished frames back.
//
// Writes to a connection interleave from both threads (acks and health
// replies from the reader, frame sequences from the pump), serialized by a
// per-connection write mutex held across a whole logical unit — one control
// message, or one Begin→Tiles→End frame sequence — so a client never sees a
// message splice into the middle of a frame.
//
// Backpressure feeds admission control: the reader blocks once
// `max_inflight` submitted frames are undelivered, which stops draining the
// socket, which fills the kernel buffer, which blocks the client's next
// write. The service therefore never sees more than `max_inflight` queued
// jobs per connection — exactly the bounded queue depth its PerfModel
// admission check reasons about.
//
// Delta encoding: the pump keeps the last texture it delivered on each
// connection. A finished frame ships the wire tiles whose bytes differ from
// that texture (memcmp row by row, so -0.0f vs +0.0f and NaN payloads count
// as changes, as they do in the frame hash); the first frame ships full.
// An untransmitted tile is therefore bitwise equal to what the client holds
// by construction, whatever produced the frame: a clean render, a degraded
// (stale) frame or a reordered spot population.
//
// Shutdown is a graceful drain: stop() half-closes every connection's read
// side (clients see EOF, readers stop accepting), pumps deliver every
// already-submitted frame, then the service drains.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "core/synthesis_service.hpp"
#include "core/tiling.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "render/framebuffer.hpp"
#include "util/thread_annotations.hpp"

namespace dcsn::net {

struct FrameServerOptions {
  /// AF_UNIX path to listen on.
  std::string socket_path;
  /// Forwarded to the owned SynthesisService (drivers, SLO knobs, clocks).
  core::ServiceConfig service;
  /// Tile count of the wire delta grid (near-square, may round). Finer than
  /// the engine's render tiling: wire tiles only bound *transmission*, so a
  /// small grid cell around each moved spot beats re-sending a render tile.
  int wire_tiles = 96;
  /// Submitted-but-undelivered frames per connection before the reader
  /// stops draining the socket (the backpressure ceiling).
  int max_inflight = 4;
};

class FrameServer {
 public:
  explicit FrameServer(FrameServerOptions options,
                       core::Runtime& runtime = core::Runtime::global());
  ~FrameServer();  // stop()

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Graceful drain (see file comment). Idempotent.
  void stop();

  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }
  /// The owned service — tests and benches inspect health()/tile stats.
  [[nodiscard]] core::SynthesisService& service() { return service_; }

  /// Serves one already-connected socket (e.g. Socket::pair()) instead of
  /// an accepted one — loopback tests without a listen path.
  void adopt(Socket socket);

 private:
  struct PendingFrame {
    std::uint64_t client_tag = 0;
    core::SynthesisService::JobTicket ticket;
  };

  struct Connection {
    explicit Connection(Socket s) : socket(std::move(s)) {}

    /// Reader thread reads; both threads write under write_mutex.
    Socket socket;  // lock-lint: unguarded(reads reader-only; writes serialized by write_mutex)
    /// Serializes whole socket writes — one control message or one
    /// Begin→Tiles→End frame sequence — across the reader and pump threads.
    /// It guards an *action* on the (unguardable fd) socket, not a data
    /// member, hence standalone.
    util::Mutex write_mutex;  // lock-lint: standalone

    util::Mutex mutex;
    util::CondVar cv;
    std::deque<PendingFrame> pending DCSN_GUARDED_BY(mutex);
    bool reader_done DCSN_GUARDED_BY(mutex) = false;
    /// The pump bailed (peer vanished mid-delivery): a reader blocked on
    /// backpressure must not wait for a drain that will never happen.
    bool pump_done DCSN_GUARDED_BY(mutex) = false;

    // Session state: written by the reader while handling kOpenSession —
    // before any PendingFrame exists — and read by the pump afterwards; the
    // pending-queue mutex handoff orders the two.
    core::SynthesisService::SessionId session = 0;  // lock-lint: unguarded(written before first submit, mutex handoff)
    bool session_open = false;  // lock-lint: unguarded(written before first submit, mutex handoff)
    std::unique_ptr<field::VectorField> field;  // lock-lint: unguarded(written before first submit, mutex handoff)
    std::vector<core::Tile> wire_tiles;  // lock-lint: unguarded(written before first submit, mutex handoff)

    /// The last texture delivered on this connection — what the client
    /// holds; empty until the first frame ships.
    std::optional<render::Framebuffer> sent;  // lock-lint: unguarded(pump thread only)

    std::atomic<bool> finished{false};  ///< both loops exited (reapable)

    /// Joined (jthread dtor) when the Connection is reaped by the accept
    /// loop or destroyed by stop() — after the loops flagged `finished` or
    /// after shutdown_read unblocked them.
    std::jthread reader;  // lock-lint: unguarded(joined after loops exit)
    std::jthread pump;    // lock-lint: unguarded(joined after loops exit)
  };

  void accept_loop();
  void reader_loop(Connection& conn);
  void pump_loop(Connection& conn);
  void handle_open_session(Connection& conn, WireReader& reader);
  void handle_submit(Connection& conn, WireReader& reader);
  /// Streams one finished frame (full or delta) under the write mutex.
  void send_frame(Connection& conn, const PendingFrame& frame,
                  core::SynthesisResult& result);
  void send_control(Connection& conn, MsgType type,
                    std::span<const std::uint8_t> payload);
  void spawn_connection(Socket socket) DCSN_EXCLUDES(mutex_);
  void reap_finished(bool all) DCSN_EXCLUDES(mutex_);

  FrameServerOptions options_;  // lock-lint: unguarded(immutable after construction)
  core::SynthesisService service_;  // lock-lint: unguarded(internally synchronized)
  Socket listener_;  // lock-lint: unguarded(accept thread reads; stop() only shuts down)
  std::atomic<bool> stopping_{false};

  util::Mutex mutex_;
  std::vector<std::unique_ptr<Connection>> connections_ DCSN_GUARDED_BY(mutex_);

  std::jthread accept_thread_;  // lock-lint: unguarded(joined in stop)
};

}  // namespace dcsn::net
