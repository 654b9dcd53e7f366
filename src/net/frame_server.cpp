#include "net/frame_server.hpp"

#include <algorithm>
#include <utility>

#include "util/threading.hpp"

namespace dcsn::net {

FrameServer::FrameServer(FrameServerOptions options, core::Runtime& runtime)
    : options_(std::move(options)), service_(options_.service, runtime) {
  if (!options_.socket_path.empty()) {
    listener_ = listen_unix(options_.socket_path);
    accept_thread_ = std::jthread([this] { accept_loop(); });
  }
}

FrameServer::~FrameServer() { stop(); }

void FrameServer::stop() {
  if (stopping_.exchange(true)) return;
  // Unblock the accept poll and refuse new connections.
  listener_.shutdown_read();
  // Half-close every connection: readers see EOF and stop accepting work;
  // pumps drain what was already submitted (the service is still running,
  // so every pending ticket resolves) and deliver it before exiting.
  {
    util::MutexLock lock(mutex_);
    for (auto& conn : connections_) conn->socket.shutdown_read();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  reap_finished(/*all=*/true);  // joins reader/pump threads
  listener_.close();
  service_.shutdown(/*drain=*/true);
}

void FrameServer::adopt(Socket socket) {
  if (stopping_.load()) throw util::Error("server is stopping");
  spawn_connection(std::move(socket));
}

void FrameServer::spawn_connection(Socket socket) {
  auto conn = std::make_unique<Connection>(std::move(socket));
  Connection* raw = conn.get();
  {
    util::MutexLock lock(mutex_);
    connections_.push_back(std::move(conn));
  }
  raw->reader = std::jthread([this, raw] { reader_loop(*raw); });
  raw->pump = std::jthread([this, raw] { pump_loop(*raw); });
}

void FrameServer::reap_finished(bool all) {
  std::vector<std::unique_ptr<Connection>> dead;
  {
    util::MutexLock lock(mutex_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if (all || (*it)->finished.load()) {
        dead.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  dead.clear();  // jthread dtors join outside the lock
}

void FrameServer::accept_loop() {
  util::set_current_thread_name("dcsn-accept");
  while (!stopping_.load()) {
    std::optional<Socket> accepted = accept_connection(listener_, 100);
    reap_finished(/*all=*/false);
    if (!accepted.has_value()) continue;
    if (stopping_.load()) break;  // raced with stop(): drop the connection
    spawn_connection(std::move(*accepted));
  }
}

void FrameServer::send_control(Connection& conn, MsgType type,
                               std::span<const std::uint8_t> payload) {
  util::MutexLock lock(conn.write_mutex);
  send_message(conn.socket, type, payload);
}

void FrameServer::handle_open_session(Connection& conn, WireReader& reader) {
  if (conn.session_open) {
    throw ProtocolError("session already open on this connection");
  }
  const OpenSessionMsg msg = OpenSessionMsg::decode(reader);
  conn.field = msg.field.make_field();
  conn.session =
      service_.open_session(msg.synthesis, msg.dnc, msg.priority);
  conn.wire_tiles = core::make_tile_grid(
      msg.synthesis.texture_width, msg.synthesis.texture_height,
      std::max(1, options_.wire_tiles));
  conn.session_open = true;

  SessionOpenedMsg reply;
  reply.session_id = conn.session;
  reply.width = msg.synthesis.texture_width;
  reply.height = msg.synthesis.texture_height;
  send_control(conn, MsgType::kSessionOpened, reply.encode());
}

void FrameServer::handle_submit(Connection& conn, WireReader& reader) {
  SubmitMsg msg = SubmitMsg::decode(reader);
  if (!conn.session_open) {
    throw ProtocolError("submit before open_session");
  }

  core::SynthesisRequest request;
  request.field = conn.field.get();
  request.spots = std::move(msg.spots);
  request.incremental = (msg.flags & SubmitMsg::kFlagIncremental) != 0;
  request.capture_texture = true;  // the pump encodes pixels from the result

  core::SubmitOptions options;
  options.deadline_seconds = msg.deadline_seconds;
  options.max_retries = msg.max_retries;
  options.policy =
      static_cast<core::SubmitOptions::DeadlinePolicy>(msg.policy);

  core::SynthesisService::JobTicket ticket;
  try {
    ticket = service_.submit(conn.session, std::move(request), options);
  } catch (const core::JobRejected& e) {
    JobErrorMsg err;
    err.client_tag = msg.client_tag;
    err.code = static_cast<std::uint8_t>(JobErrorCode::kRejected);
    err.message = e.what();
    send_control(conn, MsgType::kJobError, err.encode());
    return;
  } catch (const core::SessionQuarantined& e) {
    JobErrorMsg err;
    err.client_tag = msg.client_tag;
    err.code = static_cast<std::uint8_t>(JobErrorCode::kQuarantined);
    err.message = e.what();
    send_control(conn, MsgType::kJobError, err.encode());
    return;
  }

  SubmitAckMsg ack;
  ack.client_tag = msg.client_tag;
  ack.job_id = ticket.id;
  {
    util::MutexLock lock(conn.mutex);
    // Backpressure: with max_inflight undelivered frames, stop here — the
    // socket stops draining, the kernel buffer fills, the client blocks.
    while (static_cast<int>(conn.pending.size()) >= options_.max_inflight &&
           !conn.pump_done) {
      conn.cv.wait(lock);
    }
    if (conn.pump_done) throw ConnectionClosed();
    PendingFrame frame;
    frame.client_tag = msg.client_tag;
    frame.ticket = std::move(ticket);
    conn.pending.push_back(std::move(frame));
  }
  conn.cv.notify_all();
  send_control(conn, MsgType::kSubmitAck, ack.encode());
}

void FrameServer::reader_loop(Connection& conn) {
  util::set_current_thread_name("dcsn-net-rd");
  try {
    MsgType type{};
    std::vector<std::uint8_t> payload;
    while (!stopping_.load() && read_message(conn.socket, &type, &payload)) {
      WireReader reader(payload);
      switch (type) {
        case MsgType::kOpenSession:
          handle_open_session(conn, reader);
          break;
        case MsgType::kSubmit:
          handle_submit(conn, reader);
          break;
        case MsgType::kCancel: {
          const CancelMsg msg = CancelMsg::decode(reader);
          service_.cancel(msg.job_id);
          break;
        }
        case MsgType::kHealthReq: {
          const core::ServiceHealth h = service_.health();
          HealthRespMsg reply;
          reply.completed = h.completed;
          reply.degraded = h.degraded;
          reply.failed = h.failed;
          reply.retries = h.retries;
          reply.timeouts = h.timeouts;
          reply.canceled = h.canceled;
          reply.rejected = h.rejected;
          reply.quarantined = h.quarantined;
          reply.yielded = h.yielded;
          reply.breaker_trips = h.breaker_trips;
          reply.clock_now = h.clock_now;
          reply.open_sessions = static_cast<std::int32_t>(h.sessions.size());
          send_control(conn, MsgType::kHealthResp, reply.encode());
          break;
        }
        case MsgType::kCloseSession:
          if (conn.session_open) service_.close_session(conn.session);
          break;
        default:
          throw ProtocolError("unexpected message type from client");
      }
    }
  } catch (const std::exception& e) {
    // Malformed input or a vanished peer: report best-effort, then drop the
    // connection. One bad client must not take the server down.
    try {
      ErrorMsg err;
      err.message = e.what();
      send_control(conn, MsgType::kError, err.encode());
    } catch (...) {
    }
  }
  {
    util::MutexLock lock(conn.mutex);
    conn.reader_done = true;
  }
  conn.cv.notify_all();
}

void FrameServer::send_frame(Connection& conn, const PendingFrame& frame,
                             core::SynthesisResult& result) {
  const render::Framebuffer& texture = *result.texture;
  // Copies a tile's rows into `out`, where they are hashed and sent from.
  const auto gather = [&texture](const TileRect& rect, std::span<float> out) {
    const auto rows = texture.pixels().subview(rect.x0, rect.y0, rect.width, rect.height);
    for (int y = 0; y < rect.height; ++y) {
      const auto row = rows.row(y);
      std::copy(row.begin(), row.end(), out.begin() + std::ptrdiff_t{y} * rect.width);
    }
  };

  // A tile ships when its hash differs from the one last delivered at its
  // rect (what the client shows) — every tile of the first frame, then only
  // changed ones, a degraded (stale) frame included.
  bool first = true;
  std::vector<FrameTileRefMsg> to_send;
  for (const core::Tile& tile : conn.wire_tiles) {
    const TileRect rect{tile.x0, tile.y0, tile.width, tile.height};
    const std::size_t count = rect.payload_bytes() / sizeof(float);
    if (count > conn.tile_rows.size()) conn.tile_rows.resize(count);
    const std::span<float> pixels(conn.tile_rows.data(), count);
    gather(rect, pixels);
    const std::uint64_t hash =
        tile_payload_hash(rect.x0, rect.y0, rect.width, rect.height, pixels);
    const std::uint64_t* shown = conn.tile_cache.shown(rect);
    first = first && shown == nullptr;
    if (shown == nullptr || *shown != hash) to_send.push_back({rect, hash});
  }

  FrameBeginMsg begin;
  begin.client_tag = frame.client_tag;
  begin.job_id = frame.ticket.id;
  begin.content_hash = result.content_hash;
  begin.width = texture.width();
  begin.height = texture.height();
  begin.tile_count = static_cast<std::uint32_t>(to_send.size());
  begin.flags = (result.stats.degraded ? FrameBeginMsg::kFlagDegraded : 0) |
                (first ? FrameBeginMsg::kFlagFull : 0);
  begin.service_seq = result.service_seq;
  begin.attempts = result.attempts;

  // Hold the write mutex across the whole Begin -> Tiles -> End sequence
  // so reader-thread control replies cannot splice into the frame.
  util::MutexLock lock(conn.write_mutex);
  conn.batch.add(MsgType::kFrameBegin, begin.encode());
  std::size_t used = 0;  // floats of tile_rows the batch references
  for (const FrameTileRefMsg& ref : to_send) {
    const TileRect* held = conn.tile_cache.find(ref.tile_hash);
    const bool by_ref = held != nullptr && *held == ref.rect;
    (void)conn.tile_cache.deliver(ref.rect, ref.tile_hash, [](NoPayload&) {});
    // The reference is the full tile's prefix without the pixels.
    if (by_ref) {
      conn.batch.add(MsgType::kFrameTileRef, ref.encode());
      continue;
    }
    const std::size_t count = ref.rect.payload_bytes() / sizeof(float);
    if (used + count > conn.tile_rows.size()) {
      conn.batch.send(conn.socket);  // nothing references tile_rows now
      used = 0;
    }
    const std::span<float> pixels(conn.tile_rows.data() + used, count);
    gather(ref.rect, pixels);
    conn.batch.add(MsgType::kFrameTile, ref.encode(), pixel_bytes(pixels));
    used += count;
  }
  FrameEndMsg end;
  end.client_tag = frame.client_tag;
  conn.batch.add(MsgType::kFrameEnd, end.encode());
  conn.batch.send(conn.socket);
}

void FrameServer::pump_loop(Connection& conn) {
  util::set_current_thread_name("dcsn-net-tx");
  for (;;) {
    PendingFrame frame;
    {
      util::MutexLock lock(conn.mutex);
      while (conn.pending.empty() && !conn.reader_done) conn.cv.wait(lock);
      if (conn.pending.empty()) break;  // reader done and nothing left
      frame = std::move(conn.pending.front());
      conn.pending.pop_front();
    }
    conn.cv.notify_all();  // backpressure release

    JobErrorMsg err;
    err.client_tag = frame.client_tag;
    try {
      core::SynthesisResult result = frame.ticket.result.get();
      send_frame(conn, frame, result);
      continue;
    } catch (const core::JobCanceled& e) {
      err.code = static_cast<std::uint8_t>(JobErrorCode::kCanceled);
      err.message = e.what();
    } catch (const core::JobTimedOut& e) {
      err.code = static_cast<std::uint8_t>(JobErrorCode::kTimedOut);
      err.message = e.what();
    } catch (const std::exception& e) {
      err.code = static_cast<std::uint8_t>(JobErrorCode::kFailed);
      err.message = e.what();
    }
    try {
      send_control(conn, MsgType::kJobError, err.encode());
    } catch (...) {
      break;  // peer gone: nothing left to deliver to
    }
  }
  {
    util::MutexLock lock(conn.mutex);
    conn.pump_done = true;
  }
  conn.cv.notify_all();  // a reader blocked on backpressure must not hang
  if (conn.session_open) service_.close_session(conn.session);
  // If we bailed early (peer vanished) the reader may still be blocked in
  // recv — half-close the read side so it sees EOF and exits promptly
  // before the accept loop joins this connection.
  conn.socket.shutdown_read();
  conn.socket.shutdown_write();
  conn.finished.store(true);
}

}  // namespace dcsn::net
