#include "net/frame_client.hpp"

#include <algorithm>

namespace dcsn::net {

FrameClient::FrameClient(const std::string& socket_path)
    : socket_(connect_unix(socket_path)) {}

FrameClient::FrameClient(Socket socket) : socket_(std::move(socket)) {}

SessionOpenedMsg FrameClient::open_session(
    const FieldSpec& field, const core::SynthesisConfig& synthesis,
    const core::DncConfig& dnc, int priority) {
  if (session_open_) throw util::Error("session already open");
  OpenSessionMsg msg;
  msg.priority = priority;
  msg.field = field;
  msg.synthesis = synthesis;
  msg.dnc = dnc;
  send_message(socket_, MsgType::kOpenSession, msg.encode());

  MsgType type{};
  std::vector<std::uint8_t> payload;
  if (!read_message(socket_, &type, &payload)) throw ConnectionClosed();
  WireReader reader(payload);
  if (type == MsgType::kError) {
    throw util::Error("server refused session: " +
                      ErrorMsg::decode(reader).message);
  }
  if (type != MsgType::kSessionOpened) {
    throw ProtocolError("expected kSessionOpened");
  }
  const SessionOpenedMsg opened = SessionOpenedMsg::decode(reader);
  fb_.reset(opened.width, opened.height);
  session_open_ = true;
  return opened;
}

std::uint64_t FrameClient::submit(std::span<const core::SpotInstance> spots,
                                  const ClientSubmitOptions& options) {
  if (!session_open_) throw util::Error("submit before open_session");
  SubmitMsg msg;
  msg.client_tag = next_tag_++;
  msg.flags = options.incremental ? SubmitMsg::kFlagIncremental : 0;
  msg.deadline_seconds = options.deadline_seconds;
  msg.policy = static_cast<std::uint8_t>(options.policy);
  msg.max_retries = options.max_retries;
  msg.spots.assign(spots.begin(), spots.end());
  send_message(socket_, MsgType::kSubmit, msg.encode());
  return msg.client_tag;
}

void FrameClient::apply_frame_sequence(const FrameBeginMsg& begin,
                                       std::size_t begin_payload_bytes) {
  if (begin.width != fb_.width() || begin.height != fb_.height()) {
    throw ProtocolError("frame dimensions do not match the session");
  }
  FrameResult result;
  result.client_tag = begin.client_tag;
  result.job_id = begin.job_id;
  result.content_hash = begin.content_hash;
  result.degraded = (begin.flags & FrameBeginMsg::kFlagDegraded) != 0;
  result.full = (begin.flags & FrameBeginMsg::kFlagFull) != 0;
  result.tiles = static_cast<int>(begin.tile_count);
  result.service_seq = begin.service_seq;
  result.attempts = begin.attempts;
  result.wire_bytes = kHeaderBytes + begin_payload_bytes;

  // The server sends a frame sequence contiguously (its write mutex is
  // held across Begin..End), so every next message must belong to it.
  MsgType type{};
  std::vector<std::uint8_t> payload;
  for (std::uint32_t i = 0; i < begin.tile_count; ++i) {
    if (!read_message(socket_, &type, &payload)) {
      throw ProtocolError("connection closed mid-frame");
    }
    if (type != MsgType::kFrameTile) {
      throw ProtocolError("expected kFrameTile inside a frame sequence");
    }
    WireReader reader(payload);
    const FrameTileMsg tile = FrameTileMsg::decode(reader);
    // Subtract, not add: x0 + width overflows for an origin near INT_MAX.
    // decode() already guarantees width and height are positive.
    if (tile.x0 < 0 || tile.y0 < 0 || tile.x0 > fb_.width() - tile.width ||
        tile.y0 > fb_.height() - tile.height) {
      throw ProtocolError("tile rect outside the framebuffer");
    }
    // The payload hash binds pixels to their rect: a swapped or reordered
    // payload — valid bytes in the wrong tile — fails here.
    const std::uint64_t expected = tile_payload_hash(
        tile.x0, tile.y0, tile.width, tile.height, tile.pixels);
    if (expected != tile.tile_hash) {
      throw ProtocolError("tile payload hash mismatch");
    }
    const auto rect =
        fb_.pixels().subview(tile.x0, tile.y0, tile.width, tile.height);
    for (int y = 0; y < tile.height; ++y) {
      std::copy_n(tile.pixels.begin() + std::ptrdiff_t{y} * tile.width,
                  tile.width, rect.row(y).begin());
    }
    result.wire_bytes += kHeaderBytes + payload.size();
  }
  if (!read_message(socket_, &type, &payload)) {
    throw ProtocolError("connection closed mid-frame");
  }
  if (type != MsgType::kFrameEnd) {
    throw ProtocolError("expected kFrameEnd after the last tile");
  }
  result.wire_bytes += kHeaderBytes + payload.size();

  // End-to-end bit-exactness: the reassembled framebuffer must hash to
  // exactly what the server engine produced.
  if (fb_.content_hash() != begin.content_hash) {
    throw ProtocolError("reassembled frame hash does not match the engine");
  }
  frames_.push_back(FrameEvent{result, std::nullopt});
}

void FrameClient::pump_one() {
  MsgType type{};
  std::vector<std::uint8_t> payload;
  if (!read_message(socket_, &type, &payload)) throw ConnectionClosed();
  WireReader reader(payload);
  switch (type) {
    case MsgType::kSubmitAck: {
      const SubmitAckMsg ack = SubmitAckMsg::decode(reader);
      acks_[ack.client_tag] = ack.job_id;
      break;
    }
    case MsgType::kFrameBegin:
      apply_frame_sequence(FrameBeginMsg::decode(reader), payload.size());
      break;
    case MsgType::kJobError: {
      const JobErrorMsg err = JobErrorMsg::decode(reader);
      FrameEvent event;
      event.failure.emplace(static_cast<JobErrorCode>(err.code), err.message);
      frames_.push_back(std::move(event));
      break;
    }
    case MsgType::kHealthResp:
      health_.push_back(HealthRespMsg::decode(reader));
      break;
    case MsgType::kError:
      throw util::Error("server error: " + ErrorMsg::decode(reader).message);
    default:
      throw ProtocolError("unexpected message type from server");
  }
}

FrameClient::FrameResult FrameClient::await_frame() {
  while (frames_.empty()) pump_one();
  FrameEvent event = std::move(frames_.front());
  frames_.pop_front();
  if (event.failure.has_value()) throw *event.failure;
  return *event.result;
}

std::int64_t FrameClient::job_id_for(std::uint64_t client_tag) {
  for (;;) {
    const auto it = acks_.find(client_tag);
    if (it != acks_.end()) return it->second;
    pump_one();
  }
}

void FrameClient::cancel(std::int64_t job_id) {
  CancelMsg msg;
  msg.job_id = job_id;
  send_message(socket_, MsgType::kCancel, msg.encode());
}

HealthRespMsg FrameClient::health() {
  send_message(socket_, MsgType::kHealthReq, {});
  while (health_.empty()) pump_one();
  HealthRespMsg h = std::move(health_.front());
  health_.pop_front();
  return h;
}

void FrameClient::finish_writes() { socket_.shutdown_write(); }

}  // namespace dcsn::net
