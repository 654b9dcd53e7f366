#include "net/protocol.hpp"

#include <bit>
#include <cstring>

#include "field/analytic.hpp"
#include "util/hash.hpp"

namespace dcsn::net {

// The wire is little-endian by spec. The tile codec copies pixel blocks as
// host memory and lane_hash loads host-order words, so a big-endian host
// would need byte swaps there; none is supported, so none is kept.
static_assert(std::endian::native == std::endian::little,
              "the wire codec assumes a little-endian host");

namespace {

[[nodiscard]] std::uint8_t checked_u8_enum(std::uint8_t v, std::uint8_t max,
                                           const char* what) {
  if (v > max) throw ProtocolError(std::string("out-of-range enum: ") + what);
  return v;
}

void encode_rect(WireWriter& w, const field::Rect& r) {
  w.f64(r.x0);
  w.f64(r.y0);
  w.f64(r.x1);
  w.f64(r.y1);
}

[[nodiscard]] field::Rect decode_rect(WireReader& r) {
  field::Rect rect;
  rect.x0 = r.f64();
  rect.y0 = r.f64();
  rect.x1 = r.f64();
  rect.y1 = r.f64();
  return rect;
}

void encode_synthesis(WireWriter& w, const core::SynthesisConfig& c) {
  w.i32(c.texture_width);
  w.i32(c.texture_height);
  w.i64(c.spot_count);
  w.f64(c.spot_radius_px);
  w.u8(static_cast<std::uint8_t>(c.kind));
  w.f64(c.ellipse.max_stretch);
  w.i32(c.bent.mesh_cols);
  w.i32(c.bent.mesh_rows);
  w.f64(c.bent.length_px);
  w.i32(c.bent.trace_substeps);
  w.u8(static_cast<std::uint8_t>(c.profile_shape));
  w.i32(c.profile_resolution);
  w.f64(c.intensity_scale);
  w.u8(c.window.has_value() ? 1 : 0);
  if (c.window.has_value()) encode_rect(w, *c.window);
  w.u64(c.seed);
}

[[nodiscard]] core::SynthesisConfig decode_synthesis(WireReader& r) {
  core::SynthesisConfig c;
  c.texture_width = r.i32();
  c.texture_height = r.i32();
  if (std::int64_t{c.texture_width} * c.texture_height >
      std::int64_t{kMaxPayloadBytes / sizeof(float)}) {
    throw ProtocolError("texture exceeds the largest payload a frame may carry");
  }
  c.spot_count = r.i64();
  c.spot_radius_px = r.f64();
  c.kind = static_cast<core::SpotKind>(checked_u8_enum(
      r.u8(), static_cast<std::uint8_t>(core::SpotKind::kBent), "SpotKind"));
  c.ellipse.max_stretch = r.f64();
  c.bent.mesh_cols = r.i32();
  c.bent.mesh_rows = r.i32();
  c.bent.length_px = r.f64();
  c.bent.trace_substeps = r.i32();
  c.profile_shape = static_cast<render::SpotShape>(checked_u8_enum(
      r.u8(), static_cast<std::uint8_t>(render::SpotShape::kRing), "SpotShape"));
  c.profile_resolution = r.i32();
  c.intensity_scale = r.f64();
  if (r.u8() != 0) c.window = decode_rect(r);
  c.seed = r.u64();
  return c;
}

// Only the session shape crosses the wire. The simulator knobs (bus and
// state-change model, raster algorithm, pipe queue capacity, stealing) keep
// their DncConfig defaults on the server: they exist for in-process benches
// and tests, and a remote client must not be able to wedge the server with
// them.
void encode_dnc(WireWriter& w, const core::DncConfig& c) {
  w.i32(c.processors);
  w.i32(c.pipes);
  w.i64(c.chunk_spots);
  w.u8(c.tiled ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(c.tile_strategy));
  w.u8(c.tile_cache ? 1 : 0);
}

[[nodiscard]] core::DncConfig decode_dnc(WireReader& r) {
  core::DncConfig c;
  c.processors = r.i32();
  c.pipes = r.i32();
  if (c.processors > kMaxSessionThreads || c.pipes > kMaxSessionThreads) {
    throw ProtocolError("session processors or pipes exceed the server limit");
  }
  c.chunk_spots = r.i64();
  c.tiled = r.u8() != 0;
  c.tile_strategy = static_cast<core::TileStrategy>(checked_u8_enum(
      r.u8(), static_cast<std::uint8_t>(core::TileStrategy::kCostBalanced),
      "TileStrategy"));
  c.tile_cache = r.u8() != 0;
  return c;
}

}  // namespace

void FieldSpec::encode(WireWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  w.f64(a);
  w.f64(b);
  w.f64(c);
  w.f64(d);
  encode_rect(w, domain);
}

FieldSpec FieldSpec::decode(WireReader& r) {
  FieldSpec s;
  s.kind = static_cast<Kind>(checked_u8_enum(
      r.u8(), static_cast<std::uint8_t>(Kind::kDoubleGyre), "FieldSpec::Kind"));
  s.a = r.f64();
  s.b = r.f64();
  s.c = r.f64();
  s.d = r.f64();
  s.domain = decode_rect(r);
  return s;
}

std::unique_ptr<field::VectorField> FieldSpec::make_field() const {
  switch (kind) {
    case Kind::kUniform:
      return field::analytic::uniform({a, b}, domain);
    case Kind::kRankineVortex:
      return field::analytic::rankine_vortex({a, b}, c, d, domain);
    case Kind::kTaylorGreen:
      return field::analytic::taylor_green(a, domain);
    case Kind::kDoubleGyre:
      return field::analytic::double_gyre(a, b, c, d);
  }
  throw ProtocolError("unknown field kind");
}

std::vector<std::uint8_t> OpenSessionMsg::encode() const {
  WireWriter w;
  w.u32(version);
  w.i32(priority);
  field.encode(w);
  encode_synthesis(w, synthesis);
  encode_dnc(w, dnc);
  return w.take();
}

OpenSessionMsg OpenSessionMsg::decode(WireReader& r) {
  OpenSessionMsg m;
  m.version = r.u32();
  if (m.version != kProtocolVersion) {
    throw ProtocolError("unsupported protocol version");
  }
  m.priority = r.i32();
  m.field = FieldSpec::decode(r);
  m.synthesis = decode_synthesis(r);
  m.dnc = decode_dnc(r);
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> SubmitMsg::encode() const {
  WireWriter w;
  w.u64(client_tag);
  w.u8(flags);
  w.f64(deadline_seconds);
  w.u8(policy);
  w.i32(max_retries);
  w.u32(static_cast<std::uint32_t>(spots.size()));
  for (const core::SpotInstance& s : spots) {
    w.f64(s.position.x);
    w.f64(s.position.y);
    w.f64(s.intensity);
  }
  return w.take();
}

SubmitMsg SubmitMsg::decode(WireReader& r) {
  SubmitMsg m;
  m.client_tag = r.u64();
  m.flags = r.u8();
  m.deadline_seconds = r.f64();
  m.policy = checked_u8_enum(r.u8(), 2, "DeadlinePolicy");
  m.max_retries = r.i32();
  const std::uint32_t count = r.u32();
  if (static_cast<std::size_t>(count) * 24 > r.remaining()) {
    throw ProtocolError("spot count exceeds payload");
  }
  m.spots.resize(count);
  for (core::SpotInstance& s : m.spots) {
    s.position.x = r.f64();
    s.position.y = r.f64();
    s.intensity = r.f64();
  }
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> CancelMsg::encode() const {
  WireWriter w;
  w.i64(job_id);
  return w.take();
}

CancelMsg CancelMsg::decode(WireReader& r) {
  CancelMsg m;
  m.job_id = r.i64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> SessionOpenedMsg::encode() const {
  WireWriter w;
  w.i64(session_id);
  w.i32(width);
  w.i32(height);
  return w.take();
}

SessionOpenedMsg SessionOpenedMsg::decode(WireReader& r) {
  SessionOpenedMsg m;
  m.session_id = r.i64();
  m.width = r.i32();
  m.height = r.i32();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> SubmitAckMsg::encode() const {
  WireWriter w;
  w.u64(client_tag);
  w.i64(job_id);
  return w.take();
}

SubmitAckMsg SubmitAckMsg::decode(WireReader& r) {
  SubmitAckMsg m;
  m.client_tag = r.u64();
  m.job_id = r.i64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> FrameBeginMsg::encode() const {
  WireWriter w;
  w.u64(client_tag);
  w.i64(job_id);
  w.u64(content_hash);
  w.i32(width);
  w.i32(height);
  w.u32(tile_count);
  w.u8(flags);
  w.i64(service_seq);
  w.i32(attempts);
  return w.take();
}

FrameBeginMsg FrameBeginMsg::decode(WireReader& r) {
  FrameBeginMsg m;
  m.client_tag = r.u64();
  m.job_id = r.i64();
  m.content_hash = r.u64();
  m.width = r.i32();
  m.height = r.i32();
  m.tile_count = r.u32();
  m.flags = r.u8();
  m.service_seq = r.i64();
  m.attempts = r.i32();
  r.expect_end();
  return m;
}

std::uint64_t tile_payload_hash(std::int32_t x0, std::int32_t y0,
                                std::int32_t width, std::int32_t height,
                                std::span<const float> pixels) {
  const std::int32_t rect[4] = {x0, y0, width, height};
  const std::uint64_t h = util::lane_hash(rect, sizeof(rect));
  return util::lane_hash(pixels.data(), pixels.size_bytes(), h);
}

std::vector<std::uint8_t> FrameTileMsg::encode() const {
  WireWriter w;
  w.reserve(kTileHeaderBytes + pixels.size() * sizeof(float));
  w.i32(x0);
  w.i32(y0);
  w.i32(width);
  w.i32(height);
  w.u64(tile_hash);
  w.bytes(pixels.data(), pixels.size() * sizeof(float));
  return w.take();
}

FrameTileMsg FrameTileMsg::decode(WireReader& r) {
  FrameTileMsg m;
  m.x0 = r.i32();
  m.y0 = r.i32();
  m.width = r.i32();
  m.height = r.i32();
  m.tile_hash = r.u64();
  if (m.width <= 0 || m.height <= 0) throw ProtocolError("empty tile rect");
  const std::size_t count =
      static_cast<std::size_t>(m.width) * static_cast<std::size_t>(m.height);
  if (count * 4 != r.remaining()) {
    throw ProtocolError("tile pixel payload does not match rect");
  }
  m.pixels.resize(count);
  const auto block = r.raw(count * sizeof(float));
  std::memcpy(m.pixels.data(), block.data(), block.size());
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> FrameEndMsg::encode() const {
  WireWriter w;
  w.u64(client_tag);
  return w.take();
}

FrameEndMsg FrameEndMsg::decode(WireReader& r) {
  FrameEndMsg m;
  m.client_tag = r.u64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> JobErrorMsg::encode() const {
  WireWriter w;
  w.u64(client_tag);
  w.u8(code);
  w.str(message);
  return w.take();
}

JobErrorMsg JobErrorMsg::decode(WireReader& r) {
  JobErrorMsg m;
  m.client_tag = r.u64();
  m.code = r.u8();
  m.message = r.str();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> HealthRespMsg::encode() const {
  WireWriter w;
  w.i64(completed);
  w.i64(degraded);
  w.i64(failed);
  w.i64(retries);
  w.i64(timeouts);
  w.i64(canceled);
  w.i64(rejected);
  w.i64(quarantined);
  w.i64(yielded);
  w.i64(breaker_trips);
  w.f64(clock_now);
  w.i32(open_sessions);
  return w.take();
}

HealthRespMsg HealthRespMsg::decode(WireReader& r) {
  HealthRespMsg m;
  m.completed = r.i64();
  m.degraded = r.i64();
  m.failed = r.i64();
  m.retries = r.i64();
  m.timeouts = r.i64();
  m.canceled = r.i64();
  m.rejected = r.i64();
  m.quarantined = r.i64();
  m.yielded = r.i64();
  m.breaker_trips = r.i64();
  m.clock_now = r.f64();
  m.open_sessions = r.i32();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> ErrorMsg::encode() const {
  WireWriter w;
  w.str(message);
  return w.take();
}

ErrorMsg ErrorMsg::decode(WireReader& r) {
  ErrorMsg m;
  m.message = r.str();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> frame_message(MsgType type,
                                        std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxPayloadBytes) {
    throw ProtocolError("message payload exceeds kMaxPayloadBytes");
  }
  WireWriter w;
  w.reserve(kHeaderBytes + payload.size());
  w.u32(kMagic);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload.data(), payload.size());
  return w.take();
}

}  // namespace dcsn::net
