// Wire-protocol torture suite and loopback round-trips for the streaming
// frame server (src/net/).
//
// Three layers, hostile first:
//
//   * serializer: every message round-trips bit-exactly; truncated
//     payloads, trailing garbage and out-of-range enum bytes throw
//     ProtocolError instead of decoding nonsense;
//   * framing: read_message against raw socket writes — bad magic,
//     oversized declared lengths (rejected before allocating), garbage
//     prefixes, EOF mid-payload, clean EOF at a boundary;
//   * client verification: a fake server feeds crafted frame sequences —
//     swapped tile payloads (valid bytes, wrong rect) and mid-frame
//     disconnects must be rejected, and the reassembled framebuffer must
//     hash to exactly what the header promised.
//
// The loopback tests then run the real FrameServer + FrameClient pair and
// assert the client's framebuffer is operator== identical to a fresh
// in-process engine — the bit-exactness contract the delta encoding rides.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/spot_source.hpp"
#include "core/synthesis_service.hpp"
#include "net/frame_client.hpp"
#include "net/frame_server.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "render/framebuffer.hpp"
#include "util/rng.hpp"

namespace {

using namespace dcsn;
using net::FieldSpec;
using net::FrameBeginMsg;
using net::FrameClient;
using net::FrameEndMsg;
using net::FrameServer;
using net::FrameServerOptions;
using net::FrameTileMsg;
using net::MsgType;
using net::ProtocolError;
using net::Socket;
using net::SubmitAckMsg;
using net::WireReader;
using net::WireWriter;

core::SynthesisConfig small_config(std::uint64_t seed = 7) {
  core::SynthesisConfig config;
  config.texture_width = 64;
  config.texture_height = 64;
  config.spot_count = 200;
  config.spot_radius_px = 5.0;
  config.kind = core::SpotKind::kEllipse;
  config.seed = seed;
  return config;
}

core::DncConfig small_dnc() {
  core::DncConfig dnc;
  dnc.processors = 2;
  dnc.pipes = 1;
  dnc.chunk_spots = 16;
  return dnc;
}

FieldSpec vortex_spec() {
  FieldSpec spec;
  spec.kind = FieldSpec::Kind::kRankineVortex;
  spec.a = 1.0;  // center.x
  spec.b = 1.0;  // center.y
  spec.c = 1.5;  // strength
  spec.d = 0.6;  // core radius
  spec.domain = {0.0, 0.0, 2.0, 2.0};
  return spec;
}

std::vector<core::SpotInstance> test_spots(const core::SynthesisConfig& config,
                                           field::Rect domain) {
  util::Rng rng(config.seed);
  auto spots = core::make_random_spots(domain, config.spot_count, rng);
  for (auto& spot : spots) spot.intensity *= 0.2;
  return spots;
}

FrameServerOptions loopback_options() {
  FrameServerOptions options;
  options.service.drivers = 1;
  options.wire_tiles = 96;
  options.max_inflight = 4;
  return options;
}

net::ClientSubmitOptions plain_submit() {
  net::ClientSubmitOptions options;
  options.incremental = false;
  return options;
}

// ------------------------------------------------- serializer layer ------

TEST(NetProtocol, PrimitivesRoundTripBitExact) {
  WireWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.f32(-0.0f);
  w.f64(0.1);  // not exactly representable: the bits must survive anyway
  w.f64(std::numeric_limits<double>::infinity());
  const double nan = std::bit_cast<double>(0x7FF8000000000001ull);
  w.f64(nan);
  w.str("frame");
  w.str("");

  WireReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(std::bit_cast<std::uint32_t>(r.f32()),
            std::bit_cast<std::uint32_t>(-0.0f));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(0.1));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(nan));
  EXPECT_EQ(r.str(), "frame");
  EXPECT_EQ(r.str(), "");
  r.expect_end();
}

TEST(NetProtocol, ReaderRejectsTruncationAndTrailingGarbage) {
  WireWriter w;
  w.u64(12345);
  const std::vector<std::uint8_t> buf = w.data();

  WireReader truncated(std::span(buf.data(), buf.size() - 1));
  EXPECT_THROW((void)truncated.u64(), ProtocolError);

  WireReader trailing(buf);
  (void)trailing.u32();
  EXPECT_THROW(trailing.expect_end(), ProtocolError);

  // A string whose declared length exceeds the remaining payload.
  WireWriter lying;
  lying.u32(1000);
  lying.u8('x');
  WireReader r(lying.data());
  EXPECT_THROW((void)r.str(), ProtocolError);
}

TEST(NetProtocol, FieldSpecRoundTripAndUnknownKindRejected) {
  const FieldSpec spec = vortex_spec();
  WireWriter w;
  spec.encode(w);
  WireReader r(w.data());
  const FieldSpec back = FieldSpec::decode(r);
  r.expect_end();
  EXPECT_EQ(back.kind, spec.kind);
  EXPECT_EQ(back.a, spec.a);
  EXPECT_EQ(back.b, spec.b);
  EXPECT_EQ(back.c, spec.c);
  EXPECT_EQ(back.d, spec.d);
  EXPECT_EQ(back.domain.x1, spec.domain.x1);
  auto f = back.make_field();
  ASSERT_NE(f, nullptr);

  // An out-of-range kind byte must be rejected at decode.
  WireWriter bad;
  bad.u8(9);
  for (int i = 0; i < 8; ++i) bad.f64(0.0);
  WireReader br(bad.data());
  EXPECT_THROW((void)FieldSpec::decode(br), ProtocolError);
}

TEST(NetProtocol, OpenSessionRoundTripsConfigs) {
  net::OpenSessionMsg msg;
  msg.priority = 3;
  msg.field = vortex_spec();
  msg.synthesis = small_config(99);
  msg.synthesis.kind = core::SpotKind::kBent;
  msg.synthesis.bent.mesh_cols = 8;
  msg.synthesis.bent.length_px = 18.0;
  msg.synthesis.window = field::Rect{0.25, 0.25, 1.75, 1.75};
  msg.dnc = small_dnc();
  msg.dnc.pipes = 3;
  msg.dnc.tiled = true;
  msg.dnc.tile_strategy = core::TileStrategy::kCostBalanced;
  msg.dnc.tile_cache = true;

  const auto payload = msg.encode();
  WireReader r(payload);
  const net::OpenSessionMsg back = net::OpenSessionMsg::decode(r);
  EXPECT_EQ(back.version, net::kProtocolVersion);
  EXPECT_EQ(back.priority, 3);
  EXPECT_EQ(back.synthesis.texture_width, msg.synthesis.texture_width);
  EXPECT_EQ(back.synthesis.spot_count, msg.synthesis.spot_count);
  EXPECT_EQ(back.synthesis.kind, core::SpotKind::kBent);
  EXPECT_EQ(back.synthesis.bent.mesh_cols, 8);
  EXPECT_EQ(back.synthesis.bent.length_px, 18.0);
  EXPECT_EQ(back.synthesis.seed, 99u);
  ASSERT_TRUE(back.synthesis.window.has_value());
  EXPECT_EQ(back.synthesis.window->x0, 0.25);
  EXPECT_EQ(back.dnc.processors, msg.dnc.processors);
  EXPECT_EQ(back.dnc.pipes, 3);
  EXPECT_EQ(back.dnc.chunk_spots, msg.dnc.chunk_spots);
  EXPECT_TRUE(back.dnc.tiled);
  EXPECT_EQ(back.dnc.tile_strategy, core::TileStrategy::kCostBalanced);
  EXPECT_TRUE(back.dnc.tile_cache);

  // Truncating any suffix must throw, never mis-decode.
  WireReader tr(std::span(payload.data(), payload.size() - 3));
  EXPECT_THROW((void)net::OpenSessionMsg::decode(tr), ProtocolError);
}

/// Encodes `msg` and expects OpenSessionMsg::decode to reject it.
void expect_open_session_rejected(const net::OpenSessionMsg& msg) {
  const auto payload = msg.encode();
  WireReader r(payload);
  EXPECT_THROW((void)net::OpenSessionMsg::decode(r), ProtocolError);
}

net::OpenSessionMsg small_session() {
  net::OpenSessionMsg msg;
  msg.field = vortex_spec();
  msg.synthesis = small_config();
  msg.dnc = small_dnc();
  return msg;
}

TEST(NetProtocol, OpenSessionSimulatorKnobsDecodeToDefaults) {
  // The simulator knobs never travel: hostile values a client sets locally
  // (a zero-capacity pipe queue blocks the first push forever) must reach
  // the server as the DncConfig defaults.
  net::OpenSessionMsg msg = small_session();
  msg.dnc.pipe_queue_capacity = 0;
  msg.dnc.state_change_seconds = 1e9;
  msg.dnc.bus_bytes_per_second = 1e-300;
  msg.dnc.steal = false;
  msg.dnc.raster_algorithm = render::RasterAlgorithm::kReference;

  const auto payload = msg.encode();
  WireReader r(payload);
  const net::OpenSessionMsg back = net::OpenSessionMsg::decode(r);
  const core::DncConfig defaults;
  EXPECT_EQ(back.dnc.pipe_queue_capacity, defaults.pipe_queue_capacity);
  EXPECT_EQ(back.dnc.state_change_seconds, defaults.state_change_seconds);
  EXPECT_EQ(back.dnc.bus_bytes_per_second, defaults.bus_bytes_per_second);
  EXPECT_EQ(back.dnc.steal, defaults.steal);
  EXPECT_EQ(back.dnc.raster_algorithm, defaults.raster_algorithm);
}

TEST(NetProtocol, OpenSessionRejectsTooManyProcessors) {
  net::OpenSessionMsg msg = small_session();
  msg.dnc.processors = net::kMaxSessionThreads;
  const auto payload = msg.encode();
  WireReader r(payload);
  EXPECT_EQ(net::OpenSessionMsg::decode(r).dnc.processors, net::kMaxSessionThreads);
  msg.dnc.processors = net::kMaxSessionThreads + 1;
  expect_open_session_rejected(msg);
  msg.dnc.processors = 1 << 20;
  expect_open_session_rejected(msg);
}

TEST(NetProtocol, OpenSessionRejectsTooManyPipes) {
  net::OpenSessionMsg msg = small_session();
  msg.dnc.pipes = net::kMaxSessionThreads;
  const auto payload = msg.encode();
  WireReader r(payload);
  EXPECT_EQ(net::OpenSessionMsg::decode(r).dnc.pipes, net::kMaxSessionThreads);
  msg.dnc.pipes = net::kMaxSessionThreads + 1;
  expect_open_session_rejected(msg);
}

TEST(NetProtocol, OpenSessionRejectsTextureLargerThanAPayload) {
  // 4096^2 floats are exactly kMaxPayloadBytes; one more row is too many.
  net::OpenSessionMsg msg = small_session();
  msg.synthesis.texture_width = 4096;
  msg.synthesis.texture_height = 4096;
  const auto payload = msg.encode();
  WireReader r(payload);
  EXPECT_EQ(net::OpenSessionMsg::decode(r).synthesis.texture_height, 4096);
  msg.synthesis.texture_height = 4097;
  expect_open_session_rejected(msg);
  // The product is formed in 64 bits: 2^16 x 2^16 must not wrap to zero.
  msg.synthesis.texture_width = 1 << 16;
  msg.synthesis.texture_height = 1 << 16;
  expect_open_session_rejected(msg);
}

TEST(NetProtocol, SubmitRoundTripsSpotsBitExact) {
  net::SubmitMsg msg;
  msg.client_tag = 77;
  msg.flags = net::SubmitMsg::kFlagIncremental;
  msg.deadline_seconds = 0.125;
  msg.policy = 2;
  msg.max_retries = 1;
  msg.spots = {{{0.5, 0.25}, -0.75}, {{1.0, 1.5}, 0.1}};

  const auto payload = msg.encode();
  WireReader r(payload);
  const net::SubmitMsg back = net::SubmitMsg::decode(r);
  EXPECT_EQ(back.client_tag, 77u);
  EXPECT_EQ(back.flags, net::SubmitMsg::kFlagIncremental);
  EXPECT_EQ(back.deadline_seconds, 0.125);
  EXPECT_EQ(back.policy, 2);
  EXPECT_EQ(back.max_retries, 1);
  ASSERT_EQ(back.spots.size(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.spots[0].intensity),
            std::bit_cast<std::uint64_t>(-0.75));
  EXPECT_EQ(back.spots[1].position.x, 1.0);
  EXPECT_EQ(back.spots[1].position.y, 1.5);

  // A spot count larger than the payload can hold is rejected before any
  // allocation sized from it.
  WireWriter lie;
  lie.u64(1);
  lie.u8(0);
  lie.f64(1.0);
  lie.u8(0);
  lie.i32(0);
  lie.u32(0x00FFFFFF);  // claims ~16M spots, payload ends here
  WireReader lr(lie.data());
  EXPECT_THROW((void)net::SubmitMsg::decode(lr), ProtocolError);
}

TEST(NetProtocol, ControlMessagesRoundTrip) {
  {
    net::SessionOpenedMsg m{.session_id = 5, .width = 64, .height = 48};
    const auto payload = m.encode();
    WireReader r(payload);
    const auto b = net::SessionOpenedMsg::decode(r);
    EXPECT_EQ(b.session_id, 5);
    EXPECT_EQ(b.width, 64);
    EXPECT_EQ(b.height, 48);
  }
  {
    SubmitAckMsg m{.client_tag = 9, .job_id = 1234};
    const auto payload = m.encode();
    WireReader r(payload);
    const auto b = SubmitAckMsg::decode(r);
    EXPECT_EQ(b.client_tag, 9u);
    EXPECT_EQ(b.job_id, 1234);
  }
  {
    net::CancelMsg m{.job_id = -8};
    const auto payload = m.encode();
    WireReader r(payload);
    EXPECT_EQ(net::CancelMsg::decode(r).job_id, -8);
  }
  {
    net::JobErrorMsg m;
    m.client_tag = 3;
    m.code = static_cast<std::uint8_t>(net::JobErrorCode::kTimedOut);
    m.message = "deadline blown";
    const auto payload = m.encode();
    WireReader r(payload);
    const auto b = net::JobErrorMsg::decode(r);
    EXPECT_EQ(b.client_tag, 3u);
    EXPECT_EQ(static_cast<net::JobErrorCode>(b.code),
              net::JobErrorCode::kTimedOut);
    EXPECT_EQ(b.message, "deadline blown");
  }
  {
    net::HealthRespMsg m;
    m.completed = 10;
    m.yielded = 2;
    m.clock_now = 1.5;
    m.open_sessions = 4;
    const auto payload = m.encode();
    WireReader r(payload);
    const auto b = net::HealthRespMsg::decode(r);
    EXPECT_EQ(b.completed, 10);
    EXPECT_EQ(b.yielded, 2);
    EXPECT_EQ(b.clock_now, 1.5);
    EXPECT_EQ(b.open_sessions, 4);
  }
  {
    net::ErrorMsg m{.message = "boom"};
    const auto payload = m.encode();
    WireReader r(payload);
    EXPECT_EQ(net::ErrorMsg::decode(r).message, "boom");
  }
  {
    FrameEndMsg m{.client_tag = 11};
    const auto payload = m.encode();
    WireReader r(payload);
    EXPECT_EQ(FrameEndMsg::decode(r).client_tag, 11u);
  }
}

TEST(NetProtocol, FrameMessagesRoundTripAndValidate) {
  FrameBeginMsg begin;
  begin.client_tag = 2;
  begin.job_id = 42;
  begin.content_hash = 0xFEEDFACEDEADBEEFull;
  begin.width = 64;
  begin.height = 64;
  begin.tile_count = 3;
  begin.flags = FrameBeginMsg::kFlagFull;
  begin.service_seq = 17;
  begin.attempts = 2;
  const auto begin_payload = begin.encode();
  WireReader br(begin_payload);
  const FrameBeginMsg b = FrameBeginMsg::decode(br);
  EXPECT_EQ(b.content_hash, begin.content_hash);
  EXPECT_EQ(b.tile_count, 3u);
  EXPECT_EQ(b.flags, FrameBeginMsg::kFlagFull);
  EXPECT_EQ(b.service_seq, 17);
  EXPECT_EQ(b.attempts, 2);

  FrameTileMsg tile;
  tile.x0 = 8;
  tile.y0 = 16;
  tile.width = 4;
  tile.height = 2;
  tile.pixels = {1.0f, -2.0f, 0.5f, 0.0f, 3.0f, -0.25f, 8.0f, 9.0f};
  tile.tile_hash = net::tile_payload_hash(tile.x0, tile.y0, tile.width,
                                          tile.height, tile.pixels);
  const auto tp = tile.encode();
  WireReader tr(tp);
  const FrameTileMsg t = FrameTileMsg::decode(tr);
  EXPECT_EQ(t.x0, 8);
  EXPECT_EQ(t.pixels, tile.pixels);
  EXPECT_EQ(t.tile_hash, tile.tile_hash);

  // Pixel payload shorter than width*height claims: rejected.
  WireReader short_r(std::span(tp.data(), tp.size() - 4));
  EXPECT_THROW((void)FrameTileMsg::decode(short_r), ProtocolError);

  // Non-positive rect: rejected.
  FrameTileMsg degenerate = tile;
  degenerate.width = 0;
  degenerate.pixels.clear();
  const auto degenerate_payload = degenerate.encode();
  WireReader dr(degenerate_payload);
  EXPECT_THROW((void)FrameTileMsg::decode(dr), ProtocolError);
}

TEST(NetProtocol, TilePayloadHashBindsRectToPayload) {
  const std::vector<float> pixels = {1.0f, 2.0f, 3.0f, 4.0f};
  const std::uint64_t at_origin = net::tile_payload_hash(0, 0, 2, 2, pixels);
  const std::uint64_t shifted = net::tile_payload_hash(2, 0, 2, 2, pixels);
  EXPECT_NE(at_origin, shifted);  // same bytes, different rect

  std::vector<float> flipped = pixels;
  flipped[0] = -1.0f;
  EXPECT_NE(at_origin, net::tile_payload_hash(0, 0, 2, 2, flipped));

  // -0.0f and 0.0f compare equal as floats but are different bits — the
  // hash must see bits, not values.
  EXPECT_NE(net::tile_payload_hash(0, 0, 1, 1, std::vector<float>{0.0f}),
            net::tile_payload_hash(0, 0, 1, 1, std::vector<float>{-0.0f}));
}

TEST(NetProtocol, TilePayloadOffByAFewBytesRejected) {
  FrameTileMsg tile;
  tile.width = 3;
  tile.height = 2;
  tile.pixels = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  const std::vector<std::uint8_t> good = tile.encode();
  for (const std::size_t delta : {1u, 3u, 4u}) {
    const std::vector<std::uint8_t> short_payload(good.begin(),
                                                  good.end() - static_cast<std::ptrdiff_t>(delta));
    WireReader sr(short_payload);
    EXPECT_THROW((void)FrameTileMsg::decode(sr), ProtocolError) << delta << " short";
    std::vector<std::uint8_t> long_payload = good;
    long_payload.insert(long_payload.end(), delta, std::uint8_t{0xAB});
    WireReader lr(long_payload);
    EXPECT_THROW((void)FrameTileMsg::decode(lr), ProtocolError) << delta << " long";
  }
}

TEST(NetProtocol, TileCodecRoundTripsSpecialFloatBitsExactly) {
  // The pixel block is copied, not converted: NaN payloads, signed zeros
  // and denormals must survive bit for bit.
  const std::vector<std::uint32_t> bits = {
      0x7FC00001u,  // quiet NaN with a payload
      0xFFC12345u,  // negative quiet NaN with a payload
      0x7F800001u,  // signaling NaN
      0x00000000u,  // +0.0f
      0x80000000u,  // -0.0f
      0x00000001u,  // smallest denormal
      0x807FFFFFu,  // largest negative denormal
      0x7F800000u,  // +inf
  };
  FrameTileMsg tile;
  tile.width = 4;
  tile.height = 2;
  for (const std::uint32_t b : bits) tile.pixels.push_back(std::bit_cast<float>(b));
  tile.tile_hash = net::tile_payload_hash(0, 0, 4, 2, tile.pixels);
  const auto payload = tile.encode();
  WireReader r(payload);
  const FrameTileMsg back = FrameTileMsg::decode(r);
  ASSERT_EQ(back.pixels.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back.pixels[i]), bits[i]) << "pixel " << i;
  }
  EXPECT_EQ(net::tile_payload_hash(0, 0, 4, 2, back.pixels), tile.tile_hash);
}

TEST(NetProtocol, TileEncodedSizeIsHeaderPlusPixels) {
  for (const auto& [w, h] : {std::pair{1, 1}, std::pair{7, 3}, std::pair{32, 32}}) {
    FrameTileMsg tile;
    tile.width = w;
    tile.height = h;
    tile.pixels.assign(static_cast<std::size_t>(w) * static_cast<std::size_t>(h), 0.5f);
    EXPECT_EQ(tile.encode().size(), 24u + 4u * static_cast<std::size_t>(w * h))
        << w << "x" << h;
  }
}

// ---------------------------------------------------- framing layer ------

/// Little-endian header writer for hostile framing bytes.
std::vector<std::uint8_t> raw_header(std::uint32_t magic, std::uint8_t type,
                                     std::uint32_t len) {
  WireWriter w;
  w.u32(magic);
  w.u8(type);
  w.u32(len);
  return w.take();
}

TEST(NetFraming, RejectsBadMagic) {
  auto [a, b] = Socket::pair();
  const auto header = raw_header(0x12345678u, 1, 0);
  a.send_all(header.data(), header.size());
  MsgType type{};
  std::vector<std::uint8_t> payload;
  EXPECT_THROW((void)net::read_message(b, &type, &payload), ProtocolError);
}

TEST(NetFraming, RejectsOversizedDeclaredLength) {
  // The declared length exceeds kMaxPayloadBytes: must throw from the
  // header alone, before any payload allocation or read.
  auto [a, b] = Socket::pair();
  const auto header = raw_header(net::kMagic, 2, net::kMaxPayloadBytes + 1);
  a.send_all(header.data(), header.size());
  MsgType type{};
  std::vector<std::uint8_t> payload;
  EXPECT_THROW((void)net::read_message(b, &type, &payload), ProtocolError);
}

TEST(NetFraming, RejectsGarbagePrefix) {
  auto [a, b] = Socket::pair();
  util::Rng rng(1);
  std::vector<std::uint8_t> junk(64);
  for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng() & 0xFF);
  junk[0] = 0x00;  // ensure the magic cannot match by chance
  a.send_all(junk.data(), junk.size());
  MsgType type{};
  std::vector<std::uint8_t> payload;
  EXPECT_THROW((void)net::read_message(b, &type, &payload), ProtocolError);
}

TEST(NetFraming, RejectsEofMidPayload) {
  auto [a, b] = Socket::pair();
  const auto header = raw_header(net::kMagic, 2, 100);
  a.send_all(header.data(), header.size());
  const std::vector<std::uint8_t> partial(10, 0xCC);
  a.send_all(partial.data(), partial.size());
  a.close();  // EOF with 90 bytes owed: truncation, not a goodbye
  MsgType type{};
  std::vector<std::uint8_t> payload;
  EXPECT_THROW((void)net::read_message(b, &type, &payload), ProtocolError);
}

TEST(NetFraming, CleanEofAtBoundaryReturnsFalse) {
  auto [a, b] = Socket::pair();
  net::send_message(a, MsgType::kHealthReq, {});
  a.close();
  MsgType type{};
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(net::read_message(b, &type, &payload));
  EXPECT_EQ(type, MsgType::kHealthReq);
  EXPECT_TRUE(payload.empty());
  EXPECT_FALSE(net::read_message(b, &type, &payload));
}

// ------------------------------------------- client verification ---------
//
// A scripted fake server over Socket::pair(). Replies are pre-written into
// the socketpair buffer before the client call that reads them — the
// messages involved are far below the kernel buffer size, so no second
// thread is needed and every byte on the wire is exactly what the test
// wrote.

struct FakeServer {
  Socket socket;
  FrameClient client;

  FakeServer() : FakeServer(Socket::pair()) {}

  void open(int width, int height) {
    net::SessionOpenedMsg opened{.session_id = 1, .width = width, .height = height};
    net::send_message(socket, MsgType::kSessionOpened, opened.encode());
    (void)client.open_session(vortex_spec(), small_config(), small_dnc());
  }

  void send(MsgType type, std::span<const std::uint8_t> payload) {
    net::send_message(socket, type, payload);
  }

 private:
  explicit FakeServer(std::pair<Socket, Socket> ends)
      : socket(std::move(ends.first)), client(std::move(ends.second)) {}
};

FrameTileMsg make_tile(int x0, int y0, int w, int h, float base) {
  FrameTileMsg tile;
  tile.x0 = x0;
  tile.y0 = y0;
  tile.width = w;
  tile.height = h;
  tile.pixels.resize(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
  for (std::size_t i = 0; i < tile.pixels.size(); ++i) {
    tile.pixels[i] = base + static_cast<float>(i) * 0.5f;
  }
  tile.tile_hash = net::tile_payload_hash(x0, y0, w, h, tile.pixels);
  return tile;
}

/// The framebuffer the client should reassemble from `tiles` over a zeroed
/// w x h target (open_session resets the client framebuffer to zeros).
render::Framebuffer expected_fb(int w, int h,
                                const std::vector<FrameTileMsg>& tiles) {
  render::Framebuffer fb;
  fb.reset(w, h);
  render::Framebuffer scratch;
  for (const FrameTileMsg& tile : tiles) {
    scratch.reset(tile.width, tile.height);
    std::copy(tile.pixels.begin(), tile.pixels.end(), scratch.pixels().data());
    fb.copy_rect_from(scratch, tile.x0, tile.y0);
  }
  return fb;
}

FrameBeginMsg begin_for(std::uint64_t tag, int w, int h,
                        const std::vector<FrameTileMsg>& tiles,
                        std::uint64_t content_hash) {
  FrameBeginMsg begin;
  begin.client_tag = tag;
  begin.job_id = 100;
  begin.content_hash = content_hash;
  begin.width = w;
  begin.height = h;
  begin.tile_count = static_cast<std::uint32_t>(tiles.size());
  begin.flags = FrameBeginMsg::kFlagFull;
  return begin;
}

TEST(NetClient, AppliesCraftedFrameAndVerifiesHashes) {
  FakeServer fake;
  fake.open(8, 8);
  const std::vector<FrameTileMsg> tiles = {make_tile(0, 0, 8, 4, 1.0f),
                                           make_tile(0, 4, 8, 4, -3.0f)};
  const render::Framebuffer expected = expected_fb(8, 8, tiles);

  fake.send(MsgType::kSubmitAck, SubmitAckMsg{.client_tag = 1, .job_id = 100}.encode());
  fake.send(MsgType::kFrameBegin,
            begin_for(1, 8, 8, tiles, expected.content_hash()).encode());
  for (const auto& tile : tiles) fake.send(MsgType::kFrameTile, tile.encode());
  fake.send(MsgType::kFrameEnd, FrameEndMsg{.client_tag = 1}.encode());

  (void)fake.client.submit({}, plain_submit());
  const FrameClient::FrameResult result = fake.client.await_frame();
  EXPECT_EQ(result.client_tag, 1u);
  EXPECT_EQ(result.tiles, 2);
  EXPECT_TRUE(result.full);
  EXPECT_EQ(result.content_hash, expected.content_hash());
  EXPECT_GT(result.wire_bytes, 2u * 8u * 4u * sizeof(float));
  EXPECT_TRUE(fake.client.framebuffer() == expected);
}

TEST(NetClient, RejectsSwappedTilePayloads) {
  // Two individually intact tiles whose pixel payloads are swapped: every
  // byte on the wire is "valid", only the binding of payload to rect is
  // wrong, which is exactly what the per-tile hash exists to catch.
  FakeServer fake;
  fake.open(8, 8);
  FrameTileMsg a = make_tile(0, 0, 8, 4, 1.0f);
  FrameTileMsg b = make_tile(0, 4, 8, 4, -3.0f);
  std::swap(a.pixels, b.pixels);  // rects and hashes keep their originals

  fake.send(MsgType::kSubmitAck, SubmitAckMsg{.client_tag = 1, .job_id = 100}.encode());
  fake.send(MsgType::kFrameBegin, begin_for(1, 8, 8, {a, b}, 0).encode());
  fake.send(MsgType::kFrameTile, a.encode());
  fake.send(MsgType::kFrameTile, b.encode());
  fake.send(MsgType::kFrameEnd, FrameEndMsg{.client_tag = 1}.encode());

  (void)fake.client.submit({}, plain_submit());
  EXPECT_THROW((void)fake.client.await_frame(), ProtocolError);
}

TEST(NetClient, RejectsMidFrameDisconnect) {
  FakeServer fake;
  fake.open(8, 8);
  const FrameTileMsg tile = make_tile(0, 0, 8, 4, 1.0f);

  fake.send(MsgType::kSubmitAck, SubmitAckMsg{.client_tag = 1, .job_id = 100}.encode());
  fake.send(MsgType::kFrameBegin, begin_for(1, 8, 8, {tile, tile}, 0).encode());
  fake.send(MsgType::kFrameTile, tile.encode());
  fake.socket.shutdown_write();  // vanish with one tile still owed

  (void)fake.client.submit({}, plain_submit());
  EXPECT_THROW((void)fake.client.await_frame(), ProtocolError);
}

TEST(NetClient, RejectsContentHashMismatch) {
  // Per-tile hashes check out but the assembled frame does not match the
  // engine hash in the header — the end-to-end bit-exactness backstop.
  FakeServer fake;
  fake.open(8, 8);
  const std::vector<FrameTileMsg> tiles = {make_tile(0, 0, 8, 8, 2.0f)};
  const std::uint64_t good = expected_fb(8, 8, tiles).content_hash();

  fake.send(MsgType::kSubmitAck, SubmitAckMsg{.client_tag = 1, .job_id = 100}.encode());
  fake.send(MsgType::kFrameBegin, begin_for(1, 8, 8, tiles, good ^ 1).encode());
  fake.send(MsgType::kFrameTile, tiles[0].encode());
  fake.send(MsgType::kFrameEnd, FrameEndMsg{.client_tag = 1}.encode());

  (void)fake.client.submit({}, plain_submit());
  EXPECT_THROW((void)fake.client.await_frame(), ProtocolError);
}

TEST(NetClient, RejectsTileOutsideFramebuffer) {
  constexpr int kMax = std::numeric_limits<std::int32_t>::max();
  // Each tile is well hashed; only its rect is wrong. The INT_MAX origins
  // would wrap a naive `x0 + width > fb width` check.
  const std::vector<FrameTileMsg> tiles = {
      make_tile(4, 4, 8, 4, 1.0f),     // spills right
      make_tile(kMax, 0, 1, 1, 1.0f),  // x origin at INT_MAX
      make_tile(0, kMax, 1, 1, 1.0f),  // y origin at INT_MAX
  };
  for (const FrameTileMsg& tile : tiles) {
    SCOPED_TRACE(testing::Message() << "tile at " << tile.x0 << "," << tile.y0);
    FakeServer fake;
    fake.open(8, 8);
    fake.send(MsgType::kSubmitAck, SubmitAckMsg{.client_tag = 1, .job_id = 100}.encode());
    fake.send(MsgType::kFrameBegin, begin_for(1, 8, 8, {tile}, 0).encode());
    fake.send(MsgType::kFrameTile, tile.encode());
    fake.send(MsgType::kFrameEnd, FrameEndMsg{.client_tag = 1}.encode());

    (void)fake.client.submit({}, plain_submit());
    EXPECT_THROW((void)fake.client.await_frame(), ProtocolError);
  }
}

// --------------------------------------------------- loopback layer ------

TEST(NetLoopback, FirstFrameMatchesInProcessEngineBitwise) {
  const auto config = small_config();
  const auto dnc = small_dnc();
  const FieldSpec spec = vortex_spec();
  const auto field = spec.make_field();
  const auto spots = test_spots(config, spec.domain);

  // The reference: a fresh in-process engine on the same scene.
  core::DncSynthesizer solo(config, dnc);
  solo.synthesize(*field, spots);

  FrameServer server(loopback_options());
  auto [client_end, server_end] = Socket::pair();
  server.adopt(std::move(server_end));
  FrameClient client(std::move(client_end));
  const auto opened = client.open_session(spec, config, dnc);
  EXPECT_EQ(opened.width, config.texture_width);
  EXPECT_EQ(opened.height, config.texture_height);

  (void)client.submit(spots, plain_submit());
  const FrameClient::FrameResult result = client.await_frame();
  EXPECT_TRUE(result.full);
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.content_hash, solo.texture().content_hash());
  EXPECT_TRUE(client.framebuffer() == solo.texture());
  server.stop();
}

TEST(NetLoopback, DeltaFramesStayBitExactAndTransmitLess) {
  const auto config = small_config();
  const auto dnc = small_dnc();
  const FieldSpec spec = vortex_spec();
  const auto field = spec.make_field();
  auto spots = test_spots(config, spec.domain);

  FrameServer server(loopback_options());
  auto [client_end, server_end] = Socket::pair();
  server.adopt(std::move(server_end));
  FrameClient client(std::move(client_end));
  (void)client.open_session(spec, config, dnc);

  (void)client.submit(spots, plain_submit());
  const auto first = client.await_frame();
  ASSERT_TRUE(first.full);

  // Nudge one spot: the delta must cover its old and new extent and leave
  // everything else untransmitted — yet reassemble bit-identically to a
  // fresh full engine run on the moved population.
  spots[17].position.x += 0.05;
  spots[17].position.y -= 0.03;
  (void)client.submit(spots, plain_submit());
  const auto second = client.await_frame();
  EXPECT_FALSE(second.full);
  EXPECT_GT(second.tiles, 0);
  EXPECT_LT(second.tiles, first.tiles);
  EXPECT_LT(second.wire_bytes, first.wire_bytes);

  core::DncSynthesizer solo(config, dnc);
  solo.synthesize(*field, spots);
  EXPECT_EQ(second.content_hash, solo.texture().content_hash());
  EXPECT_TRUE(client.framebuffer() == solo.texture());

  // An unchanged population transmits zero tiles and still verifies.
  (void)client.submit(spots, plain_submit());
  const auto third = client.await_frame();
  EXPECT_FALSE(third.full);
  EXPECT_EQ(third.tiles, 0);
  EXPECT_TRUE(client.framebuffer() == solo.texture());
  server.stop();
}

TEST(NetLoopback, ReorderedPopulationShipsNoTiles) {
  // Swapping two spots changes no pixel (the contribution lattice makes
  // the sum order-free), so no tile's bytes change and none ships.
  const auto config = small_config();
  const auto dnc = small_dnc();
  const FieldSpec spec = vortex_spec();
  auto spots = test_spots(config, spec.domain);

  FrameServer server(loopback_options());
  auto [client_end, server_end] = Socket::pair();
  server.adopt(std::move(server_end));
  FrameClient client(std::move(client_end));
  (void)client.open_session(spec, config, dnc);

  (void)client.submit(spots, plain_submit());
  const auto first = client.await_frame();
  ASSERT_TRUE(first.full);

  std::swap(spots[3], spots[150]);
  (void)client.submit(spots, plain_submit());
  const auto second = client.await_frame();
  EXPECT_FALSE(second.full);
  EXPECT_EQ(second.tiles, 0);
  EXPECT_EQ(second.content_hash, first.content_hash);
  server.stop();
}

TEST(NetLoopback, DegradedFrameShipsOnlyChangedTiles) {
  const auto config = small_config();
  const auto dnc = small_dnc();
  const FieldSpec spec = vortex_spec();
  const auto field = spec.make_field();
  auto spots = test_spots(config, spec.domain);

  FrameServer server(loopback_options());
  auto [client_end, server_end] = Socket::pair();
  server.adopt(std::move(server_end));
  FrameClient client(std::move(client_end));
  (void)client.open_session(spec, config, dnc);

  // Frame 1 calibrates the session so a later frame can degrade.
  (void)client.submit(spots, plain_submit());
  const auto first = client.await_frame();
  ASSERT_TRUE(first.full);

  // An impossible deadline under kDegrade serves the last completed frame:
  // exactly what the client already holds, so nothing ships.
  spots[17].position.x += 0.05;
  spots[17].position.y -= 0.03;
  net::ClientSubmitOptions hurried = plain_submit();
  hurried.deadline_seconds = 1e-9;
  hurried.policy = core::SubmitOptions::DeadlinePolicy::kDegrade;
  (void)client.submit(spots, hurried);
  const auto degraded = client.await_frame();
  EXPECT_TRUE(degraded.degraded);
  EXPECT_FALSE(degraded.full);
  EXPECT_EQ(degraded.tiles, 0);
  EXPECT_EQ(degraded.content_hash, first.content_hash);

  // The clean frame after it ships only the tiles the moved spot touched.
  (void)client.submit(spots, plain_submit());
  const auto clean = client.await_frame();
  EXPECT_FALSE(clean.degraded);
  EXPECT_FALSE(clean.full);
  EXPECT_GT(clean.tiles, 0);
  EXPECT_LT(clean.tiles, first.tiles);

  core::DncSynthesizer solo(config, dnc);
  solo.synthesize(*field, spots);
  EXPECT_EQ(clean.content_hash, solo.texture().content_hash());
  EXPECT_TRUE(client.framebuffer() == solo.texture());
  server.stop();
}

TEST(NetLoopback, RejectedDeadlineSurfacesAsJobError) {
  const auto config = small_config();
  const auto dnc = small_dnc();
  const FieldSpec spec = vortex_spec();
  const auto spots = test_spots(config, spec.domain);

  FrameServer server(loopback_options());
  auto [client_end, server_end] = Socket::pair();
  server.adopt(std::move(server_end));
  FrameClient client(std::move(client_end));
  (void)client.open_session(spec, config, dnc);

  // Frame 1 calibrates the session's PerfModel so admission can predict.
  (void)client.submit(spots, plain_submit());
  (void)client.await_frame();

  net::ClientSubmitOptions impossible = plain_submit();
  impossible.deadline_seconds = 1e-9;
  impossible.policy = core::SubmitOptions::DeadlinePolicy::kReject;
  (void)client.submit(spots, impossible);
  try {
    (void)client.await_frame();
    FAIL() << "expected ServerJobError";
  } catch (const net::ServerJobError& e) {
    EXPECT_EQ(e.code(), net::JobErrorCode::kRejected);
  }
  server.stop();
  EXPECT_GE(server.service().health().rejected, 1);
}

TEST(NetLoopback, HealthAndCancelRoundTrip) {
  const auto config = small_config();
  const auto dnc = small_dnc();
  const FieldSpec spec = vortex_spec();
  const auto spots = test_spots(config, spec.domain);

  FrameServer server(loopback_options());
  auto [client_end, server_end] = Socket::pair();
  server.adopt(std::move(server_end));
  FrameClient client(std::move(client_end));
  (void)client.open_session(spec, config, dnc);

  (void)client.submit(spots, plain_submit());
  (void)client.await_frame();
  const net::HealthRespMsg h = client.health();
  EXPECT_GE(h.completed, 1);
  EXPECT_EQ(h.open_sessions, 1);

  // Cancel a later submit: the job either completes first (a frame) or is
  // canceled (a kJobError with kCanceled) — both are valid outcomes; what
  // must not happen is silence or a mis-coded error.
  const std::uint64_t tag = client.submit(spots, plain_submit());
  client.cancel(client.job_id_for(tag));
  try {
    const auto result = client.await_frame();
    EXPECT_EQ(result.client_tag, tag);
  } catch (const net::ServerJobError& e) {
    EXPECT_EQ(e.code(), net::JobErrorCode::kCanceled);
  }
  server.stop();
}

TEST(NetLoopback, GracefulDrainDeliversEverySubmittedFrame) {
  // Over a real AF_UNIX path (listen/accept, not socketpair). stop() is
  // called with three frames submitted and undelivered; the drain contract
  // says all three still arrive, verified, before the connection closes.
  const auto config = small_config();
  const auto dnc = small_dnc();
  const FieldSpec spec = vortex_spec();
  const auto spots = test_spots(config, spec.domain);

  const std::string path = "dcsn_test_net_drain.sock";
  FrameServerOptions options = loopback_options();
  options.socket_path = path;
  FrameServer server(options);

  FrameClient client(path);
  (void)client.open_session(spec, config, dnc);
  std::uint64_t last_tag = 0;
  for (int i = 0; i < 3; ++i) last_tag = client.submit(spots, plain_submit());
  // Make sure the server has accepted all three (the ack proves the submit
  // was enqueued) before the drain starts, so none race the half-close.
  (void)client.job_id_for(last_tag);

  server.stop();

  std::uint64_t prev_hash = 0;
  for (int i = 0; i < 3; ++i) {
    const auto result = client.await_frame();
    if (i > 0) {
      EXPECT_EQ(result.content_hash, prev_hash);  // same scene every frame
    }
    prev_hash = result.content_hash;
  }
  EXPECT_THROW((void)client.await_frame(), net::ConnectionClosed);
  std::remove(path.c_str());
}

TEST(NetLoopback, ServerSurvivesGarbageAndReportsError) {
  FrameServer server(loopback_options());
  auto [raw, server_end] = Socket::pair();
  server.adopt(std::move(server_end));

  // A syntactically valid frame carrying an undecodable payload.
  const std::vector<std::uint8_t> junk(16, 0xEE);
  net::send_message(raw, MsgType::kOpenSession, junk);

  MsgType type{};
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(net::read_message(raw, &type, &payload));
  EXPECT_EQ(type, MsgType::kError);
  // After reporting, the server drops the connection: clean EOF.
  EXPECT_FALSE(net::read_message(raw, &type, &payload));
  server.stop();
}

TEST(NetLoopback, ServerRejectsOversizedSessionWithError) {
  FrameServer server(loopback_options());
  auto [raw, server_end] = Socket::pair();
  server.adopt(std::move(server_end));

  // A well-formed OpenSession asking for a million worker threads.
  net::OpenSessionMsg msg = small_session();
  msg.dnc.processors = 1 << 20;
  net::send_message(raw, MsgType::kOpenSession, msg.encode());

  MsgType type{};
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(net::read_message(raw, &type, &payload));
  EXPECT_EQ(type, MsgType::kError);
  EXPECT_FALSE(net::read_message(raw, &type, &payload));
  EXPECT_TRUE(server.service().health().sessions.empty());
  server.stop();
}

TEST(NetLoopback, ServerSurvivesAbruptClientDisconnect) {
  const auto config = small_config();
  const auto dnc = small_dnc();
  const FieldSpec spec = vortex_spec();
  const auto spots = test_spots(config, spec.domain);

  FrameServer server(loopback_options());
  {
    auto [client_end, server_end] = Socket::pair();
    server.adopt(std::move(server_end));
    FrameClient client(std::move(client_end));
    (void)client.open_session(spec, config, dnc);
    (void)client.submit(spots, plain_submit());
    // Client destructor closes the socket with a frame still in flight.
  }
  server.stop();  // must not hang or crash; the pump observed the dead peer
  EXPECT_TRUE(server.service().health().sessions.empty());
}

}  // namespace
