// Length-prefixed binary frame protocol (the wire half of the streaming
// frame server).
//
// Every message is one frame on the wire:
//
//   [u32 magic 'DCSN'] [u8 type] [u32 payload_len] [payload_len bytes]
//
// All integers are little-endian regardless of host order, written and read
// byte by byte; floating-point values travel as the bit pattern of their
// IEEE-754 representation (std::bit_cast through the matching unsigned
// type), never through text — the whole point of the delta stream is that a
// client framebuffer reassembles *bit-identically* to the server's engine
// texture, so the serializer must not perturb a single mantissa bit.
//
// A frame result travels as a kFrameBegin header (dimensions, the engine's
// Framebuffer::content_hash, tile count, flags) followed by one kFrameTile
// per transmitted tile (pixel rect + an FNV-1a hash binding the rect to its
// payload, so a reordered or swapped payload is rejected) and a kFrameEnd.
// Clean tiles are simply not transmitted: the client's previous pixels are
// already bit-exact there (the PR 4 determinism lattice), which is how
// core::FrameDelta doubles as bandwidth compression.
//
// Defensive decoding: WireReader bounds-checks every get, read_message()
// rejects bad magic, oversized declared lengths (kMaxPayloadBytes) and
// mid-message EOF with ProtocolError, and OpenSessionMsg::decode rejects a
// session larger than kMaxSessionThreads or kMaxPayloadBytes allow — the
// torture suite in tests/test_net.cpp feeds exactly those corruptions.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/spot_params.hpp"
#include "core/spot_source.hpp"
#include "field/vector_field.hpp"
#include "util/error.hpp"

namespace dcsn::net {

/// Malformed wire data: bad magic, oversized/truncated payload, a payload
/// shorter than its message claims, or an out-of-range enum value.
class ProtocolError : public util::Error {
 public:
  explicit ProtocolError(const std::string& what) : util::Error(what) {}
};

inline constexpr std::uint32_t kMagic = 0x4E534344u;  // "DCSN" little-endian
inline constexpr std::uint32_t kProtocolVersion = 2;
/// Upper bound on a declared payload length. A 4 KiB texture at f32 is
/// 64 MiB; anything above this is a corrupt or hostile length prefix, not a
/// frame, and must be rejected *before* allocating.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;
inline constexpr std::size_t kHeaderBytes = 9;
/// Upper bound on an OpenSession's processors and on its pipes: each one is
/// a server thread, so a hostile count must be rejected before the runtime
/// spawns them.
inline constexpr std::int32_t kMaxSessionThreads = 64;

enum class MsgType : std::uint8_t {
  // client -> server
  kOpenSession = 1,
  kSubmit = 2,
  kCancel = 3,
  kHealthReq = 4,
  kCloseSession = 5,
  // server -> client
  kSessionOpened = 64,
  kSubmitAck = 65,
  kFrameBegin = 66,
  kFrameTile = 67,
  kFrameEnd = 68,
  kJobError = 69,
  kHealthResp = 70,
  kError = 71,
};

/// Little-endian append-only serializer.
class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    // Byte loop instead of insert(begin, end): GCC 12's -Wstringop-overflow
    // false-positives on short-string iterator inserts under -O2.
    for (const char c : s) buf_.push_back(static_cast<std::uint8_t>(c));
  }
  void bytes(const void* data, std::size_t n) {
    if (n == 0) return;
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian deserializer over a received payload.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] float f32() { return std::bit_cast<float>(u32()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    const auto b = take(n);
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }
  [[nodiscard]] std::span<const std::uint8_t> raw(std::size_t n) { return take(n); }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// Call after decoding a full message: trailing garbage is a protocol
  /// violation, not padding.
  void expect_end() const {
    if (remaining() != 0) throw ProtocolError("trailing bytes after message payload");
  }

 private:
  [[nodiscard]] std::span<const std::uint8_t> take(std::size_t n) {
    if (data_.size() - pos_ < n) throw ProtocolError("message payload truncated");
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Server-hosted dataset selection: the client names an analytic field and
/// its parameters, the server instantiates it (the smog-browser model —
/// data lives next to the engine, only frames cross the wire).
struct FieldSpec {
  enum class Kind : std::uint8_t {
    kUniform = 0,        ///< a=vx, b=vy
    kRankineVortex = 1,  ///< a=center.x, b=center.y, c=strength, d=core_radius
    kTaylorGreen = 2,    ///< a=amplitude
    kDoubleGyre = 3,     ///< a=amplitude, b=eps, c=omega, d=t (domain ignored)
  };

  Kind kind = Kind::kRankineVortex;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  double d = 0.0;
  field::Rect domain{0.0, 0.0, 1.0, 1.0};

  void encode(WireWriter& w) const;
  [[nodiscard]] static FieldSpec decode(WireReader& r);
  /// Instantiates the named field. Throws ProtocolError on an unknown kind.
  [[nodiscard]] std::unique_ptr<field::VectorField> make_field() const;
};

struct OpenSessionMsg {
  std::uint32_t version = kProtocolVersion;
  std::int32_t priority = 0;
  FieldSpec field;
  core::SynthesisConfig synthesis;
  /// Only processors, pipes, chunk_spots, tiled, tile_strategy and
  /// tile_cache travel; every other field decodes to its default.
  core::DncConfig dnc;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static OpenSessionMsg decode(WireReader& r);
};

struct SubmitMsg {
  static constexpr std::uint8_t kFlagIncremental = 1u << 0;

  std::uint64_t client_tag = 0;
  std::uint8_t flags = 0;
  double deadline_seconds = std::numeric_limits<double>::infinity();
  std::uint8_t policy = 0;  ///< core::SubmitOptions::DeadlinePolicy
  std::int32_t max_retries = 0;
  std::vector<core::SpotInstance> spots;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static SubmitMsg decode(WireReader& r);
};

struct CancelMsg {
  std::int64_t job_id = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static CancelMsg decode(WireReader& r);
};

struct SessionOpenedMsg {
  std::int64_t session_id = 0;
  std::int32_t width = 0;
  std::int32_t height = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static SessionOpenedMsg decode(WireReader& r);
};

struct SubmitAckMsg {
  std::uint64_t client_tag = 0;
  std::int64_t job_id = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static SubmitAckMsg decode(WireReader& r);
};

struct FrameBeginMsg {
  static constexpr std::uint8_t kFlagDegraded = 1u << 0;
  /// Every tile of the frame is transmitted (the connection's first frame:
  /// the server has no delivered texture to compare against yet).
  static constexpr std::uint8_t kFlagFull = 1u << 1;

  std::uint64_t client_tag = 0;
  std::int64_t job_id = 0;
  std::uint64_t content_hash = 0;  ///< Framebuffer::content_hash of the frame
  std::int32_t width = 0;
  std::int32_t height = 0;
  std::uint32_t tile_count = 0;  ///< kFrameTile messages that follow
  std::uint8_t flags = 0;
  std::int64_t service_seq = 0;
  std::int32_t attempts = 1;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static FrameBeginMsg decode(WireReader& r);
};

struct FrameTileMsg {
  std::int32_t x0 = 0;
  std::int32_t y0 = 0;
  std::int32_t width = 0;
  std::int32_t height = 0;
  /// tile_payload_hash over (rect, pixels): binds the payload to its rect,
  /// so swapping two tiles' pixel blocks — same bytes, wrong place — fails
  /// verification even though each block is individually intact.
  std::uint64_t tile_hash = 0;
  std::vector<float> pixels;  ///< row-major, width*height

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static FrameTileMsg decode(WireReader& r);
};

/// FNV-1a over the rect followed by the raw pixel bits.
[[nodiscard]] std::uint64_t tile_payload_hash(std::int32_t x0, std::int32_t y0,
                                              std::int32_t width,
                                              std::int32_t height,
                                              std::span<const float> pixels);

struct FrameEndMsg {
  std::uint64_t client_tag = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static FrameEndMsg decode(WireReader& r);
};

/// Why a submitted job produced no frame.
enum class JobErrorCode : std::uint8_t {
  kCanceled = 1,
  kTimedOut = 2,
  kRejected = 3,
  kQuarantined = 4,
  kFailed = 5,
};

struct JobErrorMsg {
  std::uint64_t client_tag = 0;
  std::uint8_t code = 0;  ///< JobErrorCode
  std::string message;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static JobErrorMsg decode(WireReader& r);
};

/// Service-lifetime totals of core::ServiceHealth, flattened for the wire.
struct HealthRespMsg {
  std::int64_t completed = 0;
  std::int64_t degraded = 0;
  std::int64_t failed = 0;
  std::int64_t retries = 0;
  std::int64_t timeouts = 0;
  std::int64_t canceled = 0;
  std::int64_t rejected = 0;
  std::int64_t quarantined = 0;
  std::int64_t yielded = 0;
  std::int64_t breaker_trips = 0;
  double clock_now = 0.0;
  std::int32_t open_sessions = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static HealthRespMsg decode(WireReader& r);
};

struct ErrorMsg {
  std::string message;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static ErrorMsg decode(WireReader& r);
};

/// Prepends the 9-byte header to `payload`.
[[nodiscard]] std::vector<std::uint8_t> frame_message(
    MsgType type, std::span<const std::uint8_t> payload);

}  // namespace dcsn::net
