// End-to-end frame benchmark: closed-loop FrameClients drive an in-process
// FrameServer over a real AF_UNIX socket, and a separate traced run splits
// the same frames by layer.
//
// usage: frame_bench --workload steer|animate|browse --seed N --seconds S
//                    --trace 0|1 [--trace-out PATH] [--socket PATH]
//                    [--inputs-only]
//
// A run: set-up (five times, median reported), a timed phase of S seconds
// with tracing off, with --trace 1 a traced phase of S/2 seconds on the
// same service, then an untimed reference replay that every streamed frame
// must match bit for bit. Human-readable lines start with "# "; the last
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// perfbench/README.md lists the workloads and the layer -> metric map.
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/frame_delta.hpp"
#include "core/runtime.hpp"
#include "core/spot_geometry.hpp"
#include "core/synthesis_service.hpp"
#include "core/tiling.hpp"
#include "field/fingerprint.hpp"
#include "net/frame_client.hpp"
#include "net/frame_server.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "render/framebuffer.hpp"
#include "trace.hpp"
#include "util/simd_dispatch.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace dcsn;
using perfbench::FrameRecorder;
using perfbench::FrameSpans;
using perfbench::FrameStream;
using perfbench::kClients;
using perfbench::Row;
using perfbench::TraceClock;
using perfbench::Workload;
using perfbench::WorkloadKind;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Command line and run stamp
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inputs_only = false;
  std::string trace_out;
  std::string socket_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "frame_bench: %s\nusage: frame_bench --workload steer|animate|browse "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH] [--socket PATH] "
               "[--inputs-only]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inputs-only") {
      a.inputs_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--socket") {
      a.socket_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Timings from an unoptimised or instrumented build are not comparable with
/// anything, so the benchmark refuses to report them.
std::string build_refusal() {
#if !defined(__OPTIMIZE__)
  return "unoptimised build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (flags.find("-fsanitize") != std::string::npos) return "sanitizer flags: " + flags;
  if (flags.find("-O0") != std::string::npos) return "-O0 in flags: " + flags;
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' (need Release or RelWithDebInfo)";
  }
  return {};
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string run_stamp() {
  const char* env = std::getenv("DCSN_SIMD");
  std::string s = "{";
  s += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  s += ",\"simd_tier\":\"" + std::string(util::simd::tier_name(util::simd::active_tier())) +
       "\"";
  s += ",\"dcsn_simd_env\":\"" + json_escape(env != nullptr ? env : "") + "\"";
  s += ",\"cpu_flags\":\"" + json_escape(util::simd::cpu_flags()) + "\"";
  s += ",\"compiler\":\"" + json_escape(PERFBENCH_COMPILER) + "\"";
  s += ",\"build_type\":\"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
  s += ",\"cxx_flags\":\"" + json_escape(PERFBENCH_CXX_FLAGS) + "\"";
  s += "}";
  return s;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) { return util::percentile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Streamed clients
// ---------------------------------------------------------------------------

/// A frame a client received: its stream key and the hash it verified.
struct Observed {
  std::int64_t key = 0;
  std::uint64_t hash = 0;
};

/// Everything one client thread records, across every phase of the run.
struct ClientLog {
  std::vector<Observed> observed;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string error;
  // Timed phase only.
  std::vector<double> latency_ms;
  std::uint64_t wire_bytes = 0;
  std::int64_t delta_frames = 0;  ///< frames shipped as a delta
  std::int64_t delta_tiles = 0;   ///< tiles those deltas carried

  void fail(const std::exception& e) {
    ++failed;
    if (error.empty()) error = e.what();
  }
};

/// One closed-loop frame: submit, then wait for the reassembled and
/// hash-verified frame. False on any failure; the client stops there.
bool stream_one(net::FrameClient& client, FrameStream& stream,
                const net::ClientSubmitOptions& options, ClientLog& log, bool timed) {
  const perfbench::StreamFrame frame = stream.next();
  ++log.attempted;
  try {
    const Clock::time_point t0 = Clock::now();
    (void)client.submit(*frame.spots, options);
    const net::FrameClient::FrameResult result = client.await_frame();
    const double ms = seconds_since(t0) * 1e3;
    log.observed.push_back({frame.key, result.content_hash});
    if (timed) {
      log.latency_ms.push_back(ms);
      log.wire_bytes += result.wire_bytes;
      if (!result.full) {
        ++log.delta_frames;
        log.delta_tiles += result.tiles;
      }
    }
    return true;
  } catch (const std::exception& e) {
    log.fail(e);
    return false;
  }
}

/// The deployed shape: one Runtime, one FrameServer with the default
/// ServiceConfig, and kClients connected sessions.
struct Deployment {
  std::unique_ptr<core::Runtime> runtime;
  std::unique_ptr<net::FrameServer> server;
  std::vector<std::unique_ptr<net::FrameClient>> clients;
  std::vector<std::unique_ptr<FrameStream>> streams;

  /// Clients say goodbye, the server drains and stops, then the runtime
  /// goes (it must outlive the server's service).
  void tear_down() {
    for (auto& c : clients) {
      if (c) c->finish_writes();
    }
    if (server) server->stop();
    clients.clear();
    server.reset();
    runtime.reset();
  }
  ~Deployment() { tear_down(); }
};

net::ClientSubmitOptions submit_options(const Workload& w) {
  net::ClientSubmitOptions o;
  o.incremental = w.incremental;
  return o;
}

/// Builds a deployment and warms it: every session open and every client's
/// warm-up frames streamed. Returns the set-up seconds.
double set_up(const Workload& w, const std::string& socket_path, Deployment& d,
              std::vector<ClientLog>& logs) {
  const Clock::time_point t0 = Clock::now();
  core::RuntimeConfig runtime_config;
  runtime_config.tile_cache_bytes = w.tile_cache_bytes;
  d.runtime = std::make_unique<core::Runtime>(runtime_config);
  net::FrameServerOptions server_options;
  server_options.socket_path = socket_path;
  d.server = std::make_unique<net::FrameServer>(server_options, *d.runtime);
  d.clients.resize(kClients);
  d.streams.clear();
  for (int c = 0; c < kClients; ++c) d.streams.push_back(std::make_unique<FrameStream>(w, c));
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const auto i = static_cast<std::size_t>(c);
        try {
          d.clients[i] = std::make_unique<net::FrameClient>(socket_path);
          (void)d.clients[i]->open_session(w.field, w.synthesis, w.dnc);
        } catch (const std::exception& e) {
          ++logs[i].attempted;  // the session's first frame never happens
          logs[i].fail(e);
          return;
        }
        for (int f = 0; f < w.warmup_frames; ++f) {
          if (!stream_one(*d.clients[i], *d.streams[i], submit_options(w), logs[i], false)) {
            return;
          }
        }
      });
    }
  }
  return seconds_since(t0);
}

struct TimedPhase {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double peak_rss_mb = 0.0;
  core::TileStore::Stats store_before;
  core::TileStore::Stats store_after;
};

TimedPhase run_timed(const Workload& w, Deployment& d, std::vector<ClientLog>& logs,
                     double seconds) {
  TimedPhase t;
  t.store_before = d.server->service().tile_cache_stats();
  std::latch go(1);
  Clock::time_point deadline{};
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const auto i = static_cast<std::size_t>(c);
        go.wait();
        if (!d.clients[i]) return;
        while (Clock::now() < deadline) {
          if (!stream_one(*d.clients[i], *d.streams[i], submit_options(w), logs[i], true)) {
            return;
          }
        }
      });
    }
    t.cpu_seconds = process_cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    go.count_down();
    threads.clear();  // joins
    t.wall_seconds = seconds_since(t0);
  }
  t.cpu_seconds = process_cpu_seconds() - t.cpu_seconds;
  t.peak_rss_mb = peak_rss_mb();
  t.store_after = d.server->service().tile_cache_stats();
  return t;
}

// ---------------------------------------------------------------------------
// Traced run: the server's receive and send paths replayed through public
// calls around an in-process SynthesisService, one span per layer call.
// ---------------------------------------------------------------------------

struct TracedFrame {
  FrameSpans spans;
  core::FrameStats stats;
  std::int64_t tiles_sent = 0;
  double moved_share = 0.0;  ///< changed spots / population (0 on full frames)
};

/// Frames each traced session streams before its spans count: the first is
/// always full (no delta baseline, no retention).
constexpr int kTracedWarmup = 2;

void send_and_receive(net::Socket& from, net::Socket& to, net::MsgType type,
                      const std::vector<std::uint8_t>& bytes, net::MsgType* got_type,
                      std::vector<std::uint8_t>* got) {
  net::send_message(from, type, bytes);
  if (!net::read_message(to, got_type, got)) throw net::ConnectionClosed();
  if (*got_type != type) throw net::ProtocolError("socket pair reordered a message");
}

void traced_client(const Workload& w, core::SynthesisService& service, FrameStream& stream,
                   int client, TraceClock::time_point epoch, Clock::time_point deadline,
                   ClientLog& log, std::vector<TracedFrame>& out) {
  const auto field = w.field.make_field();
  const core::SynthesisService::SessionId session =
      service.open_session(w.synthesis, w.dnc);
  const core::SpotGeometryGenerator generator(w.synthesis, *field);
  const int width = w.synthesis.texture_width;
  const int height = w.synthesis.texture_height;
  const std::vector<core::Tile> wire_tiles =
      core::make_tile_grid(width, height, std::max(1, net::FrameServerOptions{}.wire_tiles));
  auto [client_end, server_end] = net::Socket::pair();
  // Room for a whole submit in flight: the pair is written and read by
  // this one thread, message by message.
  const int buffer_bytes = 4 << 20;
  for (const int fd : {client_end.fd(), server_end.fd()}) {
    (void)setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buffer_bytes, sizeof buffer_bytes);
    (void)setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buffer_bytes, sizeof buffer_bytes);
  }
  render::Framebuffer client_fb(width, height);
  render::Framebuffer scratch;
  render::Framebuffer tile_fb;
  std::vector<core::SpotInstance> baseline;
  bool baseline_valid = false;

  for (std::int64_t n = 0; n < kTracedWarmup || Clock::now() < deadline; ++n) {
    const perfbench::StreamFrame frame = stream.next();
    ++log.attempted;
    FrameRecorder rec(epoch, client, std::int64_t{client} * 1000000 + n);
    try {
      // Client: encode and send the submit; server: read and decode it.
      rec.begin(perfbench::kSubmitEncode);
      net::SubmitMsg submit;
      submit.client_tag = static_cast<std::uint64_t>(n + 1);
      submit.flags = w.incremental ? net::SubmitMsg::kFlagIncremental : 0;
      submit.spots.assign(frame.spots->begin(), frame.spots->end());
      const std::vector<std::uint8_t> submit_bytes = submit.encode();
      rec.begin(perfbench::kSocketSubmit);
      net::MsgType type{};
      std::vector<std::uint8_t> payload;
      send_and_receive(client_end, server_end, net::MsgType::kSubmit, submit_bytes, &type,
                       &payload);
      rec.begin(perfbench::kSubmitDecode);
      net::WireReader submit_reader(payload);
      net::SubmitMsg received = net::SubmitMsg::decode(submit_reader);
      rec.end();

      // Server: the service job, as FrameServer::handle_submit builds it.
      core::SynthesisRequest request;
      request.field = field.get();
      request.spots = received.spots;
      request.incremental = (received.flags & net::SubmitMsg::kFlagIncremental) != 0;
      request.capture_texture = true;
      const std::int64_t submit_ns = rec.now_ns();
      core::SynthesisResult result = service.submit(session, std::move(request)).result.get();
      const std::int64_t done_ns = rec.now_ns();
      const auto queue_ns = std::llround(result.stats.queue_wait_seconds * 1e9);
      const auto frame_ns = std::llround(result.stats.frame_seconds * 1e9);
      rec.put(perfbench::kQueueWait, submit_ns, queue_ns);
      rec.put(perfbench::kEngineFrame, submit_ns + queue_ns, frame_ns);
      rec.put(perfbench::kServiceOverhead, submit_ns + queue_ns + frame_ns,
              done_ns - submit_ns - queue_ns - frame_ns);

      // Server: the delta against the connection's baseline.
      const bool full = !baseline_valid || result.stats.degraded;
      rec.begin(perfbench::kDeltaDiff);
      core::FrameDelta delta;
      if (!full) delta = core::diff_spots(baseline, received.spots);
      rec.begin(perfbench::kDeltaDirty);
      std::vector<std::uint8_t> dirty;
      if (!full) {
        dirty = core::dirty_tiles(delta, baseline, received.spots, generator.mapping(),
                                  generator.max_extent_px(), wire_tiles);
      }
      rec.end();
      std::vector<const core::Tile*> to_send;
      for (std::size_t i = 0; i < wire_tiles.size(); ++i) {
        if (full || dirty[i] != 0) to_send.push_back(&wire_tiles[i]);
      }

      // Server: encode Begin -> Tiles -> End.
      rec.begin(perfbench::kTileEncode);
      const render::Framebuffer& texture = *result.texture;
      std::vector<std::vector<std::uint8_t>> messages;
      messages.reserve(to_send.size() + 2);
      net::FrameBeginMsg begin;
      begin.client_tag = submit.client_tag;
      begin.content_hash = result.content_hash;
      begin.width = texture.width();
      begin.height = texture.height();
      begin.tile_count = static_cast<std::uint32_t>(to_send.size());
      begin.flags = full ? net::FrameBeginMsg::kFlagFull : 0;
      begin.service_seq = result.service_seq;
      begin.attempts = result.attempts;
      messages.push_back(begin.encode());
      for (const core::Tile* tile : to_send) {
        scratch.reset(tile->width, tile->height);
        texture.extract_rect_into(scratch, tile->x0, tile->y0);
        net::FrameTileMsg msg;
        msg.x0 = tile->x0;
        msg.y0 = tile->y0;
        msg.width = tile->width;
        msg.height = tile->height;
        const std::span<const float> flat(scratch.pixels().data(), scratch.pixel_count());
        msg.tile_hash = net::tile_payload_hash(msg.x0, msg.y0, msg.width, msg.height, flat);
        msg.pixels.assign(flat.begin(), flat.end());
        messages.push_back(msg.encode());
      }
      net::FrameEndMsg end;
      end.client_tag = submit.client_tag;
      messages.push_back(end.encode());

      // The socket leg, message by message.
      rec.begin(perfbench::kSocketFrame);
      std::vector<std::vector<std::uint8_t>> wire(messages.size());
      for (std::size_t i = 0; i < messages.size(); ++i) {
        const net::MsgType t = i == 0                     ? net::MsgType::kFrameBegin
                               : i + 1 == messages.size() ? net::MsgType::kFrameEnd
                                                          : net::MsgType::kFrameTile;
        send_and_receive(server_end, client_end, t, messages[i], &type, &wire[i]);
      }

      // Client: decode, check each tile's hash, reassemble.
      rec.begin(perfbench::kTileDecode);
      net::WireReader begin_reader(wire.front());
      const net::FrameBeginMsg got_begin = net::FrameBeginMsg::decode(begin_reader);
      if (got_begin.width != width || got_begin.height != height) {
        throw net::ProtocolError("frame dimensions do not match the session");
      }
      for (std::size_t i = 1; i + 1 < wire.size(); ++i) {
        net::WireReader reader(wire[i]);
        const net::FrameTileMsg tile = net::FrameTileMsg::decode(reader);
        if (net::tile_payload_hash(tile.x0, tile.y0, tile.width, tile.height, tile.pixels) !=
            tile.tile_hash) {
          throw net::ProtocolError("tile payload hash mismatch");
        }
        tile_fb.reset(tile.width, tile.height);
        std::copy(tile.pixels.begin(), tile.pixels.end(), tile_fb.pixels().data());
        client_fb.copy_rect_from(tile_fb, tile.x0, tile.y0);
      }
      net::WireReader end_reader(wire.back());
      (void)net::FrameEndMsg::decode(end_reader);

      rec.begin(perfbench::kClientVerify);
      const bool verified = client_fb.content_hash() == got_begin.content_hash;
      const FrameSpans spans = rec.finish();
      if (!verified) throw net::ProtocolError("reassembled frame hash does not match the engine");

      log.observed.push_back({frame.key, got_begin.content_hash});
      if (result.stats.degraded) {
        baseline_valid = false;
      } else {
        baseline = std::move(received.spots);
        baseline_valid = true;
      }
      if (n >= kTracedWarmup) {
        TracedFrame t;
        t.spans = spans;
        t.stats = result.stats;
        t.tiles_sent = static_cast<std::int64_t>(to_send.size());
        t.moved_share = full ? 0.0
                             : static_cast<double>(delta.changed.size() + delta.born +
                                                   delta.died) /
                                   static_cast<double>(frame.spots->size());
        out.push_back(t);
      }
    } catch (const std::exception& e) {
      log.fail(e);
      break;
    }
  }
  service.close_session(session);
}

// ---------------------------------------------------------------------------
// Reference replay
// ---------------------------------------------------------------------------

/// The oracle engine: the workload's pixels with none of the mechanisms under
/// test — one pipe, contiguous, no retention, no tile store. Determinism makes
/// its hashes equal to any correct tiled/cached/incremental render.
core::DncConfig plain_config(const Workload& w) {
  core::DncConfig d;
  d.processors = 1;
  d.pipes = 1;
  d.chunk_spots = w.dnc.chunk_spots;
  return d;
}

/// steer's replay renders through a private tile store instead: its three
/// static tiles hit, so the replay costs about what the incremental frames
/// did, and the store is a mechanism steer bypasses — independent of the
/// retention path under test. Every kAuditEvery-th frame is re-rendered
/// by the plain oracle, so a store fault cannot hide either.
constexpr std::int64_t kAuditEvery = 16;

core::DncConfig cached_config(const Workload& w) {
  core::DncConfig d = w.dnc;
  d.tile_cache = true;
  return d;
}

struct Reference {
  /// Hash per (client, key). Keys are stream positions (steer, animate;
  /// every client replays its own stream) or series indices (browse; one
  /// shared table).
  std::vector<std::map<std::int64_t, std::uint64_t>> hashes;
  std::int64_t audit_mismatches = 0;
};

Reference replay(const Workload& w, const std::vector<ClientLog>& logs) {
  Reference ref;
  ref.hashes.resize(kClients);
  core::Runtime runtime;
  const bool shared = w.kind == WorkloadKind::kBrowse;
  const bool cached = w.kind == WorkloadKind::kSteer;
  std::vector<std::exception_ptr> errors(kClients);
  std::vector<std::int64_t> audit_mismatches(kClients, 0);
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const auto i = static_cast<std::size_t>(c);
        auto& out = ref.hashes[i];
        try {
          const auto field = w.field.make_field();
          core::DncSynthesizer plain(w.synthesis, plain_config(w), runtime);
          if (shared) {
            for (std::size_t k = i; k < w.series.size(); k += kClients) {
              plain.synthesize(*field, w.series[k]);
              out[static_cast<std::int64_t>(k)] = plain.texture().content_hash();
            }
            return;
          }
          std::optional<core::DncSynthesizer> store_engine;
          if (cached) store_engine.emplace(w.synthesis, cached_config(w), runtime);
          core::DncSynthesizer& engine = cached ? *store_engine : plain;
          std::int64_t last = -1;
          for (const Observed& o : logs[i].observed) last = std::max(last, o.key);
          FrameStream stream(w, c);
          for (std::int64_t k = 0; k <= last; ++k) {
            const perfbench::StreamFrame frame = stream.next();
            engine.synthesize(*field, *frame.spots);
            const std::uint64_t hash = engine.texture().content_hash();
            if (cached && (k % kAuditEvery == 0 || k == last)) {
              plain.synthesize(*field, *frame.spots);
              if (plain.texture().content_hash() != hash) ++audit_mismatches[i];
            }
            out[frame.key] = hash;
          }
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (const std::int64_t m : audit_mismatches) ref.audit_mismatches += m;
  if (shared) {
    for (int c = 1; c < kClients; ++c) ref.hashes[0].merge(ref.hashes[static_cast<std::size_t>(c)]);
    for (int c = 1; c < kClients; ++c) ref.hashes[static_cast<std::size_t>(c)] = ref.hashes[0];
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

template <class F>
double median_of(const std::vector<TracedFrame>& frames, F&& get) {
  std::vector<double> v;
  v.reserve(frames.size());
  for (const TracedFrame& f : frames) v.push_back(static_cast<double>(get(f)));
  return median(std::move(v));
}

double share(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::optional<WorkloadKind> kind = perfbench::parse_workload(args.workload);
  if (!kind) usage("unknown workload '" + args.workload + "'");
  const Workload w = perfbench::make_workload(*kind, args.seed);
  const std::uint64_t inputs = perfbench::input_hash(w);
  std::printf("# inputs_hash=%016" PRIx64 " workload=%s seed=%" PRIu64 "\n", inputs,
              perfbench::workload_name(w.kind), w.seed);
  if (args.inputs_only) return 0;

  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "frame_bench: refusing to report from this build: %s\n",
                 refusal.c_str());
    return 3;
  }
  const std::string stamp = run_stamp();
  std::printf("# stamp %s\n", stamp.c_str());

  const std::string socket_path =
      args.socket_path.empty()
          ? ".bench_build/fb-" + std::to_string(static_cast<long>(getpid())) + ".sock"
          : args.socket_path;
  const std::string trace_path =
      args.trace_out.empty() ? ".bench_build/trace-" + args.workload + "-" +
                                   std::to_string(args.seed) + ".json"
                             : args.trace_out;
  for (const std::string& p : {socket_path, trace_path}) {
    const auto dir = std::filesystem::path(p).parent_path();
    if (!dir.empty()) std::filesystem::create_directories(dir);
  }

  std::vector<ClientLog> logs(kClients);
  std::vector<std::string> check_failures;
  const auto check = [&check_failures](bool ok, const std::string& what) {
    std::printf("# self-check %-52s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) check_failures.push_back(what);
  };

  // Set-up, five times: the median is the reported set-up time, and the
  // last deployment serves the timed phase.
  constexpr int kSetups = 5;
  std::vector<double> setup_seconds;
  auto d = std::make_unique<Deployment>();
  for (int s = 0; s < kSetups; ++s) {
    if (s > 0) {
      d->tear_down();
      d = std::make_unique<Deployment>();
    }
    setup_seconds.push_back(set_up(w, socket_path, *d, logs));
  }
  const double setup_s = median(setup_seconds);
  std::printf("# setup_s runs:");
  for (const double s : setup_seconds) std::printf(" %.4f", s);
  std::printf("\n");

  const TimedPhase timed = run_timed(w, *d, logs, args.seconds);

  std::vector<double> latency;
  std::uint64_t wire_bytes = 0;
  std::int64_t delta_frames = 0, delta_tiles = 0;
  for (const ClientLog& log : logs) {
    latency.insert(latency.end(), log.latency_ms.begin(), log.latency_ms.end());
    wire_bytes += log.wire_bytes;
    delta_frames += log.delta_frames;
    delta_tiles += log.delta_tiles;
  }
  const auto frames = static_cast<double>(latency.size());
  const double p50 = util::percentile(latency, 0.50);
  const double p95 = util::percentile(latency, 0.95);
  const auto above_p95 =
      std::count_if(latency.begin(), latency.end(), [p95](double v) { return v > p95; });
  const int wire_tile_count =
      static_cast<int>(core::make_tile_grid(w.synthesis.texture_width,
                                            w.synthesis.texture_height,
                                            net::FrameServerOptions{}.wire_tiles)
                           .size());
  const double timed_sent_share =
      share(static_cast<double>(delta_tiles),
            static_cast<double>(delta_frames) * wire_tile_count);
  const double timed_hits =
      static_cast<double>(timed.store_after.hits - timed.store_before.hits);
  const double timed_misses =
      static_cast<double>(timed.store_after.misses - timed.store_before.misses);
  const std::int64_t timed_evictions =
      timed.store_after.evictions - timed.store_before.evictions;
  std::printf("# timed: %.0f frames in %.3f s, p50 %.3f ms, p95 %.3f ms (%lld samples above)\n",
              frames, timed.wall_seconds, p50, p95, static_cast<long long>(above_p95));
  std::printf("# store in timed phase: %.0f hits, %.0f misses, %lld evictions\n", timed_hits,
              timed_misses, static_cast<long long>(timed_evictions));

  // Traced run on the same service and runtime.
  std::vector<TracedFrame> traced;
  double fingerprint_us = 0.0;
  double store_live_mb = 0.0;
  if (args.trace) {
    // The untraced sessions say goodbye first, so the traced sessions meet
    // the same contention the timed phase did: four sessions, two drivers.
    for (auto& c : d->clients) {
      if (c) c->finish_writes();
    }
    std::vector<std::vector<TracedFrame>> per_client(kClients);
    const TraceClock::time_point epoch = TraceClock::now();
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds / 2.0));
    {
      std::vector<std::jthread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          const auto i = static_cast<std::size_t>(c);
          try {
            traced_client(w, d->server->service(), *d->streams[i], c, epoch, deadline,
                          logs[i], per_client[i]);
          } catch (const std::exception& e) {
            logs[i].fail(e);
          }
        });
      }
    }
    for (auto& v : per_client) traced.insert(traced.end(), v.begin(), v.end());
    store_live_mb =
        static_cast<double>(d->server->service().tile_cache_stats().bytes) / (1024.0 * 1024.0);
    const auto field = w.field.make_field();
    std::vector<double> fp;
    for (int r = 0; r < 15; ++r) {
      const Clock::time_point t0 = Clock::now();
      (void)field::fingerprint_field(*field);
      fp.push_back(seconds_since(t0) * 1e6);
    }
    fingerprint_us = median(fp);
  }
  d->tear_down();

  // Reference replay, outside every timed phase.
  std::int64_t mismatches = 0;
  std::int64_t observed_frames = 0;
  {
    const Clock::time_point t0 = Clock::now();
    const Reference ref = replay(w, logs);
    for (std::size_t c = 0; c < logs.size(); ++c) {
      for (const Observed& o : logs[c].observed) {
        ++observed_frames;
        const auto it = ref.hashes[c].find(o.key);
        if (it == ref.hashes[c].end() || it->second != o.hash) ++mismatches;
      }
    }
    std::printf("# replay: %lld frames checked, %lld mismatches, %lld audit mismatches "
                "(%.2f s)\n",
                static_cast<long long>(observed_frames), static_cast<long long>(mismatches),
                static_cast<long long>(ref.audit_mismatches), seconds_since(t0));
    check(ref.audit_mismatches == 0, "replay agrees with the plain oracle");
  }

  std::int64_t attempted = 0, failed = mismatches;
  for (const ClientLog& log : logs) {
    attempted += log.attempted;
    failed += log.failed;
    if (!log.error.empty()) std::printf("# client error: %s\n", log.error.c_str());
  }

  // Workload self-checks: each workload still exercises the layer it was
  // chosen for and bypasses the ones it claims to bypass.
  check(above_p95 >= 10, "at least 10 latency samples above p95");
  double moved = 0.0;
  for (int c = 0; c < kClients; ++c) {
    moved += FrameStream(w, c).moved_share() / kClients;
  }
  switch (w.kind) {
    case WorkloadKind::kSteer:
      check(moved > 0.04 && moved < 0.08, "steer: probe moves ~6% of the spots");
      check(delta_frames > 0 && timed_sent_share < 0.5, "steer: deltas ship a minority of tiles");
      check(timed_hits + timed_misses == 0, "steer: tile store bypassed");
      break;
    case WorkloadKind::kAnimate:
      check(delta_frames > 0 && timed_sent_share == 1.0, "animate: every frame ships every tile");
      check(timed_hits == 0, "animate: no tile store hits");
      check(timed_evictions > 0, "animate: store evicts at steady state");
      break;
    case WorkloadKind::kBrowse:
      check(share(timed_hits, timed_hits + timed_misses) >= 0.95,
            "browse: store hit share >= 0.95 after warm-up");
      break;
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"latency_p50_ms", p50, "ms"},
        {"latency_p95_ms", p95, "ms"},
        {"latency_samples", frames, "count"},
        {"frames_per_s", frames / timed.wall_seconds, "1/s"},
        {"cpu_ms_per_frame", share(timed.cpu_seconds * 1e3, frames), "ms"},
        {"wire_bytes_per_frame", share(static_cast<double>(wire_bytes), frames), "bytes"},
        {"peak_rss_mb", timed.peak_rss_mb, "MB"},
        {"setup_s", setup_s, "s"},
    };
  } else {
    check(!traced.empty(), "traced run produced frames");
    const auto n = static_cast<double>(traced.size());
    double hits = 0, misses = 0, published = 0, evictions = 0, reused = 0, sent = 0;
    double fragments = 0, genT = 0;
    for (const TracedFrame& t : traced) {
      hits += static_cast<double>(t.stats.cache_tile_hits);
      misses += static_cast<double>(t.stats.cache_tile_misses);
      published += static_cast<double>(t.stats.cache_tiles_published);
      evictions += static_cast<double>(t.stats.cache_evictions);
      reused += static_cast<double>(t.stats.tiles_reused);
      sent += static_cast<double>(t.tiles_sent);
      fragments += static_cast<double>(t.stats.raster.fragments);
      genT += t.stats.genT_seconds;
    }
    const auto row_us = [&](Row r) {
      return median_of(traced, [r](const TracedFrame& t) {
        return static_cast<double>(t.spans.row_ns[static_cast<std::size_t>(r)]) * 1e-3;
      });
    };
    const double total_ms = median_of(
        traced, [](const TracedFrame& t) { return static_cast<double>(t.spans.total_ns) * 1e-6; });
    const double hit_share = share(hits, hits + misses);
    const double sent_share = share(sent, n * wire_tile_count);
    const double reused_share = share(reused, n * w.dnc.pipes);
    const double traced_moved =
        median_of(traced, [](const TracedFrame& t) { return t.moved_share; });
    const double fragments_median = median_of(
        traced, [](const TracedFrame& t) { return t.stats.raster.fragments; });
    metrics = {
        {"protocol.submit_encode_us", row_us(perfbench::kSubmitEncode), "us"},
        {"protocol.submit_decode_us", row_us(perfbench::kSubmitDecode), "us"},
        {"socket.submit_us", row_us(perfbench::kSocketSubmit), "us"},
        {"service.queue_wait_ms", row_us(perfbench::kQueueWait) * 1e-3, "ms"},
        {"engine.frame_ms", row_us(perfbench::kEngineFrame) * 1e-3, "ms"},
        {"service.overhead_ms", row_us(perfbench::kServiceOverhead) * 1e-3, "ms"},
        {"delta.diff_us", row_us(perfbench::kDeltaDiff), "us"},
        {"delta.dirty_us", row_us(perfbench::kDeltaDirty), "us"},
        {"protocol.tile_encode_us", row_us(perfbench::kTileEncode), "us"},
        {"socket.frame_us", row_us(perfbench::kSocketFrame), "us"},
        {"protocol.tile_decode_us", row_us(perfbench::kTileDecode), "us"},
        {"client.verify_us", row_us(perfbench::kClientVerify), "us"},
        {"trace.residual_ms",
         median_of(traced,
                   [](const TracedFrame& t) {
                     return static_cast<double>(t.spans.residual_ns()) * 1e-6;
                   }),
         "ms"},
        {"trace.total_ms", total_ms, "ms"},
        {"trace.gap_ms", p50 - total_ms, "ms"},
        {"trace.frames", n, "count"},
        {"engine.assign_ms",
         median_of(traced, [](const TracedFrame& t) { return t.stats.assign_seconds * 1e3; }),
         "ms"},
        {"engine.genP_critical_ms",
         median_of(traced,
                   [](const TracedFrame& t) { return t.stats.genP_critical_seconds * 1e3; }),
         "ms"},
        {"engine.genT_critical_ms",
         median_of(traced,
                   [](const TracedFrame& t) { return t.stats.genT_critical_seconds * 1e3; }),
         "ms"},
        {"engine.gather_ms",
         median_of(traced, [](const TracedFrame& t) { return t.stats.gather_seconds * 1e3; }),
         "ms"},
        {"engine.pipe_stall_ms",
         median_of(traced,
                   [](const TracedFrame& t) { return t.stats.pipe_stall_seconds * 1e3; }),
         "ms"},
        {"engine.cross_session_chunks",
         median_of(traced, [](const TracedFrame& t) { return t.stats.cross_session_chunks; }),
         "count"},
        {"raster.fragments_per_frame", fragments_median, "count"},
        {"raster.frags_per_s", share(fragments, genT), "1/s"},
        {"retention.tiles_reused_share", reused_share, "share"},
        {"store.hit_share", hit_share, "share"},
        {"store.published_per_frame", published / n, "count"},
        {"store.evictions_per_frame", evictions / n, "count"},
        {"store.live_mb", store_live_mb, "MB"},
        {"delta.tiles_sent_share", sent_share, "share"},
        {"delta.moved_share", traced_moved, "share"},
        {"field.fingerprint_us", fingerprint_us, "us"},
    };
    switch (w.kind) {
      case WorkloadKind::kSteer:
        check(reused_share > 0.0, "steer: retention reuses tiles");
        check(traced_moved > 0.04 && traced_moved < 0.08, "steer: ~6% of spots change per frame");
        check(hits + misses == 0, "steer: traced frames bypass the store");
        break;
      case WorkloadKind::kAnimate:
        check(sent_share == 1.0, "animate: traced frames ship every tile");
        check(hits == 0 && evictions > 0, "animate: traced frames miss and evict");
        break;
      case WorkloadKind::kBrowse:
        check(hit_share >= 0.95, "browse: traced store hit share >= 0.95");
        check(fragments_median == 0.0, "browse: hit frames rasterize nothing");
        break;
    }
    std::string meta = "{\"workload\":\"" + args.workload + "\",\"seed\":" +
                       std::to_string(args.seed) + ",\"inputs_hash\":\"";
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, inputs);
    meta += std::string(hex) + "\",\"rows\":[";
    for (int r = 0; r < perfbench::kRowCount; ++r) {
      meta += std::string(r == 0 ? "" : ",") + "\"" +
              perfbench::kRowNames[static_cast<std::size_t>(r)] + "\"";
    }
    meta += "],\"stamp\":" + stamp + "}";
    std::vector<FrameSpans> spans;
    spans.reserve(traced.size());
    for (const TracedFrame& t : traced) spans.push_back(t.spans);
    perfbench::write_chrome_trace(trace_path, spans, meta);
    std::printf("# trace: %zu frames written to %s\n", spans.size(), trace_path.c_str());
  }
  std::remove(socket_path.c_str());

  const bool correct = failed == 0 && check_failures.empty();
  for (const Metric& m : metrics) {
    std::printf("# %-30s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
