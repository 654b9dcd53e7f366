// Tests for the simulated graphics pipe and the bus model: asynchronous
// execution, state machine semantics, fences, readback, stats, throttling,
// and concurrent submitters.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "render/bus.hpp"
#include "render/pipe.hpp"
#include "util/stopwatch.hpp"

// TSan detection for both GCC (__SANITIZE_THREAD__) and Clang
// (__has_feature): the wall-clock overlap assertion is skipped under the
// instrumented build — see OverlapsWithSubmitterWork.
#if defined(__SANITIZE_THREAD__)
#define DCSN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DCSN_TSAN 1
#endif
#endif

namespace {

using namespace dcsn;

render::CommandBuffer unit_quad(float x0, float y0, float x1, float y1,
                                float intensity = 1.0f) {
  render::CommandBuffer buf;
  auto v = buf.add_mesh(intensity, 2, 2);
  v[0] = {x0, y0, 0.5f, 0.5f};
  v[1] = {x1, y0, 0.5f, 0.5f};
  v[2] = {x0, y1, 0.5f, 0.5f};
  v[3] = {x1, y1, 0.5f, 0.5f};
  return buf;
}

render::PipeConfig small_pipe() {
  render::PipeConfig pc;
  pc.width = 32;
  pc.height = 32;
  pc.state_change_seconds = 0.0;
  return pc;
}

// -------------------------------------------------------------------- Bus ---

TEST(Bus, UnthrottledIsImmediate) {
  render::Bus bus(0.0);
  const auto before = render::Bus::Clock::now();
  const auto done = bus.schedule(1 << 20);
  EXPECT_LE(done, render::Bus::Clock::now());
  EXPECT_GE(done, before - std::chrono::seconds(1));
  EXPECT_EQ(bus.bytes_moved(), 1u << 20);
}

TEST(Bus, ThrottledTransfersSerialize) {
  render::Bus bus(1e6);  // 1 MB/s
  const auto t1 = bus.schedule(100000);  // 0.1 s
  const auto t2 = bus.schedule(100000);  // queued behind the first
  EXPECT_GE(std::chrono::duration<double>(t2 - t1).count(), 0.099);
}

TEST(Bus, SynchronousTransferBlocks) {
  render::Bus bus(1e6);
  const util::Stopwatch watch;
  bus.transfer(50000);  // 50 ms at 1 MB/s
  EXPECT_GE(watch.seconds(), 0.045);
}

TEST(Bus, StatsReset) {
  render::Bus bus(0.0);
  (void)bus.schedule(128);
  bus.reset_stats();
  EXPECT_EQ(bus.bytes_moved(), 0u);
}

// ------------------------------------------------------------ GraphicsPipe ---

TEST(GraphicsPipe, RendersSubmittedGeometry) {
  render::GraphicsPipe pipe(small_pipe(), nullptr);
  pipe.bind_profile(render::SpotProfile::make_shared(render::SpotShape::kDisc));
  pipe.clear();
  pipe.submit(unit_quad(8, 8, 24, 24));
  const auto fb = pipe.read_back();
  EXPECT_GT(fb.at(16, 16), 0.0f);
  EXPECT_EQ(fb.at(1, 1), 0.0f);
}

TEST(GraphicsPipe, DrawWithoutProfileIsNoOp) {
  render::GraphicsPipe pipe(small_pipe(), nullptr);
  pipe.clear();
  pipe.submit(unit_quad(8, 8, 24, 24));
  const auto fb = pipe.read_back();
  EXPECT_EQ(fb.at(16, 16), 0.0f);
}

TEST(GraphicsPipe, ClearResetsTarget) {
  render::GraphicsPipe pipe(small_pipe(), nullptr);
  pipe.bind_profile(render::SpotProfile::make_shared(render::SpotShape::kDisc));
  pipe.submit(unit_quad(0, 0, 32, 32));
  pipe.clear();
  const auto fb = pipe.read_back();
  EXPECT_EQ(fb.at(16, 16), 0.0f);
}

TEST(GraphicsPipe, CommandsExecuteInOrder) {
  // Additive then clear then additive: only the second draw survives.
  render::GraphicsPipe pipe(small_pipe(), nullptr);
  pipe.bind_profile(render::SpotProfile::make_shared(render::SpotShape::kDisc));
  pipe.clear();
  pipe.submit(unit_quad(0, 0, 32, 32, 5.0f));
  pipe.clear();
  pipe.submit(unit_quad(8, 8, 24, 24, 1.0f));
  const auto fb = pipe.read_back();
  const float center = fb.at(16, 16);
  EXPECT_GT(center, 0.0f);
  EXPECT_LT(center, 1.0f);  // not the 5x draw
}

TEST(GraphicsPipe, FinishIsABarrier) {
  render::GraphicsPipe pipe(small_pipe(), nullptr);
  pipe.bind_profile(render::SpotProfile::make_shared(render::SpotShape::kDisc));
  pipe.clear();
  for (int k = 0; k < 100; ++k) pipe.submit(unit_quad(0, 0, 32, 32));
  pipe.finish();
  const auto stats = pipe.stats();
  EXPECT_EQ(stats.buffers, 100);
}

TEST(GraphicsPipe, StatsCountVerticesAndBytes) {
  render::GraphicsPipe pipe(small_pipe(), nullptr);
  pipe.bind_profile(render::SpotProfile::make_shared(render::SpotShape::kDisc));
  pipe.reset_stats();
  auto buf = unit_quad(0, 0, 16, 16);
  const auto bytes = buf.byte_size();
  pipe.submit(std::move(buf));
  pipe.finish();
  const auto stats = pipe.stats();
  EXPECT_EQ(stats.vertices, 4);
  EXPECT_EQ(stats.bytes_received, bytes);
  EXPECT_GT(stats.busy_seconds, 0.0);
  EXPECT_GT(stats.raster.fragments, 0);
}

TEST(GraphicsPipe, StateChangesAreCharged) {
  auto pc = small_pipe();
  pc.state_change_seconds = 2e-3;
  render::GraphicsPipe pipe(pc, nullptr);
  pipe.reset_stats();
  pipe.bind_profile(render::SpotProfile::make_shared(render::SpotShape::kDisc));
  pipe.bind_profile(render::SpotProfile::make_shared(render::SpotShape::kGaussian));
  pipe.finish();
  const auto stats = pipe.stats();
  EXPECT_EQ(stats.state_changes, 2);
  EXPECT_GE(stats.state_seconds, 2 * 2e-3 * 0.9);
  EXPECT_GE(stats.busy_seconds, stats.state_seconds);
}

TEST(GraphicsPipe, ExtraStateChangesModelTransformOnPipe) {
  auto pc = small_pipe();
  pc.state_change_seconds = 1e-3;
  render::GraphicsPipe pipe(pc, nullptr);
  pipe.bind_profile(render::SpotProfile::make_shared(render::SpotShape::kDisc));
  pipe.finish();
  pipe.reset_stats();
  pipe.submit_with_state_changes(unit_quad(0, 0, 16, 16), 5);
  pipe.finish();
  const auto stats = pipe.stats();
  EXPECT_EQ(stats.state_changes, 5);
  EXPECT_GE(stats.state_seconds, 5e-3 * 0.9);
}

TEST(GraphicsPipe, ViewportOriginShiftsRendering) {
  auto pc = small_pipe();
  render::GraphicsPipe pipe(pc, nullptr);
  pipe.bind_profile(render::SpotProfile::make_shared(render::SpotShape::kDisc));
  pipe.set_viewport_origin(100, 200);
  pipe.clear();
  // Geometry in global coordinates [100,132)x[200,232) covers the tile.
  pipe.submit(unit_quad(100, 200, 132, 232));
  const auto fb = pipe.read_back();
  EXPECT_GT(fb.at(16, 16), 0.0f);
}

TEST(GraphicsPipe, OverlapsWithSubmitterWork) {
  // While the pipe rasterizes, the submitting thread stays free: total time
  // must be well below the sum of both sides (eq. 2.1's max, not sum).
  // Four fullscreen quads per iteration keep the raster work heavy enough for
  // the overlap to be measurable on a loaded one-core host — the span-kernel
  // rewrite made a single quad too cheap for the wall-clock margin.
#if defined(DCSN_TSAN)
  GTEST_SKIP() << "wall-clock overlap margin is not meaningful under TSan's "
                  "slowdown on an oversubscribed host; races in this path are "
                  "covered by the rest of the suite";
#endif
  auto pc = small_pipe();
  pc.width = 256;
  pc.height = 256;
  render::GraphicsPipe pipe(pc, nullptr);
  pipe.bind_profile(render::SpotProfile::make_shared(render::SpotShape::kDisc));
  pipe.clear();
  pipe.finish();

  const util::Stopwatch watch;
  double cpu_busy = 0.0;
  for (int k = 0; k < 50; ++k) {
    // heavy pipe work
    for (int q = 0; q < 4; ++q) pipe.submit(unit_quad(0, 0, 256, 256));
    const util::Stopwatch cpu;
    volatile double sink = 0.0;
    while (cpu.seconds() < 1e-3) sink = sink + 1.0;  // heavy CPU work
    cpu_busy += cpu.seconds();
  }
  pipe.finish();
  const double total = watch.seconds();
  const double pipe_busy = pipe.stats().raster_seconds;
  // Overlap: total < cpu + pipe (with slack for scheduling noise).
  EXPECT_LT(total, (cpu_busy + pipe_busy) * 0.95);
}

TEST(GraphicsPipe, BusDelayShowsAsStall) {
  auto pc = small_pipe();
  // 2 kB/s: the 64+12 byte quad takes ~38 ms to cross, far longer than
  // scheduler noise can delay the server thread on a loaded host. (A ~76 us
  // transfer could complete before the server reached the draw, recording
  // no stall.)
  auto bus = std::make_shared<render::Bus>(2e3);
  render::GraphicsPipe pipe(pc, bus);
  pipe.bind_profile(render::SpotProfile::make_shared(render::SpotShape::kDisc));
  pipe.finish();
  pipe.reset_stats();
  pipe.submit(unit_quad(0, 0, 16, 16));
  pipe.finish();
  EXPECT_GT(pipe.stats().stall_seconds, 0.0);
}

TEST(GraphicsPipe, ReadBackMovesTextureOverBus) {
  auto pc = small_pipe();  // 32*32*4 = 4096 bytes
  auto bus = std::make_shared<render::Bus>(1e6);
  render::GraphicsPipe pipe(pc, bus);
  pipe.finish();
  bus->reset_stats();
  (void)pipe.read_back();
  EXPECT_EQ(bus->bytes_moved(), 4096u);
}

TEST(GraphicsPipe, ConcurrentSubmittersMatchOneSubmitter) {
  // Every participant of an engine frame submits its own buffers into the
  // pipe. Disjoint buffers from several threads at once must render the
  // same bits as one thread submitting them in order (the contribution
  // lattice makes the sum order-free), and the counters must add up. A
  // two-deep queue keeps submitters blocked on a full queue most of the
  // time.
  constexpr int kThreads = 4;
  constexpr int kBuffersEach = 40;
  auto pc = small_pipe();
  pc.queue_capacity = 2;
  const auto profile = render::SpotProfile::make_shared(render::SpotShape::kGaussian);
  // Overlapping quads with intensities whose plain float sums would depend
  // on order. Every pixel's sum stays far inside the lattice's exact range
  // (util::simd::kContributionExactBound): at most 160 x 0.22.
  const auto buffer_of = [](int thread, int k) {
    const auto x = static_cast<float>((thread * 7 + k * 3) % 16);
    const auto y = static_cast<float>((thread * 5 + k) % 16);
    return unit_quad(x, y, x + 16.0f, y + 16.0f,
                     0.01f + 0.0013f * static_cast<float>(thread * kBuffersEach + k));
  };

  render::GraphicsPipe serial(pc, nullptr);
  serial.bind_profile(profile);
  serial.clear();
  std::int64_t vertices = 0;
  std::uint64_t bytes = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kBuffersEach; ++k) {
      auto buffer = buffer_of(t, k);
      vertices += static_cast<std::int64_t>(buffer.vertex_count());
      bytes += buffer.byte_size();
      serial.submit(std::move(buffer));
    }
  }
  const render::Framebuffer expected = serial.read_back();

  render::GraphicsPipe shared(pc, nullptr);
  shared.bind_profile(profile);
  shared.clear();
  shared.finish();
  shared.reset_stats();
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&shared, &buffer_of, t] {
      for (int k = 0; k < kBuffersEach; ++k) shared.submit(buffer_of(t, k));
    });
  }
  for (auto& submitter : submitters) submitter.join();
  shared.finish();
  const render::PipeStats stats = shared.stats();
  EXPECT_EQ(stats.buffers, kThreads * kBuffersEach);
  EXPECT_EQ(stats.vertices, vertices);
  EXPECT_EQ(stats.bytes_received, bytes);
  EXPECT_TRUE(shared.read_back() == expected)
      << "concurrent submission changed the rendered bits";
}

TEST(GraphicsPipe, DestructorDrainsCleanly) {
  // Submitting work and destroying the pipe must not hang or crash.
  auto pipe = std::make_unique<render::GraphicsPipe>(small_pipe(), nullptr);
  pipe->bind_profile(render::SpotProfile::make_shared(render::SpotShape::kDisc));
  for (int k = 0; k < 10; ++k) pipe->submit(unit_quad(0, 0, 32, 32));
  pipe.reset();  // no fence: dtor closes the queue
}

}  // namespace
