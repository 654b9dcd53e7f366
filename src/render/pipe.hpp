// The simulated graphics pipe: an asynchronous rendering coprocessor.
//
// The paper views each InfiniteReality pipe as an OpenGL state machine that
// executes concurrently with the CPUs (fig. 4). GraphicsPipe reproduces that
// contract in software:
//
//   * a dedicated server thread owns a private render-target Framebuffer;
//   * commands (state changes, clears, vertex buffers, fences) stream
//     through a bounded queue, so submission overlaps execution — the
//     max(genP, genT) overlap of eq. 2.1 rather than the sum;
//   * the bound spot profile and the viewport origin form the pipe's state
//     (blending is always additive: spot noise is a sum); binding a profile
//     or resizing the target costs a configurable synchronization latency,
//     modeling the geometry-processor sync the paper avoids by transforming
//     spots on the CPUs (§4, footnote 1);
//   * vertex buffers arrive via the shared Bus, and read_back() returns the
//     finished texture across the same bus (the sequential gather of §3).
//
// Per-pipe counters expose genT (busy seconds), bytes, vertices, quads,
// fragments, state changes and stall time; the benches print these to
// reproduce the paper's bandwidth observations.
#pragma once

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <variant>

#include "render/bus.hpp"
#include "render/command_buffer.hpp"
#include "render/framebuffer.hpp"
#include "render/rasterizer.hpp"
#include "render/spot_profile.hpp"
#include "util/queue.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_annotations.hpp"

namespace dcsn::render {

struct PipeConfig {
  int width = 512;
  int height = 512;
  /// Latency of one state change (texture bind, target resize, matrix load).
  /// The default models a fraction of the IR's geometry-processor sync.
  double state_change_seconds = 20e-6;
  std::size_t queue_capacity = 64;
};

struct PipeStats {
  double busy_seconds = 0.0;        ///< genT: rasterization + state changes
  double raster_seconds = 0.0;      ///< rasterization only
  double state_seconds = 0.0;       ///< state-change sync latency only
  double stall_seconds = 0.0;       ///< waited on bus arrivals
  std::int64_t buffers = 0;
  std::int64_t vertices = 0;
  std::int64_t state_changes = 0;
  std::uint64_t bytes_received = 0;
  RasterStats raster;
};

class GraphicsPipe {
 public:
  /// Starts the server thread. `bus` is shared by all pipes and may be
  /// null for an unthrottled direct connection.
  GraphicsPipe(PipeConfig config, std::shared_ptr<Bus> bus, int pipe_id = 0);
  ~GraphicsPipe();

  GraphicsPipe(const GraphicsPipe&) = delete;
  GraphicsPipe& operator=(const GraphicsPipe&) = delete;

  // --- command stream ---
  //
  // submit(), submit_with_state_changes(), finish() and stats() are safe
  // from any thread while a frame is in flight: every participant of a
  // frame submits its own buffers, and each call only touches the
  // internally locked queue, the stats mutex and the bus. The state
  // commands (bind_profile, set_viewport_origin, resize_target, clear,
  // set_bus) and read_back belong to the pipe's owner, which issues them
  // only while no other thread submits.

  /// Binds a spot profile (a state change).
  void bind_profile(std::shared_ptr<const SpotProfile> profile);

  /// Sets the viewport origin so geometry in full-texture coordinates lands
  /// in this pipe's (smaller) target — used by texture tiling. Integral
  /// pixel origins keep tiled rasterization bit-identical to the
  /// full-texture path (see render/rasterizer.hpp).
  void set_viewport_origin(int x, int y);

  /// Reallocates the render target (a state change; the old contents are
  /// discarded). Lets the tiled engine reshape its regions between frames
  /// when the cost-balanced tiling moves a cut.
  void resize_target(int width, int height);

  /// Clears the render target to `value`.
  void clear(float value = 0.0f);

  /// Streams a buffer of transformed spot geometry. The buffer is moved;
  /// execution begins once the simulated bus delivers it.
  void submit(CommandBuffer buffer);

  /// Issues `count` redundant state changes before the buffer — the
  /// transform-on-pipe ablation (what the paper avoided by transforming
  /// spots in software).
  void submit_with_state_changes(CommandBuffer buffer, int count);

  /// Blocks until every previously submitted command has executed.
  void finish();

  /// finish() + copy the render target back across the bus.
  [[nodiscard]] Framebuffer read_back();

  /// read_back() into a caller-provided buffer (reshaped to the target's
  /// dimensions, reusing its allocation) — the pooled-readback path: with a
  /// render::FramebufferPool buffer this makes the sequential gather
  /// allocation-free in steady state.
  void read_back_into(Framebuffer& out);

  /// Rebinds the host<->pipe bus. Part of the pipe-pool checkout protocol:
  /// pooled pipes are reused across sessions that each keep their own Bus
  /// model. Caller-thread state (the bus is consulted on submit/read_back,
  /// never by the server thread); call only while no commands are in
  /// flight, i.e. between sessions.
  void set_bus(std::shared_ptr<Bus> bus) { bus_ = std::move(bus); }

  // --- introspection ---

  [[nodiscard]] const PipeConfig& config() const { return config_; }
  [[nodiscard]] int id() const { return pipe_id_; }

  /// Snapshot of the counters. Call after finish() for exact totals.
  [[nodiscard]] PipeStats stats() const;
  void reset_stats();

 private:
  struct CmdBindProfile {
    std::shared_ptr<const SpotProfile> profile;
  };
  struct CmdViewport {
    int x, y;
  };
  struct CmdResize {
    int width, height;
  };
  struct CmdClear {
    float value;
  };
  struct CmdDraw {
    CommandBuffer buffer;
    Bus::Clock::time_point available_at;
    int extra_state_changes;
  };
  struct CmdFence {
    std::promise<void> done;
  };
  using Command =
      std::variant<CmdBindProfile, CmdViewport, CmdResize, CmdClear, CmdDraw, CmdFence>;

  void server_loop(std::stop_token stop);
  void execute(Command& cmd);
  void pay_state_change();

  // Owner state: written only by the state commands between frames (the
  // command-stream contract above), never by the server.
  PipeConfig config_;       // lock-lint: unguarded(owner writes between frames only)
  std::shared_ptr<Bus> bus_;  // lock-lint: unguarded(owner writes between frames only)
  int pipe_id_;             // lock-lint: unguarded(immutable after construction)

  // Server-thread state: touched only inside execute(), which runs solely on
  // server_ — ordering with the caller is the queue's synchronization.
  Framebuffer target_;      // lock-lint: unguarded(server thread only)
  std::shared_ptr<const SpotProfile> bound_profile_;  // lock-lint: unguarded(server thread only)
  int viewport_x_ = 0;      // lock-lint: unguarded(server thread only)
  int viewport_y_ = 0;      // lock-lint: unguarded(server thread only)

  util::BoundedQueue<Command> queue_;  // lock-lint: unguarded(internally synchronized)
  mutable util::Mutex stats_mutex_;
  PipeStats stats_ DCSN_GUARDED_BY(stats_mutex_);

  // Last member: joins before the rest is destroyed.
  std::jthread server_;  // lock-lint: unguarded(the server thread itself)
};

}  // namespace dcsn::render
