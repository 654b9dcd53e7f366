#include "render/pipe.hpp"

#include <string>

#include "util/error.hpp"
#include "util/threading.hpp"

namespace dcsn::render {

GraphicsPipe::GraphicsPipe(PipeConfig config, std::shared_ptr<Bus> bus, int pipe_id)
    : config_(config),
      bus_(std::move(bus)),
      pipe_id_(pipe_id),
      target_(config.width, config.height),
      queue_(config.queue_capacity),
      server_([this](std::stop_token stop) { server_loop(stop); }) {}

GraphicsPipe::~GraphicsPipe() { queue_.close(); }

void GraphicsPipe::bind_profile(std::shared_ptr<const SpotProfile> profile) {
  queue_.push(CmdBindProfile{std::move(profile)});
}

void GraphicsPipe::set_viewport_origin(int x, int y) {
  queue_.push(CmdViewport{x, y});
}

void GraphicsPipe::resize_target(int width, int height) {
  DCSN_CHECK(width > 0 && height > 0, "pipe target dimensions must be positive");
  // Caller-side bookkeeping: config() must reflect the actual target shape
  // so a pool checkout can tell whether a reshape is needed. Only the
  // dimensions are written; the server thread reads the behavioral fields,
  // which never change after construction.
  config_.width = width;
  config_.height = height;
  queue_.push(CmdResize{width, height});
}

void GraphicsPipe::clear(float value) { queue_.push(CmdClear{value}); }

void GraphicsPipe::submit(CommandBuffer buffer) {
  submit_with_state_changes(std::move(buffer), 0);
}

void GraphicsPipe::submit_with_state_changes(CommandBuffer buffer, int count) {
  if (buffer.empty() && count == 0) return;
  const std::size_t bytes = buffer.byte_size();
  const auto available_at =
      bus_ ? bus_->schedule(bytes)
           // determinism: timing model only — completion stamp, not pixels.
           : Bus::Clock::time_point{Bus::Clock::now()};
  {
    util::MutexLock lock(stats_mutex_);
    stats_.bytes_received += bytes;
  }
  queue_.push(CmdDraw{std::move(buffer), available_at, count});
}

void GraphicsPipe::finish() {
  CmdFence fence;
  std::future<void> done = fence.done.get_future();
  queue_.push(std::move(fence));
  done.wait();
}

Framebuffer GraphicsPipe::read_back() {
  finish();
  if (bus_) bus_->transfer(target_.byte_size());
  return target_;  // copy: the "texture" crossing back to host memory
}

void GraphicsPipe::read_back_into(Framebuffer& out) {
  finish();
  if (bus_) bus_->transfer(target_.byte_size());
  out = target_;  // copy assignment reuses `out`'s allocation when it fits
}

PipeStats GraphicsPipe::stats() const {
  util::MutexLock lock(stats_mutex_);
  return stats_;
}

void GraphicsPipe::reset_stats() {
  util::MutexLock lock(stats_mutex_);
  stats_ = PipeStats{};
}

void GraphicsPipe::server_loop(std::stop_token /*stop*/) {
  util::set_current_thread_name("gpipe-" + std::to_string(pipe_id_));
  while (auto cmd = queue_.pop()) {
    execute(*cmd);
  }
}

void GraphicsPipe::pay_state_change() {
  // Busy-wait: the sync latency occupies the pipe, it is not idle time.
  const util::Stopwatch watch;
  while (watch.seconds() < config_.state_change_seconds) {
    // spin
  }
}

void GraphicsPipe::execute(Command& cmd) {
  struct Visitor {
    GraphicsPipe& pipe;

    void operator()(CmdBindProfile& c) {
      const util::Stopwatch watch;
      pipe.pay_state_change();
      pipe.bound_profile_ = std::move(c.profile);
      util::MutexLock lock(pipe.stats_mutex_);
      pipe.stats_.state_changes += 1;
      pipe.stats_.state_seconds += watch.seconds();
      pipe.stats_.busy_seconds += watch.seconds();
    }

    void operator()(CmdViewport& c) {
      pipe.viewport_x_ = c.x;
      pipe.viewport_y_ = c.y;
    }

    void operator()(CmdResize& c) {
      const util::Stopwatch watch;
      pipe.pay_state_change();
      pipe.target_ = Framebuffer(c.width, c.height);
      util::MutexLock lock(pipe.stats_mutex_);
      pipe.stats_.state_changes += 1;
      pipe.stats_.state_seconds += watch.seconds();
      pipe.stats_.busy_seconds += watch.seconds();
    }

    void operator()(CmdClear& c) {
      // Raster-side work is attributed with the thread CPU clock so genT
      // stays meaningful when pipes and workers outnumber the host's cores.
      const util::ThreadCpuStopwatch watch;
      pipe.target_.clear(c.value);
      util::MutexLock lock(pipe.stats_mutex_);
      pipe.stats_.busy_seconds += watch.seconds();
      pipe.stats_.raster_seconds += watch.seconds();
    }

    void operator()(CmdDraw& c) {
      // Wait for the bus to deliver the vertex data (DMA completion).
      // determinism: timing model only — stall accounting, not pixels.
      const auto now = Bus::Clock::now();
      if (c.available_at > now) {
        const double stall = std::chrono::duration<double>(c.available_at - now).count();
        std::this_thread::sleep_until(c.available_at);
        util::MutexLock lock(pipe.stats_mutex_);
        pipe.stats_.stall_seconds += stall;
      }
      double state_time = 0.0;
      for (int k = 0; k < c.extra_state_changes; ++k) {
        const util::Stopwatch watch;
        pipe.pay_state_change();
        state_time += watch.seconds();
      }

      const util::ThreadCpuStopwatch watch;
      RasterStats raster;
      if (pipe.bound_profile_) {
        const RasterTarget target{pipe.target_.pixels(), pipe.viewport_x_,
                                  pipe.viewport_y_};
        rasterize_buffer(target, c.buffer, *pipe.bound_profile_, raster);
      }
      const double busy = watch.seconds();
      util::MutexLock lock(pipe.stats_mutex_);
      pipe.stats_.buffers += 1;
      pipe.stats_.vertices += static_cast<std::int64_t>(c.buffer.vertex_count());
      pipe.stats_.raster += raster;
      pipe.stats_.raster_seconds += busy;
      pipe.stats_.state_seconds += state_time;
      pipe.stats_.state_changes += c.extra_state_changes;
      pipe.stats_.busy_seconds += busy + state_time;
    }

    void operator()(CmdFence& c) { c.done.set_value(); }
  };
  std::visit(Visitor{*this}, cmd);
}

}  // namespace dcsn::render
