#include "core/runtime.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"
#include "util/threading.hpp"

namespace dcsn::core {

namespace {

/// Released pipes retained per behavioral configuration; extras are torn
/// down on release.
constexpr std::size_t kMaxIdlePipes = 16;

}  // namespace

PipeLease& PipeLease::operator=(PipeLease&& other) noexcept {
  if (this != &other) {
    if (runtime_ && pipe_) runtime_->release_pipe(std::move(pipe_));
    runtime_ = other.runtime_;
    pipe_ = std::move(other.pipe_);
    other.runtime_ = nullptr;
  }
  return *this;
}

PipeLease::~PipeLease() {
  if (runtime_ && pipe_) runtime_->release_pipe(std::move(pipe_));
}

Runtime::Runtime(RuntimeConfig config)
    : config_(config),
      tile_store_(TileStore::Config{.max_bytes = config.tile_cache_bytes,
                                    .shards = config.tile_cache_shards,
                                    .recycle = &framebuffers_}) {
  if (config_.workers > 0) ensure_workers(config_.workers);
}

Runtime::~Runtime() {
  {
    util::MutexLock lock(mutex_);
    stop_ = true;
    ++epoch_;
  }
  cv_.notify_all();
  workers_.clear();  // joins the pool (jthread)
  // idle_pipes_ tears down after: each pipe joins its server thread.
}

Runtime& Runtime::global() {
  static Runtime runtime;
  return runtime;
}

void Runtime::ensure_workers(int count) {
  util::MutexLock lock(mutex_);
  while (static_cast<int>(workers_.size()) < count) {
    const int id = static_cast<int>(workers_.size());
    workers_.emplace_back([this, id] { worker_loop(id); });
  }
}

int Runtime::worker_count() const {
  util::MutexLock lock(mutex_);
  return static_cast<int>(workers_.size());
}

void Runtime::register_job(std::shared_ptr<SharedJob> job) {
  {
    util::MutexLock lock(mutex_);
    jobs_.push_back(std::move(job));
    job_count_.store(static_cast<int>(jobs_.size()), std::memory_order_relaxed);
    ++epoch_;
  }
  cv_.notify_all();
}

void Runtime::deregister_job(const SharedJob* job) {
  util::MutexLock lock(mutex_);
  std::erase_if(jobs_, [job](const auto& j) { return j.get() == job; });
  job_count_.store(static_cast<int>(jobs_.size()), std::memory_order_relaxed);
}

void Runtime::post(std::function<void()> fn) {
  {
    util::MutexLock lock(mutex_);
    tasks_.push_back(std::move(fn));
    ++epoch_;
  }
  cv_.notify_all();
}

void Runtime::worker_loop(int worker_id) {
  util::set_current_thread_name("dcsn-rt" + std::to_string(worker_id));
  for (;;) {
    std::function<void()> task;
    std::vector<std::shared_ptr<SharedJob>> jobs;
    std::uint64_t epoch;
    {
      util::MutexLock lock(mutex_);
      epoch = epoch_;
      if (stop_) return;
      if (!tasks_.empty()) {
        // FIFO; tasks beat job service so short pipeline steps (prepare,
        // partial reductions) are not starved behind a frame in flight.
        task = std::move(tasks_.front());
        tasks_.erase(tasks_.begin());
      } else {
        jobs = jobs_;  // snapshot: serve outside the lock
      }
    }
    if (task) {
      task();
      continue;
    }
    // Fault site kWorkerPickup (scheduling class): a drop models a worker
    // offering no capacity this round — it falls through to the epoch wait
    // below, so the frame's calling thread (which always participates) keeps
    // the frame live and nothing can hang; a delay models preemption before
    // pickup. Never a throw: an exception here would kill the pool thread.
    if (FaultInjector* faults = config_.fault_injector.get()) {
      if (faults->check_scheduling(FaultSite::kWorkerPickup) ==
          FaultInjector::Action::kDrop) {
        jobs.clear();
      }
    }
    bool worked = false;
    for (const auto& job : jobs) worked = job->serve() || worked;
    if (worked) continue;
    util::MutexLock lock(mutex_);
    cv_.wait(lock, [&]() DCSN_REQUIRES(mutex_) {
      return stop_ || epoch_ != epoch || !tasks_.empty();
    });
  }
}

PipeLease Runtime::acquire_pipe(const render::PipeConfig& config,
                                std::shared_ptr<render::Bus> bus, int pipe_id) {
  std::unique_ptr<render::GraphicsPipe> pipe;
  {
    util::MutexLock lock(pipes_mutex_);
    auto it = idle_pipes_.find(key_of(config));
    if (it != idle_pipes_.end() && !it->second.empty()) {
      pipe = std::move(it->second.back());
      it->second.pop_back();
      ++pipes_reused_;
    } else {
      ++pipes_created_;
    }
  }
  if (pipe) {
    // Reuse path: rebind the borrowing session's bus and reshape the target
    // instead of paying a fresh server thread + allocation. The session
    // performs its own profile/blend/viewport setup next, exactly as it
    // would on a new pipe.
    pipe->set_bus(std::move(bus));
    if (pipe->config().width != config.width ||
        pipe->config().height != config.height) {
      pipe->resize_target(config.width, config.height);
    }
  } else {
    pipe = std::make_unique<render::GraphicsPipe>(config, std::move(bus), pipe_id);
  }
  return {this, std::move(pipe)};
}

void Runtime::release_pipe(std::unique_ptr<render::GraphicsPipe> pipe) {
  // Scrub session state so a pooled pipe holds no references into the
  // session that returned it: profile freed, viewport back at the origin,
  // bus model dropped. finish() drains these before the pipe goes idle.
  pipe->bind_profile(nullptr);
  pipe->set_viewport_origin(0, 0);
  pipe->finish();
  pipe->set_bus(nullptr);
  pipe->reset_stats();
  util::MutexLock lock(pipes_mutex_);
  auto& idle = idle_pipes_[key_of(pipe->config())];
  if (idle.size() < kMaxIdlePipes) idle.push_back(std::move(pipe));
  // else: destroyed here, joining its server thread.
}

std::int64_t Runtime::pipes_created() const {
  util::MutexLock lock(pipes_mutex_);
  return pipes_created_;
}

std::int64_t Runtime::pipes_reused() const {
  util::MutexLock lock(pipes_mutex_);
  return pipes_reused_;
}

}  // namespace dcsn::core
