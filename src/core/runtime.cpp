#include "core/runtime.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <limits>
#include <string>

#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/threading.hpp"

namespace dcsn::core {

namespace {

/// Released pipes retained per behavioral configuration; extras are torn
/// down on release.
constexpr std::size_t kMaxIdlePipes = 16;

/// How long a worker that just served a fork-join loop, or a caller waiting
/// for a loop's participants, spins before it parks. It bridges the gap
/// between back-to-back loops (a DNS step opens 164) and is short enough
/// that an idle process stops spending CPU within a fraction of a
/// millisecond.
constexpr double kSpinBeforeParkSeconds = 50e-6;

/// Spins until `done()` holds or kSpinBeforeParkSeconds elapse; returns
/// done().
template <class Done>
bool spin_until(Done done) {
  const util::Stopwatch spinning;
  for (unsigned k = 1;; ++k) {
    if (done()) return true;
    if (k % 64 == 0 && spinning.seconds() >= kSpinBeforeParkSeconds) return false;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

/// The pool index of the calling worker thread; -1 on other threads.
thread_local int t_worker_index = -1;

// One fork_join call as a registered job. The range is split into one
// block per participant: each participant claims chunks from its home
// block first and then from the others, so a loop repeated over the same
// data (a solver's sweeps) finds each block in the cache of the thread
// that touched it last, while a participant that never comes still gets
// its block done. Heap-owned because pool workers may call serve() from a
// stale registry snapshot after the call returned — a closed job refuses
// the join before it touches the caller's body.
class ForkJoin final : public Runtime::SharedJob {
 public:
  ForkJoin(std::int64_t n, std::int64_t chunk, int max_participants,
           const Runtime::LoopBody& body)
      : body_(body), max_participants_(max_participants) {
    for (int b = 0; b < max_participants; ++b) {
      const std::int64_t first = n * b / max_participants;
      const std::int64_t last = n * (b + 1) / max_participants;
      blocks_.emplace_back(first, last - first, chunk);
    }
  }

  bool serve() override {
    if (drained() || failed_.load(std::memory_order_relaxed)) return false;
    // Enter before taking a slot, and close before counting who is inside
    // (finish): with both sides sequentially consistent, either this join
    // sees the job closed or the caller waits for it to leave.
    active_.fetch_add(1, std::memory_order_seq_cst);
    int slot = joined_.load(std::memory_order_seq_cst);
    bool joined = false;
    while (!joined && slot < max_participants_) {
      joined = joined_.compare_exchange_weak(slot, slot + 1, std::memory_order_seq_cst);
    }
    // Worker w's home block is the same in every loop; block 0 is the
    // caller's.
    const int home = 1 + t_worker_index % (max_participants_ - 1);
    const bool worked = joined && run(slot, home);
    leave();
    return worked;
  }

  [[nodiscard]] bool keep_warm() const override { return true; }

  /// Claims ranges for `slot`, home block first, until none is left or a
  /// participant failed.
  bool run(int slot, int home) {
    bool worked = false;
    try {
      for (int k = 0; k < max_participants_; ++k) {
        Block& block = blocks_[static_cast<std::size_t>((home + k) % max_participants_)];
        while (!failed_.load(std::memory_order_relaxed)) {
          // The owner eats its block from the front, helpers from the back.
          const auto range = k == 0 ? block.counter.claim()
                                    : block.counter.steal(block.counter.chunk());
          if (range.empty()) break;
          worked = true;
          body_(slot, block.first + range.begin, block.first + range.end);
        }
      }
    } catch (...) {
      util::MutexLock lock(mutex_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
    return worked;
  }

  /// The caller's side, after its own run(0, 0): closes the job against
  /// late joins, leaves, waits until every worker has left and returns the
  /// first error.
  std::exception_ptr finish() {
    joined_.store(kClosed, std::memory_order_seq_cst);
    active_.fetch_sub(1, std::memory_order_seq_cst);
    (void)spin_until([&] { return active_.load(std::memory_order_seq_cst) == 0; });
    util::MutexLock lock(mutex_);
    cv_.wait(lock, [&] { return active_.load(std::memory_order_seq_cst) == 0; });
    return error_;
  }

 private:
  static constexpr int kClosed = std::numeric_limits<int>::max();

  // One cache line per block, so claims on neighbouring blocks do not
  // contend.
  struct alignas(64) Block {
    Block(std::int64_t first, std::int64_t size, std::int64_t chunk)
        : first(first), counter(size, chunk) {}
    std::int64_t first;
    util::StealableWorkCounter counter;
  };

  bool drained() const {
    return std::all_of(blocks_.begin(), blocks_.end(),
                       [](const Block& b) { return b.counter.drained(); });
  }

  void leave() {
    if (active_.fetch_sub(1, std::memory_order_seq_cst) != 1) return;
    // Taking the mutex orders this wake after the caller's predicate check.
    { util::MutexLock lock(mutex_); }
    cv_.notify_all();
  }

  const Runtime::LoopBody& body_;
  const int max_participants_;
  std::deque<Block> blocks_;  // lock-lint: unguarded(counters internally synchronized)
  util::Mutex mutex_;
  util::CondVar cv_;
  std::exception_ptr error_ DCSN_GUARDED_BY(mutex_);
  /// Slots handed out (slot 0, the caller's, at construction), or kClosed.
  std::atomic<int> joined_{1};
  /// Participants inside, the caller included until it finishes.
  std::atomic<int> active_{1};
  std::atomic<bool> failed_{false};
};

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
    epoch_.fetch_add(1, std::memory_order_relaxed);
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
  // Called once per parallel_for: a grown pool must not cost its mutex.
  if (worker_count() >= count) return;
  util::MutexLock lock(mutex_);
  while (static_cast<int>(workers_.size()) < count) {
    const int id = static_cast<int>(workers_.size());
    workers_.emplace_back([this, id] { worker_loop(id); });
    worker_count_.store(static_cast<int>(workers_.size()), std::memory_order_release);
  }
}

int Runtime::worker_count() const {
  return worker_count_.load(std::memory_order_acquire);
}

void Runtime::register_job(std::shared_ptr<SharedJob> job) {
  {
    util::MutexLock lock(mutex_);
    jobs_.push_back(std::move(job));
    job_count_.store(static_cast<int>(jobs_.size()), std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_all();
}

void Runtime::deregister_job(const SharedJob* job) {
  util::MutexLock lock(mutex_);
  std::erase_if(jobs_, [job](const auto& j) { return j.get() == job; });
  job_count_.store(static_cast<int>(jobs_.size()), std::memory_order_relaxed);
}

void Runtime::fork_join(std::int64_t n, std::int64_t chunk, int max_participants,
                        const LoopBody& body) {
  DCSN_CHECK(chunk >= 1, "fork_join chunk must be >= 1");
  DCSN_CHECK(max_participants >= 1, "fork_join needs at least one participant");
  if (max_participants == 1 || n <= chunk) {
    for (std::int64_t begin = 0; begin < n; begin += chunk) {
      body(0, begin, std::min(n, begin + chunk));
    }
    return;
  }
  auto job = std::make_shared<ForkJoin>(n, chunk, max_participants, body);
  register_job(job);
  (void)job->run(0, 0);
  // Deregister before rethrowing, so a failed loop never leaks its job.
  const std::exception_ptr error = job->finish();
  deregister_job(job.get());
  if (error) std::rethrow_exception(error);
}

void Runtime::worker_loop(int worker_id) {
  util::set_current_thread_name("dcsn-rt" + std::to_string(worker_id));
  t_worker_index = worker_id;
  bool warm = false;  // offered to a keep_warm() job since it last spun
  for (;;) {
    std::vector<std::shared_ptr<SharedJob>> jobs;
    std::uint64_t epoch;
    {
      util::MutexLock lock(mutex_);
      if (stop_) return;
      epoch = epoch_.load(std::memory_order_relaxed);
      jobs = jobs_;  // snapshot: serve outside the lock
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
    bool more = false;  // served a job that may have work left
    for (const auto& job : jobs) {
      const bool worked = job->serve();
      if (job->keep_warm()) {
        warm = true;  // even if this worker came too late to help
      } else {
        more = more || worked;
      }
    }
    if (more) continue;
    if (warm) {
      warm = false;
      if (spin_until([&] { return epoch_.load(std::memory_order_relaxed) != epoch; })) {
        continue;
      }
    }
    util::MutexLock lock(mutex_);
    cv_.wait(lock, [&]() DCSN_REQUIRES(mutex_) {
      return stop_ || epoch_.load(std::memory_order_relaxed) != epoch;
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

void parallel_for(std::int64_t n,
                  const std::function<void(std::int64_t begin, std::int64_t end)>& body,
                  int max_participants) {
  const int cap = max_participants > 0 ? max_participants : util::hardware_threads();
  Runtime& runtime = Runtime::global();
  runtime.ensure_workers(cap - 1);
  // About four ranges per participant: a late joiner still finds work, and
  // a claim costs one atomic add.
  const std::int64_t ranges = 4 * static_cast<std::int64_t>(cap);
  const std::int64_t chunk = std::max<std::int64_t>(1, (n + ranges - 1) / ranges);
  runtime.fork_join(n, chunk, cap, [&body](int, std::int64_t begin, std::int64_t end) {
    body(begin, end);
  });
}

}  // namespace dcsn::core
