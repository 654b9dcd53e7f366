// Asynchronous multi-session synthesis service.
//
// The paper's engine serves exactly one interactive user; the ROADMAP's
// north star is a system serving many. SynthesisService is that front end:
// clients open sessions (one engine + one temporal cache each, all
// borrowing pipes/workers/buffers from one shared core::Runtime) and submit
// frames as asynchronous jobs:
//
//   submit(session, request, options) → JobTicket (a future of FrameStats +
//   texture fingerprint), with per-session priority, FIFO order *within* a
//   session (frames of an animation must stay ordered), round-robin
//   fairness *between* sessions of equal priority, best-effort cancellation
//   (mid-frame cancels ride the engine's frame-failure protocol and surface
//   as JobCanceled), and graceful shutdown (drain or cancel the backlog).
//
// Driver threads dispatch jobs onto sessions — at most one frame in flight
// per session, because an engine is not re-entrant — and the runtime's
// pool workers flow to whichever frames have work, so N quiet sessions
// cost nothing and one loaded session can use the whole pool. A failing
// session (a job whose field throws mid-frame) reports through its own
// ticket and poisons nothing: the engine's failure protocol rearms it for
// the next job, and other sessions never notice.
//
// Fault tolerance (see docs/ARCHITECTURE.md "Fault tolerance & SLOs"):
//
//   * Deadlines. SubmitOptions::deadline_seconds bounds a job end to end.
//     Enforcement rides the engine's per-job FrameControl at chunk
//     granularity: injected virtual delays are charged against the budget
//     deterministically, and in wall mode the watchdog additionally flags
//     jobs past their deadline or making no chunk progress. A blown
//     deadline surfaces as core::JobTimedOut — or as a flagged degraded
//     frame (stale pixels, FrameStats::degraded) under DeadlinePolicy::
//     kDegrade.
//   * Retries. Transient frame failures (injected or real — anything but
//     JobCanceled / JobTimedOut) re-dispatch up to max_retries times with
//     bounded exponential backoff measured on the service clock.
//   * Circuit breaker. A session whose jobs fail repeatedly is quarantined:
//     new submits throw SessionQuarantined, queued jobs hold until the
//     cooldown elapses, then a single half-open probe decides re-close vs
//     re-open — one toxic field callback cannot monopolize pool drivers.
//   * Admission control. With a calibrated PerfModel (one completed frame),
//     DeadlinePolicy::kReject submissions that cannot meet their deadline
//     under the current queue depth throw JobRejected immediately instead
//     of wasting a dispatch.
//   * health() exposes all of it: per-session breaker state plus
//     retry/timeout/degraded/failure counters and service totals.
//
// Determinism note: because rasterization is target-independent and
// accumulation lattice-exact (PR 4), a frame's pixels — and therefore its
// content_hash — are identical whether its session ran alone or multiplexed
// with any number of others. tests/test_service.cpp pins exactly that; with
// a VirtualServiceClock and a seeded FaultInjector, bench_robustness
// additionally pins that a whole faulted run replays to identical health
// counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/perf_model.hpp"
#include "core/runtime.hpp"
#include "core/service_clock.hpp"
#include "core/synthesis_cache.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_annotations.hpp"

namespace dcsn::core {

/// Thrown by submit() when admission control predicts the job cannot meet
/// its deadline under the current queue depth (DeadlinePolicy::kReject):
/// rejecting at the door is cheaper than timing out after a dispatch.
class JobRejected : public util::Error {
 public:
  JobRejected() : util::Error("job rejected at admission: deadline unmeetable") {}
};

/// Thrown by submit() while the session's circuit breaker is open.
class SessionQuarantined : public util::Error {
 public:
  SessionQuarantined()
      : util::Error("session quarantined: circuit breaker open") {}
};

struct ServiceConfig {
  /// Driver threads = sessions that can be mid-frame simultaneously.
  int drivers = 2;
  /// Deterministic time source for backoff, breaker cooldowns and
  /// deadlines. Null (the default) uses wall time; tests and replay
  /// harnesses inject a VirtualServiceClock, which idle drivers advance
  /// discrete-event style to the earliest pending retry/cooldown instant.
  /// Must outlive the service.
  VirtualServiceClock* virtual_clock = nullptr;
  /// Consecutive job failures that open a session's circuit breaker.
  int breaker_failure_threshold = 3;
  /// Seconds (on the service clock) an open breaker holds before allowing
  /// a half-open probe.
  double breaker_cooldown_seconds = 0.25;
  /// Model-based admission control for DeadlinePolicy::kReject/kDegrade
  /// (needs one completed frame to calibrate the session's PerfModel).
  /// Replay harnesses disable it: calibration is measured time, which is
  /// not replay-stable.
  bool admission_control = true;
  /// Watchdog poll period (wall seconds); <= 0 disables the watchdog
  /// thread. The watchdog flags running jobs past their wall deadline and
  /// jobs making no chunk progress.
  double watchdog_interval_seconds = 0.05;
  /// Wall seconds of zero chunk progress before the watchdog times a
  /// running job out (<= 0 disables the no-progress check).
  double watchdog_no_progress_seconds = 30.0;
  /// Priority aging, in dispatches: a waiting session's head job gains one
  /// effective priority level for every `priority_aging_dispatches` jobs the
  /// service dispatched while it waited, so strict priorities cannot starve
  /// a low-priority session while a higher one keeps its queue full. Counted
  /// on the deterministic dispatch clock (serve_clock_), never wall time, so
  /// the dispatch order of a replayed submission program is replay-stable in
  /// both wall and virtual-clock modes. 0 disables aging (strict
  /// priorities — the pre-aging starvation behavior).
  int priority_aging_dispatches = 8;
  /// Chunk-granularity preemption: when every driver is busy and a pending
  /// job's deadline is at risk (slack below `yield_risk_factor` times its
  /// predicted frame time), the running job with the most slack and no
  /// higher priority is asked to yield at its next chunk checkpoint. The
  /// yielded job returns to the front of its queue with the attempt counter
  /// rolled back — same fault schedule, no retry budget consumed. Needs
  /// admission_control (predictions are measured, not replay-stable), so
  /// replay harnesses are unaffected. <= 0 disables preemption.
  double yield_risk_factor = 1.5;
};

/// Per-job service-level options: the deadline/retry/degradation contract.
struct SubmitOptions {
  /// What to do when the deadline cannot be (or was not) met.
  enum class DeadlinePolicy {
    kStrict,   ///< run regardless; a blown deadline fails with JobTimedOut
    kReject,   ///< admission-reject (JobRejected) when predicted unmeetable
    kDegrade,  ///< serve a flagged stale frame instead of failing
  };

  /// End-to-end budget on the service clock, measured from submit. The
  /// in-flight half is enforced at chunk granularity: injected delays count
  /// against it deterministically, wall time via the watchdog. Infinity
  /// disables deadline handling.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  /// Re-dispatch attempts after transient frame failures (anything except
  /// JobCanceled / JobTimedOut). 0 fails on the first error.
  int max_retries = 0;
  /// First-retry backoff on the service clock; each further retry doubles
  /// it (backoff_multiplier), capped at backoff_max_seconds.
  double backoff_seconds = 0.005;
  double backoff_multiplier = 2.0;
  double backoff_max_seconds = 1.0;
  DeadlinePolicy policy = DeadlinePolicy::kStrict;
};

/// One frame's worth of work for a session. `field` must stay valid until
/// the job's future resolves; `spots` is an owned snapshot.
struct SynthesisRequest {
  const field::VectorField* field = nullptr;
  std::vector<SpotInstance> spots;
  /// Plan through the session's SynthesisCache (tiled engines only): clean
  /// tiles are served from retention, bit-identical to a full render.
  bool incremental = false;
  /// Copy the finished texture into the result (costs one texture copy;
  /// the content hash is always included).
  bool capture_texture = false;
};

struct SynthesisResult {
  FrameStats stats;
  /// Framebuffer::content_hash of the finished texture — the bit-exact
  /// frame identity (stable across sessions, scheduling and sharing). For
  /// a degraded result (stats.degraded) this is the stale texture's hash.
  std::uint64_t content_hash = 0;
  /// Global dispatch ordinal: the order drivers started jobs in. Lets
  /// clients (and the fairness tests) observe the scheduling order.
  std::int64_t service_seq = 0;
  /// Dispatch attempts consumed (1 = no retries).
  int attempts = 1;
  std::optional<render::Framebuffer> texture;  ///< when capture_texture
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

[[nodiscard]] const char* breaker_state_name(BreakerState state);

/// One session's slice of health(). Counters are cumulative for the
/// session's lifetime.
struct SessionHealth {
  std::int64_t id = 0;
  int priority = 0;
  BreakerState breaker = BreakerState::kClosed;
  int consecutive_failures = 0;
  std::int64_t breaker_trips = 0;
  std::int64_t completed = 0;  ///< synthesized frames (degraded excluded)
  std::int64_t degraded = 0;   ///< stale frames served under deadline pressure
  std::int64_t failed = 0;     ///< jobs that exhausted retries and failed
  std::int64_t retries = 0;    ///< re-dispatches after transient failures
  std::int64_t timeouts = 0;   ///< jobs that blew their deadline
  std::int64_t canceled = 0;
  std::int64_t yielded = 0;    ///< attempts abandoned for a more urgent job
  int pending = 0;
  bool running = false;
};

struct ServiceHealth {
  /// Service-lifetime totals: unlike the per-session rows these survive
  /// close_session, so they are the replay-comparison surface.
  std::int64_t completed = 0;
  std::int64_t degraded = 0;
  std::int64_t failed = 0;
  std::int64_t retries = 0;
  std::int64_t timeouts = 0;
  std::int64_t canceled = 0;
  std::int64_t rejected = 0;     ///< JobRejected at admission
  std::int64_t quarantined = 0;  ///< SessionQuarantined at submit
  std::int64_t yielded = 0;      ///< attempts abandoned for a more urgent job
  std::int64_t breaker_trips = 0;
  double clock_now = 0.0;  ///< service-clock reading at the snapshot
  std::vector<SessionHealth> sessions;  ///< open sessions, by id
};

class SynthesisService {
 public:
  using SessionId = std::int64_t;
  using JobId = std::int64_t;

  struct JobTicket {
    JobId id = 0;
    SessionId session = 0;
    /// Resolves with the result, or throws: JobCanceled for canceled jobs,
    /// JobTimedOut for blown deadlines, the frame's exception for failed
    /// ones.
    std::future<SynthesisResult> result;
  };

  explicit SynthesisService(ServiceConfig config = {},
                            Runtime& runtime = Runtime::global());
  ~SynthesisService();  // shutdown(true)

  SynthesisService(const SynthesisService&) = delete;
  SynthesisService& operator=(const SynthesisService&) = delete;

  /// Creates a session: one engine + temporal cache on the shared runtime.
  /// Higher `priority` sessions are dispatched first; equal priorities
  /// round-robin. Throws util::Error after shutdown began.
  [[nodiscard]] SessionId open_session(const SynthesisConfig& synthesis,
                                       const DncConfig& dnc, int priority = 0);

  /// Cancels the session's pending jobs (their futures get JobCanceled) and
  /// tears the engine down once any running job finishes.
  void close_session(SessionId id);

  /// Enqueues one frame. Throws util::Error if the service is shutting
  /// down or the session is unknown/closed, SessionQuarantined while the
  /// session's breaker is open, and JobRejected when admission control
  /// predicts the deadline unmeetable (DeadlinePolicy::kReject).
  [[nodiscard]] JobTicket submit(SessionId id, SynthesisRequest request,
                                 SubmitOptions options = SubmitOptions());

  /// Best-effort cancel: a pending job is removed from its queue and its
  /// future gets JobCanceled immediately; a running job's engine abandons
  /// the frame at the next chunk boundary. Returns false when the job
  /// already completed (or was never known).
  bool cancel(JobId id);

  /// Stops accepting work. With `drain`, queued jobs still run to
  /// completion (including retry waits); without, pending futures get
  /// JobCanceled and running frames are canceled mid-flight. Joins the
  /// drivers and watchdog; idempotent; concurrent open_session/submit
  /// deterministically throw util::Error.
  void shutdown(bool drain = true);

  /// Snapshot of breaker states and fault-tolerance counters.
  [[nodiscard]] ServiceHealth health() const;

  [[nodiscard]] int pending_jobs() const;
  [[nodiscard]] Runtime& runtime() const { return *runtime_; }

  /// Snapshot of the runtime's shared content-addressed tile cache (see
  /// core::TileStore). Sessions opted in via DncConfig::tile_cache publish
  /// and probe the same store, so these counters are how a deployment
  /// observes cross-session sharing actually happening.
  [[nodiscard]] TileStore::Stats tile_cache_stats() const {
    return runtime_->tile_store().stats();
  }

 private:
  enum class JobState { kPending, kRunning, kDone };

  /// What a dispatch attempt decided (applied to the books under mutex_).
  enum class Outcome {
    kCompleted, kDegraded, kCanceled, kTimedOut, kFailed, kRetry, kYielded,
  };

  /// How the driver should treat the job it just popped (decided under
  /// mutex_ at dispatch, where the clock and the session model are
  /// consistent).
  enum class DispatchMode { kRun, kDegrade, kTimeout };

  struct Job {
    JobId id = 0;
    SessionId session = 0;
    std::int64_t session_ordinal = 0;  ///< per-session submit index
    SynthesisRequest request;
    SubmitOptions options;
    std::promise<SynthesisResult> promise;
    /// Cancel/timeout flags, delay penalty, progress heartbeat and fault
    /// key — bound to the engine for each dispatch attempt. The atomics
    /// inside are internally synchronized; the scalars follow `state`.
    FrameControl control;
    util::Stopwatch queued;  ///< submit → dispatch = queue wait (wall)
    double deadline_at = std::numeric_limits<double>::infinity();  // service clock; guarded by mutex_
    double not_before = 0.0;  ///< earliest dispatch (backoff); guarded by mutex_
    int attempt = 0;          ///< dispatches so far; guarded by mutex_
    /// serve_clock_ at submit — the birth instant priority aging measures
    /// waited dispatches from (kept across retries and yields, so a long
    /// wait keeps counting). Guarded by mutex_.
    std::int64_t enqueued_at_serve = 0;
    int yields = 0;  ///< preemptions absorbed (bounded); guarded by mutex_
    JobState state = JobState::kPending;  // guarded by mutex_
    // Watchdog bookkeeping (wall mode): last observed progress + stall ticks.
    std::int64_t watch_progress = -1;  // guarded by mutex_
    int watch_stalls = 0;              // guarded by mutex_
  };

  struct Session {
    SessionId id = 0;
    int priority = 0;
    std::unique_ptr<DncSynthesizer> engine;
    SynthesisCache cache;
    std::deque<std::shared_ptr<Job>> queue;  ///< per-session FIFO
    bool running = false;  ///< a driver is mid-frame on this engine
    bool closed = false;
    std::int64_t last_served = 0;   ///< fairness clock (round-robin)
    std::int64_t submitted = 0;     ///< session_ordinal source
    // Circuit breaker (all guarded by mutex_).
    BreakerState breaker = BreakerState::kClosed;
    double breaker_open_until = 0.0;  ///< service clock
    int consecutive_failures = 0;
    // Admission model: calibrated from the last completed frame.
    PerfModel model;
    bool model_valid = false;
    // Cumulative counters for health().
    std::int64_t breaker_trips = 0;
    std::int64_t completed = 0;
    std::int64_t degraded = 0;
    std::int64_t failed = 0;
    std::int64_t retries = 0;
    std::int64_t timeouts = 0;
    std::int64_t canceled = 0;
    std::int64_t yielded = 0;
  };

  /// run_job's report back to the driver's bookkeeping pass. The attempt's
  /// verdict for the client rides here too: run_job never touches the
  /// promise, settle_job fulfills it *under the lock, after the counters* —
  /// so a caller whose future resolved always finds the outcome already
  /// reflected in health().
  struct RunResult {
    Outcome outcome = Outcome::kFailed;
    std::optional<PerfModel> model;  ///< fresh calibration on kCompleted
    std::optional<SynthesisResult> value;  ///< kCompleted / kDegraded payload
    std::exception_ptr error;              ///< kCanceled / kTimedOut / kFailed
  };

  void driver_loop();
  void watchdog_loop();
  /// Current service-clock reading (virtual when configured, else wall).
  [[nodiscard]] double clock_now() const {
    return config_.virtual_clock != nullptr ? config_.virtual_clock->now()
                                            : uptime_.seconds();
  }
  /// Highest *effective* priority session with a runnable head job — the
  /// configured priority plus dispatch-count aging (see
  /// ServiceConfig::priority_aging_dispatches) — equal effective priorities
  /// go to the least recently served. Sessions blocked on a future instant
  /// (backoff, breaker cooldown) lower `wake_at` instead. Performs the
  /// open → half-open breaker transition when a cooldown has elapsed.
  [[nodiscard]] Session* pick_session(double now, double* wake_at)
      DCSN_REQUIRES(mutex_);
  /// priority + age of the session's head job, in aging steps.
  [[nodiscard]] int effective_priority(const Session& session) const
      DCSN_REQUIRES(mutex_);
  /// Deadline-at-risk preemption (see ServiceConfig::yield_risk_factor):
  /// when every driver is busy and a pending head job's deadline is at
  /// risk, flags the most-slack running job of no higher priority to yield
  /// at its next chunk checkpoint. Called where the risk picture changes:
  /// submit (a new urgent job arrives) and the watchdog tick (waiting
  /// erodes slack).
  void maybe_preempt(double now) DCSN_REQUIRES(mutex_);
  /// Deadline triage for the job about to dispatch (see DispatchMode).
  [[nodiscard]] DispatchMode triage(const Session& session, const Job& job,
                                    double now) const DCSN_REQUIRES(mutex_);
  [[nodiscard]] RunResult run_job(Session& session, Job& job, std::int64_t seq,
                                  DispatchMode mode);
  /// Builds the flagged stale-frame result (DeadlinePolicy::kDegrade).
  [[nodiscard]] SynthesisResult degraded_result(Session& session, Job& job,
                                                std::int64_t seq) const;
  /// Applies a finished attempt to the books — counters, breaker, retry
  /// requeue — then fulfills the job's promise. Returns true when the job
  /// was requeued (kept in jobs_, promise still open).
  bool settle_job(Session& session, const std::shared_ptr<Job>& job,
                  RunResult& result) DCSN_REQUIRES(mutex_);
  void note_failure(Session& session) DCSN_REQUIRES(mutex_);
  /// Fails every pending job of `session` with JobCanceled.
  void cancel_pending(Session& session) DCSN_REQUIRES(mutex_);
  [[nodiscard]] bool any_running() const DCSN_REQUIRES(mutex_);

  Runtime* runtime_;        // lock-lint: unguarded(immutable after construction)
  ServiceConfig config_;    // lock-lint: unguarded(immutable after construction)
  // determinism: wall fallback of the service clock — scheduling/SLO
  // bookkeeping only, never pixels.
  util::Stopwatch uptime_;  // lock-lint: unguarded(immutable after construction)

  mutable util::Mutex mutex_;
  util::CondVar cv_;
  util::CondVar watchdog_cv_;  ///< paced separately from driver wakeups
  std::map<SessionId, std::unique_ptr<Session>> sessions_ DCSN_GUARDED_BY(mutex_);
  /// Pending + running.
  std::map<JobId, std::shared_ptr<Job>> jobs_ DCSN_GUARDED_BY(mutex_);
  SessionId next_session_id_ DCSN_GUARDED_BY(mutex_) = 1;
  JobId next_job_id_ DCSN_GUARDED_BY(mutex_) = 1;
  std::int64_t serve_clock_ DCSN_GUARDED_BY(mutex_) = 0;
  bool accepting_ DCSN_GUARDED_BY(mutex_) = true;
  bool shutdown_ DCSN_GUARDED_BY(mutex_) = false;
  bool drain_ DCSN_GUARDED_BY(mutex_) = true;
  /// Service-lifetime totals (the non-session fields of ServiceHealth).
  ServiceHealth totals_ DCSN_GUARDED_BY(mutex_);

  /// Joined by shutdown(), which must not hold mutex_ there (a driver being
  /// joined takes mutex_ to drain the backlog — holding it would deadlock).
  std::vector<std::jthread> drivers_;  // lock-lint: unguarded(joined unlocked in shutdown)
  std::jthread watchdog_;              // lock-lint: unguarded(joined unlocked in shutdown)
};

}  // namespace dcsn::core
