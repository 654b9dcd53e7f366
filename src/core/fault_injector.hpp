// Deterministic fault injection for the synthesis runtime.
//
// Robustness claims are only as good as the failures they were tested
// against, and failures produced by real races are unrepeatable by
// definition. The FaultInjector makes them repeatable: named sites in the
// hot paths (worker pickup, pipe submit, field sampling, tile-store
// probe/publish, framebuffer checkout, the caller's completion wait)
// consult a seeded schedule that can throw, delay, or drop at each visit —
// with no wall clocks and no std::rand, so scripts/determinism_lint.py
// stays green and a torture run replays exactly from its seed.
//
// The schedule is a pure hash, not a shared counter, and that distinction
// carries the replay guarantee. Sites split into two classes:
//
//   * OUTCOME sites (pipe submit, field sampling, store probe/publish,
//     framebuffer checkout) decide from a *stable key*: the job's per-attempt
//     fault key XOR the spot/tile identity. Which thread reaches the site,
//     and in what order, cannot change the decision — so the set of faults a
//     frame attempt absorbs (and therefore whether it fails, how much
//     injected delay it is charged, and what the service's retry/timeout/
//     degraded counters read at the end) is a pure function of the seed and
//     the workload, independent of scheduling. bench_robustness replays a
//     seed twice and demands identical counters; this is why it can.
//
//   * SCHEDULING sites (worker task pickup, the caller's completion wait)
//     are keyed by a per-site arrival counter and perturb only *when* work
//     happens, never its outcome: a drop at queue pop models a spurious
//     wakeup of the completion wait, a drop at worker pickup models a
//     worker that offers no capacity this round, and delays model
//     preemption. Throws are demoted to drops here — a throw
//     escaping a pool worker's loop would kill the thread, which is an
//     outage, not a fault. Their counters are telemetry only and are NOT
//     replay-stable (arrival order is scheduling), which is exactly why no
//     frame outcome may depend on them.
//
// Injected delays do not sleep: they charge nanoseconds to the bound frame's
// penalty accumulator (FrameControl::delay_penalty_ns), which the engine
// checks against the job's deadline budget at chunk granularity — virtual
// time, deterministic timeouts. An optional spin adds real CPU occupancy for
// wall-clock stress without touching any clock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace dcsn::core {

enum class FaultSite : int {
  kWorkerPickup = 0,    ///< Runtime::worker_loop offering capacity (scheduling)
  kQueuePop,            ///< the caller's frame-completion wait (scheduling)
  kPipeSubmit,          ///< a command buffer handed to a pipe (outcome)
  kFieldSample,         ///< spot-shape generation touching the field (outcome)
  kStoreProbe,          ///< TileStore lookup before rendering (outcome, contained)
  kStorePublish,        ///< TileStore insert after rendering (outcome, contained)
  kFramebufferCheckout, ///< FramebufferPool::acquire in the gather (outcome)
};
inline constexpr int kFaultSiteCount = 7;

[[nodiscard]] const char* fault_site_name(FaultSite site);

/// Thrown by an outcome site on a throw-hit. Derives util::TransientError:
/// the frame failed because of an injected transient, so SubmitOptions
/// retries apply.
class FaultInjected : public util::TransientError {
 public:
  explicit FaultInjected(FaultSite site)
      : util::TransientError(std::string("injected fault at ") +
                             fault_site_name(site)),
        site_(site) {}
  [[nodiscard]] FaultSite site() const { return site_; }

 private:
  FaultSite site_;
};

/// Per-site fault probabilities. Rates are evaluated in order throw, delay,
/// drop against one uniform draw, so their sum should stay <= 1.
struct FaultRule {
  double throw_rate = 0.0;
  double delay_rate = 0.0;
  double drop_rate = 0.0;
  /// Virtual seconds charged to the frame's delay penalty on a delay-hit.
  double delay_seconds = 0.0;
  /// Optional busy-spin iterations per delay-hit (real CPU occupancy for
  /// wall-clock stress; 0 keeps delays purely virtual).
  std::int64_t delay_spin_iterations = 0;
};

struct FaultPlan {
  std::uint64_t seed = 0;
  std::array<FaultRule, kFaultSiteCount> rules{};

  [[nodiscard]] FaultRule& rule(FaultSite site) {
    return rules[static_cast<std::size_t>(site)];
  }
  [[nodiscard]] const FaultRule& rule(FaultSite site) const {
    return rules[static_cast<std::size_t>(site)];
  }
};

class FaultInjector {
 public:
  enum class Action { kNone, kThrow, kDelay, kDrop };

  /// Per-site visit/outcome counters. Outcome-site totals are replay-stable
  /// over a full run (see the header comment); scheduling-site totals are
  /// telemetry only.
  struct Counters {
    std::array<std::int64_t, kFaultSiteCount> evaluations{};
    std::array<std::int64_t, kFaultSiteCount> throws{};
    std::array<std::int64_t, kFaultSiteCount> delays{};
    std::array<std::int64_t, kFaultSiteCount> drops{};

    [[nodiscard]] std::int64_t total_injected() const {
      std::int64_t n = 0;
      for (int s = 0; s < kFaultSiteCount; ++s) {
        n += throws[static_cast<std::size_t>(s)] +
             delays[static_cast<std::size_t>(s)] +
             drops[static_cast<std::size_t>(s)];
      }
      return n;
    }
  };

  explicit FaultInjector(FaultPlan plan) : plan_(plan) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// The pure scheduling-independent decision for one (site, key) visit.
  [[nodiscard]] Action decide(FaultSite site, std::uint64_t key) const;

  /// Outcome-site check with a stable key. Throws FaultInjected on a
  /// throw-hit; on a delay-hit charges the rule's delay to `penalty_ns` (if
  /// provided) and spins; returns the action so drop-capable call sites can
  /// degrade instead.
  Action check(FaultSite site, std::uint64_t key,
               std::atomic<std::int64_t>* penalty_ns = nullptr);

  /// Scheduling-site check, keyed by the site's arrival counter. Never
  /// throws: a throw-hit is demoted to a drop (see the header comment).
  Action check_scheduling(FaultSite site);

  /// A set of pure decisions drawn ahead of their effect site. Used when
  /// the stable identities (per-spot keys) are only in scope at one place
  /// but the fault must strike at another: the producer pre-draws while it
  /// still knows which spots a chunk carries, and the submitting thread
  /// applies the batch where the failure actually happens.
  struct Batch {
    std::int64_t evaluations = 0;
    std::int64_t throws = 0;
    std::int64_t delays = 0;
    std::int64_t drops = 0;
  };

  /// Accumulates decide(site, key) into `batch` (pure; no counters yet).
  void predraw(FaultSite site, std::uint64_t key, Batch* batch) const;

  /// Applies a pre-drawn batch at its effect site: records the counters,
  /// charges every delay-hit to `penalty_ns` (delays first, so a mixed
  /// batch charges deterministically), then throws FaultInjected if the
  /// batch holds any throw-hit.
  void apply(FaultSite site, const Batch& batch,
             std::atomic<std::int64_t>* penalty_ns = nullptr);

  [[nodiscard]] Counters counters() const;
  void reset_counters();

 private:
  struct SiteCounters {
    std::atomic<std::int64_t> evaluations{0};
    std::atomic<std::int64_t> throws{0};
    std::atomic<std::int64_t> delays{0};
    std::atomic<std::int64_t> drops{0};
    std::atomic<std::uint64_t> arrivals{0};  ///< scheduling-site key source
  };

  void account(FaultSite site, Action action);

  FaultPlan plan_;  // lock-lint: unguarded(immutable after construction)
  // Atomic per-site tallies; no mutex needed.
  std::array<SiteCounters, kFaultSiteCount> counters_{};  // lock-lint: unguarded(internally synchronized)
};

}  // namespace dcsn::core
