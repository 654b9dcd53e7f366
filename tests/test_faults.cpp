// Fault-matrix torture suite (ctest label `faults`; scripts/verify.sh
// --faults runs it, also under TSan/ASan).
//
// Exercises the deterministic fault-injection layer end to end:
//
//   * FaultInjector unit pins — pure decisions, scheduling-site demotion.
//   * Engine matrix — every injection site × {throw, delay}: the engine
//     survives, recovered frames are bitwise identical to a fault-free run,
//     and the FramebufferPool census (outstanding minus live TileStore
//     entries) is conserved — no leak on any failure path.
//   * Service matrix — every site × {throw, delay} × {drain, cancel}
//     shutdown: no deadlock, every future resolves, census conserved after
//     teardown.
//   * Deadline machinery — virtual-deadline timeouts, degraded stale
//     serves, retry/backoff on the virtual clock, the circuit breaker's
//     open → half-open → closed walk, and the wall-mode watchdog.
//   * Replay — the same seed drives the same torture twice and the service
//     health totals must match counter for counter.
//
// Everything here is deterministic given the seed (see
// core/fault_injector.hpp): the rates below are tuned so the seeded
// schedules pass, and because the schedules are pure hashes they pass
// identically on every host.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/fault_injector.hpp"
#include "core/runtime.hpp"
#include "core/service_clock.hpp"
#include "core/spot_source.hpp"
#include "core/synthesis_cache.hpp"
#include "core/synthesis_service.hpp"
#include "field/analytic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dcsn;
using core::FaultInjector;
using core::FaultPlan;
using core::FaultRule;
using core::FaultSite;
using core::SynthesisService;
using field::Rect;

constexpr Rect kDomain{0, 0, 2, 2};

core::SynthesisConfig small_config(std::uint64_t seed = 42) {
  core::SynthesisConfig config;
  config.texture_width = 64;
  config.texture_height = 64;
  config.spot_count = 160;
  config.spot_radius_px = 5.0;
  config.kind = core::SpotKind::kEllipse;
  config.seed = seed;
  return config;
}

core::DncConfig tiled_dnc() {
  core::DncConfig dnc;
  dnc.processors = 2;
  dnc.pipes = 2;
  dnc.chunk_spots = 16;
  dnc.tiled = true;
  dnc.tile_cache = true;
  return dnc;
}

/// A field whose sampling spins for `delay_per_sample` wall seconds. Slow
/// producers are what starve a master into its timed inbox wait (the
/// kQueuePop site): the producer registers its delivery as in-flight
/// *before* generating, so the master sees inflight > 0 with nothing to do.
std::unique_ptr<field::VectorField> spinning_field(double delay_per_sample) {
  return std::make_unique<field::CallableField>(
      [delay_per_sample](field::Vec2 p) -> field::Vec2 {
        const util::Stopwatch w;
        while (w.seconds() < delay_per_sample) {
        }
        return {0.2 * p.y + 0.1, -0.2 * p.x + 0.1};
      },
      kDomain, 1.0);
}

std::vector<core::SpotInstance> frame_spots(const core::SynthesisConfig& config,
                                            int frame) {
  util::Rng rng(config.seed + static_cast<std::uint64_t>(frame) * 1000003ULL);
  auto spots = core::make_random_spots(kDomain, config.spot_count, rng);
  for (auto& spot : spots) spot.intensity *= 0.2;
  return spots;
}

/// The two per-spot sites draw once per spot — 160 draws per frame attempt
/// with small_config — so their rates must stay tiny for an attempt to
/// survive often enough to converge under a small retry budget.
bool per_spot_site(FaultSite site) {
  return site == FaultSite::kPipeSubmit || site == FaultSite::kFieldSample;
}

/// Throw rate per site, scaled to how often the site fires per frame (per
/// spot vs per tile) so a frame attempt survives often enough to converge
/// under a small retry budget.
double throw_rate_for(FaultSite site) {
  switch (site) {
    case FaultSite::kWorkerPickup:
    case FaultSite::kQueuePop:
      return 0.2;  // demoted to drops; can be aggressive
    case FaultSite::kPipeSubmit:
    case FaultSite::kFieldSample:
      return 0.004;  // fires per spot (160/frame): ~47% attempt survival
    case FaultSite::kStoreProbe:
    case FaultSite::kStorePublish:
      return 0.3;  // contained: degrades to miss/skip, never fails a frame
    case FaultSite::kFramebufferCheckout:
      return 0.15;  // per tile, mandatory path fails the frame
  }
  return 0.05;
}

FaultPlan single_site_plan(FaultSite site, bool delay_mode,
                           std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  FaultRule& rule = plan.rule(site);
  if (delay_mode) {
    // Per-spot sites accumulate ~160 draws a frame; keep the expected
    // injected delay (~6 virtual seconds) under the service matrix's 40 s
    // budget so delay-mode frames still complete and pin the bit-exact
    // recovery path.
    rule.delay_rate = per_spot_site(site) ? 0.04 : 0.5;
    rule.delay_seconds = 1.0;  // one virtual second per hit
  } else {
    rule.throw_rate = throw_rate_for(site);
  }
  return plan;
}

/// FramebufferPool census: buffers checked out minus the ones parked in
/// live TileStore entries (published tiles own their pool buffer until
/// eviction recycles it). Conserved across any torture.
std::int64_t census(core::Runtime& runtime) {
  return runtime.framebuffers().outstanding_count() -
         runtime.tile_store().stats().entries;
}

// ------------------------------------------------- injector unit pins -----

TEST(FaultInjector, DecisionsArePureFunctionsOfSeedSiteAndKey) {
  FaultPlan plan;
  plan.seed = 7;
  plan.rule(FaultSite::kFieldSample) = {0.2, 0.2, 0.2, 0.5, 0};
  FaultInjector a(plan);
  FaultInjector b(plan);
  int injected = 0;
  for (std::uint64_t key = 0; key < 2000; ++key) {
    const auto action = a.decide(FaultSite::kFieldSample, key);
    EXPECT_EQ(action, b.decide(FaultSite::kFieldSample, key));
    // Repeat visits with the same key decide identically: no hidden state.
    EXPECT_EQ(action, a.decide(FaultSite::kFieldSample, key));
    injected += action != FaultInjector::Action::kNone ? 1 : 0;
  }
  // ~60% of draws should hit something; allow a generous band.
  EXPECT_GT(injected, 1000);
  EXPECT_LT(injected, 1500);
}

TEST(FaultInjector, CheckChargesVirtualPenaltyAndThrows) {
  FaultPlan plan;
  plan.seed = 11;
  plan.rule(FaultSite::kPipeSubmit) = {1.0, 0.0, 0.0, 0.0, 0};
  plan.rule(FaultSite::kFieldSample) = {0.0, 1.0, 0.0, 0.25, 0};
  FaultInjector injector(plan);
  EXPECT_THROW(injector.check(FaultSite::kPipeSubmit, 1), core::FaultInjected);
  std::atomic<std::int64_t> penalty{0};
  EXPECT_EQ(injector.check(FaultSite::kFieldSample, 1, &penalty),
            FaultInjector::Action::kDelay);
  EXPECT_EQ(penalty.load(), 250'000'000);  // 0.25 virtual seconds in ns
  const auto counters = injector.counters();
  EXPECT_EQ(counters.throws[static_cast<std::size_t>(FaultSite::kPipeSubmit)], 1);
  EXPECT_EQ(counters.delays[static_cast<std::size_t>(FaultSite::kFieldSample)], 1);
  EXPECT_EQ(counters.total_injected(), 2);
}

TEST(FaultInjector, SchedulingSitesNeverThrow) {
  FaultPlan plan;
  plan.seed = 13;
  plan.rule(FaultSite::kWorkerPickup) = {1.0, 0.0, 0.0, 0.0, 0};  // all throws
  FaultInjector injector(plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NO_THROW({
      const auto action = injector.check_scheduling(FaultSite::kWorkerPickup);
      EXPECT_EQ(action, FaultInjector::Action::kDrop) << "throw must demote";
    });
  }
  const auto counters = injector.counters();
  EXPECT_EQ(counters.drops[static_cast<std::size_t>(FaultSite::kWorkerPickup)],
            200);
  EXPECT_EQ(counters.throws[static_cast<std::size_t>(FaultSite::kWorkerPickup)],
            0);
}

// ------------------------------------------------------ engine matrix -----

/// Runs `kFrames` frames against an engine with the given single-site plan,
/// retrying failed attempts with a fresh per-attempt fault key (the same
/// re-keying the service performs). Asserts bit-exact recovery and census
/// conservation.
void run_engine_case(FaultSite site, bool delay_mode) {
  SCOPED_TRACE(std::string(core::fault_site_name(site)) +
               (delay_mode ? " / delay" : " / throw"));
  constexpr int kFrames = 4;
  const auto config = small_config();
  core::DncConfig dnc = tiled_dnc();
  int pool_workers = 3;
  std::unique_ptr<field::VectorField> field;
  if (site == FaultSite::kQueuePop) {
    // The timed inbox wait only runs when a master starves while deliveries
    // are still in flight: tiny chunks claimed instantly but generated
    // slowly by a crowd of producers keep that window open — which also
    // makes this case the stress pin for the master-exit handshake (exit
    // must terminate through injected spurious timeouts without losing a
    // delivery).
    dnc.chunk_spots = 1;
    dnc.pipe_queue_capacity = 2;
    dnc.processors = 4;
    pool_workers = 6;
    field = spinning_field(50e-6);
  } else {
    field = field::analytic::taylor_green(1.0, kDomain);
  }

  // Fault-free baseline, fresh runtime so no cross-pollination.
  std::array<std::uint64_t, kFrames> expected{};
  {
    core::Runtime clean_runtime({.workers = pool_workers});
    core::DncSynthesizer clean(config, dnc, clean_runtime);
    for (int f = 0; f < kFrames; ++f) {
      (void)clean.synthesize(*field, frame_spots(config, f));
      expected[static_cast<std::size_t>(f)] = clean.texture().content_hash();
    }
  }

  auto injector = std::make_shared<FaultInjector>(single_site_plan(
      site, delay_mode, 0xfa11ULL + static_cast<std::uint64_t>(site)));
  core::Runtime runtime({.workers = pool_workers, .fault_injector = injector});
  core::DncSynthesizer engine(config, dnc, runtime);
  const std::int64_t census0 = census(runtime);

  core::FrameControl control;  // infinite deadline: delays never time out
  for (int f = 0; f < kFrames; ++f) {
    bool done = false;
    for (int attempt = 0; attempt < 10 && !done; ++attempt) {
      control.fault_key =
          static_cast<std::uint64_t>(f) * 131ULL +
          static_cast<std::uint64_t>(attempt) + 1;
      engine.bind_frame_control(&control);
      try {
        (void)engine.synthesize(*field, frame_spots(config, f));
        done = true;
      } catch (const core::FaultInjected&) {
        // The engine's frame-failure protocol rearmed it; re-key and retry.
      }
      engine.bind_frame_control(nullptr);
    }
    ASSERT_TRUE(done) << "frame " << f << " exhausted its retry budget";
    EXPECT_EQ(engine.texture().content_hash(),
              expected[static_cast<std::size_t>(f)])
        << "recovered frame " << f << " must be bitwise fault-free";
  }

  EXPECT_EQ(census(runtime), census0)
      << "framebuffer leak through the failure paths";

  // Non-vacuity. Outcome sites fire as a pure function of the workload, so
  // kFrames frames either hit them or never will. Scheduling sites fire
  // only when the racy window they model actually opens (a starved master,
  // a worker pickup), which depends on the interleaving — if the main
  // frames never opened it, force it open structurally instead of
  // replaying the same schedule and hoping. One group, two wide chunks,
  // tile cache off (a cache hit generates nothing and so can never
  // starve): a single pool producer's register->generate->deliver cycle
  // then spans half the frame, so the master reliably runs dry while a
  // delivery is still in flight. (A 1-core TSan run can starve the
  // tiny-chunk config above out of the window for entire frames at a
  // time, which is exactly the case this fallback exists for.)
  const auto site_evaluations = [&] {
    return injector->counters().evaluations[static_cast<std::size_t>(site)];
  };
  const bool scheduling_site =
      site == FaultSite::kWorkerPickup || site == FaultSite::kQueuePop;
  if (scheduling_site && site_evaluations() == 0) {
    core::DncConfig wide = dnc;
    wide.pipes = 1;
    wide.processors = 2;
    wide.chunk_spots = config.spot_count / 2;
    wide.tile_cache = false;
    const auto slow = spinning_field(100e-6);
    core::DncSynthesizer starved(config, wide, runtime);
    for (int extra = 0; extra < 200 && site_evaluations() == 0; ++extra) {
      control.fault_key = 0x5c3dULL + static_cast<std::uint64_t>(extra);
      starved.bind_frame_control(&control);
      (void)starved.synthesize(*slow, frame_spots(config, 0));
      starved.bind_frame_control(nullptr);
    }
  }
  EXPECT_GT(site_evaluations(), 0) << "vacuous case: the site never fired";
  EXPECT_EQ(census(runtime), census0);
}

TEST(FaultMatrix, EngineEverySiteThrowMode) {
  for (int s = 0; s < core::kFaultSiteCount; ++s) {
    run_engine_case(static_cast<FaultSite>(s), /*delay_mode=*/false);
  }
}

TEST(FaultMatrix, EngineEverySiteDelayMode) {
  for (int s = 0; s < core::kFaultSiteCount; ++s) {
    run_engine_case(static_cast<FaultSite>(s), /*delay_mode=*/true);
  }
}

// ----------------------------------------------------- service matrix -----

/// One service torture: two sessions, a few frames each, retries on, then
/// the requested shutdown flavor. Returns resolved-outcome counts.
struct TortureTally {
  int completed = 0;
  int degraded = 0;
  int canceled = 0;
  int timed_out = 0;
  int failed = 0;
};

TortureTally run_service_case(core::Runtime& runtime,
                              core::VirtualServiceClock& clock, bool drain,
                              const std::array<std::uint64_t, 2>& expected_hash,
                              bool finite_deadlines) {
  core::ServiceConfig config;
  config.drivers = 2;
  config.virtual_clock = &clock;
  config.admission_control = false;  // keep dispatch triage out of replay
  config.watchdog_interval_seconds = 0.0;
  TortureTally tally;
  const auto field = field::analytic::taylor_green(1.0, kDomain);
  {
    SynthesisService service(config, runtime);
    std::array<SynthesisService::SessionId, 2> ids{};
    for (int s = 0; s < 2; ++s) {
      ids[static_cast<std::size_t>(s)] = service.open_session(
          small_config(42 + static_cast<std::uint64_t>(s)), tiled_dnc());
    }
    std::vector<SynthesisService::JobTicket> tickets;
    for (int f = 0; f < 3; ++f) {
      for (int s = 0; s < 2; ++s) {
        core::SynthesisRequest req;
        req.field = field.get();
        req.spots = frame_spots(small_config(42 + static_cast<std::uint64_t>(s)),
                                0);  // frame 0 scene: hash known per session
        core::SubmitOptions opt;
        opt.max_retries = 3;
        opt.backoff_seconds = 0.01;
        if (finite_deadlines) {
          opt.deadline_seconds = 40.0;  // virtual seconds of delay budget
          opt.policy = s == 0 ? core::SubmitOptions::DeadlinePolicy::kStrict
                              : core::SubmitOptions::DeadlinePolicy::kDegrade;
        }
        tickets.push_back(
            service.submit(ids[static_cast<std::size_t>(s)], std::move(req), opt));
      }
    }
    service.shutdown(drain);
    for (auto& ticket : tickets) {
      const std::size_t session_index = ticket.session == ids[0] ? 0 : 1;
      try {
        const core::SynthesisResult result = ticket.result.get();
        if (result.stats.degraded) {
          ++tally.degraded;
        } else {
          ++tally.completed;
          EXPECT_EQ(result.content_hash, expected_hash[session_index])
              << "completed frame must be bitwise fault-free";
        }
      } catch (const core::JobCanceled&) {
        ++tally.canceled;
      } catch (const core::JobTimedOut&) {
        ++tally.timed_out;
      } catch (const util::Error&) {
        ++tally.failed;
      }
    }
  }
  return tally;
}

void run_service_matrix(bool drain) {
  // Per-session fault-free baseline (frame 0 of each session's scene).
  std::array<std::uint64_t, 2> expected{};
  {
    core::Runtime clean_runtime({.workers = 3});
    const auto field = field::analytic::taylor_green(1.0, kDomain);
    for (int s = 0; s < 2; ++s) {
      const auto config = small_config(42 + static_cast<std::uint64_t>(s));
      core::DncSynthesizer engine(config, tiled_dnc(), clean_runtime);
      (void)engine.synthesize(*field, frame_spots(config, 0));
      expected[static_cast<std::size_t>(s)] = engine.texture().content_hash();
    }
  }
  for (int s = 0; s < core::kFaultSiteCount; ++s) {
    for (const bool delay_mode : {false, true}) {
      const auto site = static_cast<FaultSite>(s);
      SCOPED_TRACE(std::string(core::fault_site_name(site)) +
                   (delay_mode ? " / delay" : " / throw") +
                   (drain ? " / drain" : " / cancel"));
      auto injector = std::make_shared<FaultInjector>(single_site_plan(
          site, delay_mode, 0xbadULL + static_cast<std::uint64_t>(s)));
      core::Runtime runtime({.workers = 3, .fault_injector = injector});
      core::VirtualServiceClock clock;
      const TortureTally tally =
          run_service_case(runtime, clock, drain, expected,
                           /*finite_deadlines=*/delay_mode);
      const int total = tally.completed + tally.degraded + tally.canceled +
                        tally.timed_out + tally.failed;
      EXPECT_EQ(total, 6) << "every future must resolve";
      if (drain) {
        EXPECT_EQ(tally.canceled, 0) << "a drain shutdown runs its backlog";
      }
      // The service (and its engines) are gone: every buffer must be back
      // in the pool or parked in a live tile-store entry.
      EXPECT_EQ(census(runtime), 0)
          << "framebuffer leak through service teardown";
    }
  }
}

TEST(FaultMatrix, ServiceEverySiteBothModesDrainShutdown) {
  run_service_matrix(/*drain=*/true);
}

TEST(FaultMatrix, ServiceEverySiteBothModesCancelShutdown) {
  run_service_matrix(/*drain=*/false);
}

// ------------------------------------------------- deadline machinery -----

TEST(FaultTolerance, RetriesWithVirtualBackoffEventuallyComplete) {
  const auto field = field::analytic::taylor_green(1.0, kDomain);
  const auto config = small_config();
  std::array<std::uint64_t, 4> expected{};
  {
    core::Runtime clean_runtime({.workers = 3});
    core::DncSynthesizer clean(config, tiled_dnc(), clean_runtime);
    for (int f = 0; f < 4; ++f) {
      (void)clean.synthesize(*field, frame_spots(config, f));
      expected[static_cast<std::size_t>(f)] = clean.texture().content_hash();
    }
  }
  FaultPlan plan;
  plan.seed = 0x5eedULL;
  plan.rule(FaultSite::kFieldSample).throw_rate = 0.004;  // per-spot draws
  auto injector = std::make_shared<FaultInjector>(plan);
  core::Runtime runtime({.workers = 3, .fault_injector = injector});
  core::VirtualServiceClock clock;
  core::ServiceConfig service_config;
  service_config.drivers = 1;
  service_config.virtual_clock = &clock;
  service_config.watchdog_interval_seconds = 0.0;
  SynthesisService service(service_config, runtime);
  const auto id = service.open_session(config, tiled_dnc());
  std::vector<SynthesisService::JobTicket> tickets;
  for (int f = 0; f < 4; ++f) {
    core::SynthesisRequest req;
    req.field = field.get();
    req.spots = frame_spots(config, f);
    core::SubmitOptions opt;
    opt.max_retries = 6;
    opt.backoff_seconds = 0.01;
    tickets.push_back(service.submit(id, std::move(req), opt));
  }
  for (std::size_t f = 0; f < tickets.size(); ++f) {
    const core::SynthesisResult result = tickets[f].result.get();
    EXPECT_EQ(result.content_hash, expected[f]);
    EXPECT_FALSE(result.stats.degraded);
  }
  const core::ServiceHealth health = service.health();
  EXPECT_EQ(health.completed, 4);
  EXPECT_GT(health.retries, 0) << "the seeded schedule must force retries";
  EXPECT_EQ(health.failed, 0);
  // Backoff waits ran on the virtual clock, not wall time.
  EXPECT_GE(health.clock_now, 0.01);
}

TEST(FaultTolerance, VirtualDeadlineDegradesThenTimesOutStrict) {
  const auto field = field::analytic::taylor_green(1.0, kDomain);
  const auto config = small_config();
  FaultPlan plan;
  plan.seed = 0xdead1ULL;
  plan.rule(FaultSite::kFieldSample) = {0.0, 1.0, 0.0, 1.0, 0};  // +1s/spot
  auto injector = std::make_shared<FaultInjector>(plan);
  core::Runtime runtime({.workers = 3, .fault_injector = injector});
  core::VirtualServiceClock clock;
  core::ServiceConfig service_config;
  service_config.drivers = 1;
  service_config.virtual_clock = &clock;
  service_config.admission_control = false;
  service_config.watchdog_interval_seconds = 0.0;
  SynthesisService service(service_config, runtime);
  const auto id = service.open_session(config, tiled_dnc());

  // Frame 1: infinite deadline — the injected virtual delays are charged
  // but never enforced, so it completes and becomes the stale frame.
  core::SynthesisRequest first;
  first.field = field.get();
  first.spots = frame_spots(config, 0);
  const std::uint64_t stale_hash =
      service.submit(id, std::move(first)).result.get().content_hash;

  // Frame 2: a budget far below the guaranteed per-chunk penalties, policy
  // kDegrade — the engine times out deterministically and the service
  // serves the stale frame, flagged.
  core::SynthesisRequest second;
  second.field = field.get();
  second.spots = frame_spots(config, 1);
  core::SubmitOptions degrade;
  degrade.deadline_seconds = 3.0;
  degrade.policy = core::SubmitOptions::DeadlinePolicy::kDegrade;
  const core::SynthesisResult served =
      service.submit(id, std::move(second), degrade).result.get();
  EXPECT_TRUE(served.stats.degraded);
  EXPECT_EQ(served.content_hash, stale_hash);
  EXPECT_EQ(served.attempts, 1);

  // Frame 3: same budget under kStrict — the caller gets the timeout.
  core::SynthesisRequest third;
  third.field = field.get();
  third.spots = frame_spots(config, 2);
  core::SubmitOptions strict;
  strict.deadline_seconds = 3.0;
  EXPECT_THROW((void)service.submit(id, std::move(third), strict).result.get(),
               core::JobTimedOut);

  const core::ServiceHealth health = service.health();
  EXPECT_EQ(health.completed, 1);
  EXPECT_EQ(health.degraded, 1);
  EXPECT_EQ(health.timeouts, 1);
}

TEST(FaultTolerance, BreakerOpensHoldsAndReclosesOnHalfOpenProbe) {
  const auto good = field::analytic::taylor_green(1.0, kDomain);
  const auto bad = std::make_unique<field::CallableField>(
      [](field::Vec2 p) -> field::Vec2 {
        if (p.x > 1.0) throw util::Error("poisoned sample");
        return {0.1, 0.2};
      },
      kDomain, 1.0);
  const auto config = small_config();
  core::Runtime runtime({.workers = 3});
  core::VirtualServiceClock clock;
  core::ServiceConfig service_config;
  service_config.drivers = 1;
  service_config.virtual_clock = &clock;
  service_config.breaker_failure_threshold = 3;
  service_config.breaker_cooldown_seconds = 0.25;
  service_config.watchdog_interval_seconds = 0.0;
  SynthesisService service(service_config, runtime);
  const auto id = service.open_session(config, tiled_dnc());
  const auto spots = frame_spots(config, 0);

  std::vector<SynthesisService::JobTicket> doomed;
  for (int k = 0; k < 3; ++k) {
    core::SynthesisRequest req;
    req.field = bad.get();
    req.spots = spots;
    doomed.push_back(service.submit(id, std::move(req)));
  }
  for (auto& ticket : doomed) {
    EXPECT_THROW((void)ticket.result.get(), util::Error);
  }
  // Three consecutive failures opened the breaker. A queued (or newly
  // submitted) good job is *held*, not failed; with a virtual clock the
  // idle driver advances time to the cooldown instant and runs it as the
  // half-open probe. A submit landing while the breaker is still open
  // throws SessionQuarantined — advance the clock and resubmit.
  SynthesisService::JobTicket probe;
  for (;;) {
    core::SynthesisRequest req;
    req.field = good.get();
    req.spots = spots;
    try {
      probe = service.submit(id, std::move(req));
      break;
    } catch (const core::SessionQuarantined&) {
      clock.advance(0.05);
    }
  }
  EXPECT_NO_THROW((void)probe.result.get()) << "half-open probe must run";
  const core::ServiceHealth health = service.health();
  EXPECT_EQ(health.failed, 3);
  EXPECT_EQ(health.breaker_trips, 1);
  EXPECT_EQ(health.completed, 1);
  ASSERT_EQ(health.sessions.size(), 1u);
  EXPECT_EQ(health.sessions[0].breaker, core::BreakerState::kClosed)
      << "a successful probe re-closes the breaker";
  EXPECT_GE(health.clock_now, 0.25) << "the cooldown elapsed on the service clock";
}

TEST(FaultTolerance, WatchdogTimesOutWedgedFrame) {
  // A frame whose chunks stop progressing entirely (every sample sleeps)
  // must be reaped by the wall-mode watchdog, not hold a driver forever.
  const auto wedged = std::make_unique<field::CallableField>(
      [](field::Vec2 p) -> field::Vec2 {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return {0.2 * p.y, -0.2 * p.x};
      },
      kDomain, 1.0);
  auto config = small_config();
  config.spot_count = 400;  // long enough that the stall budget expires
  core::ServiceConfig service_config;
  service_config.drivers = 1;
  service_config.watchdog_interval_seconds = 0.005;
  service_config.watchdog_no_progress_seconds = 0.05;
  SynthesisService service(service_config);
  core::DncConfig dnc;
  dnc.processors = 1;
  dnc.chunk_spots = 200;  // one chunk outlives the no-progress budget
  const auto id = service.open_session(config, dnc);
  core::SynthesisRequest req;
  req.field = wedged.get();
  req.spots = frame_spots(config, 0);
  EXPECT_THROW((void)service.submit(id, std::move(req)).result.get(),
               core::JobTimedOut);
  EXPECT_EQ(service.health().timeouts, 1);
}

TEST(FaultTolerance, FailedDeltaFrameKeepsPreviousFrameAndReplays) {
  // An incremental frame renders its dirty tiles as deltas (old instances
  // negated plus new ones). One that fails must leave the texture holding
  // the previous frame — nothing is added onto the retained pixels — the
  // cache's next plan must be a full frame, and the verdicts must replay
  // under the same seed.
  auto config = small_config();
  config.spot_count = 40;  // few per-spot draws: full frames survive often
  const auto field = field::analytic::taylor_green(1.0, kDomain);
  core::DncConfig dnc = tiled_dnc();
  dnc.tile_cache = false;
  const auto first = frame_spots(config, 0);
  auto moved = first;
  for (std::size_t k = 0; k < 4; ++k) moved[k * 10].position.x += 0.01;

  // Fault-free twin: the planned frame does take the delta path, and its
  // full render is the oracle.
  std::uint64_t expected = 0;
  {
    core::Runtime clean_runtime({.workers = 2});
    core::DncSynthesizer clean(config, dnc, clean_runtime);
    core::SynthesisCache cache;
    (void)clean.synthesize(*field, first);
    cache.commit(clean, *field, std::vector<core::SpotInstance>(first));
    const core::SynthesisCache::Decision d = cache.plan(clean, *field, moved);
    ASSERT_TRUE(d.incremental);
    EXPECT_EQ(clean.synthesize(*field, moved, &d.plan).delta_tiles, dnc.pipes);
    expected = clean.texture().content_hash();
  }

  // Per-spot submit faults strike before the gather; checkout faults strike
  // in it, and with both tiles dirty one may hit the second tile only.
  auto run_once = [&](FaultSite site, double rate) {
    FaultPlan plan;
    plan.seed = 0xde17aULL;
    plan.rule(site).throw_rate = rate;
    core::Runtime runtime(
        {.workers = 2, .fault_injector = std::make_shared<FaultInjector>(plan)});
    core::DncSynthesizer engine(config, dnc, runtime);
    core::SynthesisCache cache;
    core::FrameControl control;
    std::vector<bool> verdicts;
    auto attempt = [&](const std::vector<core::SpotInstance>& spots,
                       const core::FramePlan* frame_plan) {
      control.fault_key = verdicts.size() + 1;
      engine.bind_frame_control(&control);
      bool ok = true;
      try {
        (void)engine.synthesize(*field, spots, frame_plan);
      } catch (const core::FaultInjected&) {
        ok = false;
      }
      engine.bind_frame_control(nullptr);
      verdicts.push_back(ok);
      return ok;
    };
    auto render_full = [&](const std::vector<core::SpotInstance>& spots) {
      for (int tries = 0; tries < 200; ++tries) {
        if (attempt(spots, nullptr)) return true;
      }
      return false;
    };

    int failures = 0;
    for (int tries = 0; tries < 60 && failures < 8; ++tries) {
      if (!render_full(first)) break;
      cache.commit(engine, *field, std::vector<core::SpotInstance>(first));
      const render::Framebuffer previous = engine.texture();
      const core::SynthesisCache::Decision d = cache.plan(engine, *field, moved);
      EXPECT_TRUE(d.incremental);
      if (!attempt(moved, &d.plan)) {
        ++failures;
        EXPECT_EQ(engine.texture(), previous)
            << "a failed delta frame touched the retained texture";
        EXPECT_FALSE(cache.plan(engine, *field, moved).incremental)
            << "the frame after a failure must render in full";
      }
    }
    EXPECT_GT(failures, 0) << "no delta frame failed; the case is vacuous";
    EXPECT_TRUE(render_full(moved));
    EXPECT_EQ(engine.texture().content_hash(), expected);
    return verdicts;
  };
  for (const auto& [site, rate] : {std::pair{FaultSite::kPipeSubmit, 0.05},
                                   std::pair{FaultSite::kFramebufferCheckout, 0.3}}) {
    SCOPED_TRACE(core::fault_site_name(site));
    const std::vector<bool> once = run_once(site, rate);
    EXPECT_EQ(once, run_once(site, rate)) << "delta-frame verdicts must replay";
  }
}

// ---------------------------------------------------------- replay --------

TEST(FaultReplay, SameSeedReplaysToIdenticalHealthTotals) {
  // The whole point of the stable-key design: one seed, two complete
  // service tortures (throws + retries + virtual-deadline timeouts), and
  // the health totals — which outcome every job reached — must be equal
  // counter for counter, no matter how differently the threads interleaved.
  const auto field = field::analytic::taylor_green(1.0, kDomain);
  auto run_once = [&]() {
    FaultPlan plan;
    plan.seed = 0x2e9144ULL;
    plan.rule(FaultSite::kFieldSample).throw_rate = 0.004;  // per-spot draws
    plan.rule(FaultSite::kFramebufferCheckout).throw_rate = 0.1;
    plan.rule(FaultSite::kWorkerPickup).drop_rate = 0.2;
    auto injector = std::make_shared<FaultInjector>(plan);
    core::Runtime runtime({.workers = 3, .fault_injector = injector});
    core::VirtualServiceClock clock;
    core::ServiceConfig service_config;
    service_config.drivers = 2;
    service_config.virtual_clock = &clock;
    service_config.admission_control = false;
    service_config.watchdog_interval_seconds = 0.0;
    std::array<std::int64_t, 5> totals{};
    {
      SynthesisService service(service_config, runtime);
      std::array<SynthesisService::SessionId, 2> ids{};
      for (int s = 0; s < 2; ++s) {
        ids[static_cast<std::size_t>(s)] = service.open_session(
            small_config(42 + static_cast<std::uint64_t>(s)), tiled_dnc());
      }
      std::vector<SynthesisService::JobTicket> tickets;
      for (int f = 0; f < 4; ++f) {
        for (int s = 0; s < 2; ++s) {
          core::SynthesisRequest req;
          req.field = field.get();
          req.spots = frame_spots(
              small_config(42 + static_cast<std::uint64_t>(s)), f);
          core::SubmitOptions opt;
          opt.max_retries = 2;
          opt.backoff_seconds = 0.01;
          tickets.push_back(service.submit(ids[static_cast<std::size_t>(s)],
                                           std::move(req), opt));
        }
      }
      service.shutdown(/*drain=*/true);
      for (auto& ticket : tickets) {
        try {
          (void)ticket.result.get();
        } catch (const util::Error&) {
        }
      }
      const core::ServiceHealth health = service.health();
      totals = {health.completed, health.degraded, health.failed,
                health.retries, health.timeouts};
    }
    return totals;
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second) << "fault outcomes must be replay-deterministic";
  // Non-vacuous: the schedule actually injected frame failures.
  EXPECT_GT(first[3], 0) << "no retries — the torture was a no-op";
}

}  // namespace
