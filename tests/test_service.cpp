// Tests for the shared engine runtime and the asynchronous multi-session
// synthesis service: concurrent-session determinism (content hashes match
// serial one-at-a-time runs bitwise), scheduling order (priority + FIFO
// fairness), queue-wait accounting, cancellation before and mid-frame,
// shutdown with pending jobs, session-local failure isolation, and the
// device pools (pipe reuse via resize_target, framebuffer checkout
// hygiene).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "core/dnc_synthesizer.hpp"
#include "core/runtime.hpp"
#include "core/serial_synthesizer.hpp"
#include "core/spot_source.hpp"
#include "core/synthesis_service.hpp"
#include "field/analytic.hpp"
#include "render/framebuffer_pool.hpp"
#include "render/image.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dcsn;
using core::SynthesisService;
using field::Rect;

core::SynthesisConfig small_config(std::uint64_t seed = 42) {
  core::SynthesisConfig config;
  config.texture_width = 96;
  config.texture_height = 96;
  config.spot_count = 300;
  config.spot_radius_px = 6.0;
  config.kind = core::SpotKind::kEllipse;
  config.seed = seed;
  return config;
}

core::DncConfig small_dnc() {
  core::DncConfig dnc;
  dnc.processors = 2;
  dnc.pipes = 1;
  dnc.chunk_spots = 16;
  return dnc;
}

std::vector<core::SpotInstance> test_spots(const core::SynthesisConfig& config,
                                           Rect domain) {
  util::Rng rng(config.seed);
  auto spots = core::make_random_spots(domain, config.spot_count, rng);
  for (auto& spot : spots) spot.intensity *= 0.2;
  return spots;
}

/// A field whose sampling spins for `delay_per_sample` — the knob that makes
/// a frame long enough to cancel mid-flight on any host.
std::unique_ptr<field::VectorField> slow_field(Rect domain, double delay_per_sample) {
  return std::make_unique<field::CallableField>(
      [delay_per_sample](field::Vec2 p) -> field::Vec2 {
        const util::Stopwatch w;
        while (w.seconds() < delay_per_sample) {
        }
        return {0.2 * p.y + 0.1, -0.2 * p.x + 0.1};
      },
      domain, 1.0);
}

std::unique_ptr<field::VectorField> faulty_field(Rect domain) {
  return std::make_unique<field::CallableField>(
      [](field::Vec2 p) -> field::Vec2 {
        if (p.x > 1.0) throw util::Error("injected session failure");
        return {0.1, 0.2};
      },
      domain, 1.0);
}

// -------------------------------------------- concurrent determinism ------

TEST(SynthesisService, ConcurrentSessionsMatchSerialHashesBitwise) {
  // K sessions with distinct scenes, three frames each, all in flight at
  // once over one runtime — the content hash of every frame must equal the
  // hash a fresh engine produces for that scene alone. Work stealing
  // between the sessions' frames cannot show in the pixels (the lattice
  // guarantee), and per-session FIFO keeps each session's frames ordered.
  constexpr int kSessions = 3;
  constexpr int kFrames = 3;
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);

  std::vector<core::SynthesisConfig> configs;
  std::vector<std::vector<core::SpotInstance>> spots;
  std::vector<std::uint64_t> solo_hash;
  for (int s = 0; s < kSessions; ++s) {
    auto config = small_config(100 + static_cast<std::uint64_t>(s));
    config.kind = s == 1 ? core::SpotKind::kBent : core::SpotKind::kEllipse;
    config.bent.mesh_cols = 8;
    config.bent.mesh_rows = 3;
    config.bent.length_px = 18.0;
    configs.push_back(config);
    spots.push_back(test_spots(config, domain));
    core::DncConfig dnc = small_dnc();
    dnc.tiled = s == 2;
    dnc.pipes = s == 2 ? 2 : 1;
    dnc.processors = 2;
    core::DncSynthesizer solo(config, dnc);
    solo.synthesize(*f, spots.back());
    solo_hash.push_back(solo.texture().content_hash());
  }

  SynthesisService service({.drivers = kSessions});
  std::vector<SynthesisService::SessionId> ids;
  for (int s = 0; s < kSessions; ++s) {
    core::DncConfig dnc = small_dnc();
    dnc.tiled = s == 2;
    dnc.pipes = s == 2 ? 2 : 1;
    ids.push_back(service.open_session(configs[static_cast<std::size_t>(s)], dnc));
  }
  std::vector<SynthesisService::JobTicket> tickets;
  for (int frame = 0; frame < kFrames; ++frame) {
    for (int s = 0; s < kSessions; ++s) {
      core::SynthesisRequest req;
      req.field = f.get();
      req.spots = spots[static_cast<std::size_t>(s)];
      tickets.push_back(service.submit(ids[static_cast<std::size_t>(s)], std::move(req)));
    }
  }
  std::size_t t = 0;
  for (int frame = 0; frame < kFrames; ++frame) {
    for (int s = 0; s < kSessions; ++s) {
      core::SynthesisResult result = tickets[t++].result.get();
      EXPECT_EQ(result.content_hash, solo_hash[static_cast<std::size_t>(s)])
          << "session " << s << " frame " << frame;
      EXPECT_GE(result.stats.queue_wait_seconds, 0.0);
    }
  }
}

// ------------------------------------------------- scheduling order -------

TEST(SynthesisService, PriorityAndFairnessOrderDispatch) {
  // One driver, jobs submitted while it is pinned on a slow frame:
  // the high-priority session goes first, then the two equal-priority
  // sessions alternate (round-robin), FIFO within each. service_seq is the
  // dispatch order the driver actually used.
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto slow = slow_field(domain, 20e-6);
  auto config = small_config();
  config.spot_count = 150;
  const auto spots = test_spots(config, domain);

  SynthesisService service({.drivers = 1});
  const auto low_a = service.open_session(config, small_dnc(), /*priority=*/0);
  const auto low_b = service.open_session(config, small_dnc(), /*priority=*/0);
  const auto high = service.open_session(config, small_dnc(), /*priority=*/1);

  auto request = [&](const field::VectorField& field) {
    core::SynthesisRequest req;
    req.field = &field;
    req.spots = spots;
    return req;
  };

  // Pin the driver so everything below queues up behind one frame.
  auto pin = service.submit(low_a, request(*slow));
  std::vector<SynthesisService::JobTicket> tickets;
  tickets.push_back(service.submit(low_a, request(*f)));   // A1
  tickets.push_back(service.submit(low_a, request(*f)));   // A2
  tickets.push_back(service.submit(low_b, request(*f)));   // B1
  tickets.push_back(service.submit(high, request(*f)));    // H1
  (void)pin.result.get();

  const std::int64_t seq_a1 = tickets[0].result.get().service_seq;
  const std::int64_t seq_a2 = tickets[1].result.get().service_seq;
  const std::int64_t seq_b1 = tickets[2].result.get().service_seq;
  const std::int64_t seq_h1 = tickets[3].result.get().service_seq;
  EXPECT_LT(seq_h1, seq_a1) << "priority session must be dispatched first";
  EXPECT_LT(seq_h1, seq_b1);
  EXPECT_LT(seq_a1, seq_a2) << "FIFO within a session";
  // Fairness: after A1 ran, B has been served less recently than A, so B1
  // must beat A2.
  EXPECT_LT(seq_b1, seq_a2) << "equal-priority sessions round-robin";
}

TEST(SynthesisService, StrictPriorityStarvesWithoutAging) {
  // The starvation regression the aging knob exists for. One driver, a
  // high-priority session that keeps its queue full, and one low-priority
  // job submitted *before* all of the high ones. With aging disabled
  // (priority_aging_dispatches = 0 — the pre-aging strict behavior) the
  // low job is served dead last; with the default aging it gains one
  // effective level per 8 dispatches waited, catches the high session, and
  // is dispatched well before the high queue drains.
  // The high session must *refill* its queue with fresh jobs (a closed
  // loop keeping several in flight): a fresh high job has waited zero
  // dispatches while the parked low job's wait keeps growing, which is
  // exactly the gap aging closes — a static pre-submitted batch would age
  // both queues in lockstep and prove nothing.
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  auto config = small_config();
  config.spot_count = 120;
  const auto spots = test_spots(config, domain);
  constexpr int kHighJobs = 24;
  // Feeder's collection depth — bounds memory, not correctness (the gate
  // fields below are what keep the high queue non-empty).
  constexpr std::size_t kInflight = 4;

  // One run per aging setting; returns (low seq, last high seq).
  const auto run = [&](int aging) {
    SynthesisService service(
        {.drivers = 1, .priority_aging_dispatches = aging});
    const auto low = service.open_session(config, small_dnc(), /*priority=*/0);
    const auto high = service.open_session(config, small_dnc(), /*priority=*/1);

    // "Keeps its queue full" must hold under ANY host scheduling: timed
    // spins raced the feeder on loaded one-core hosts (the driver could
    // drain the whole queue during one feeder deschedule, handing the low
    // job an early dispatch and a bogus strict-run failure). Instead, high
    // job k's field blocks until `released` > k, and the feeder advances
    // `released` to k only *after* submitting job k — so the driver cannot
    // finish job k-1 before job k is queued, and the high queue is provably
    // non-empty at every dispatch until the last high job. Deterministic,
    // no timing dependence.
    std::atomic<int> released{-1};
    std::vector<std::unique_ptr<field::VectorField>> gates;
    for (int k = 0; k < kHighJobs; ++k) {
      gates.push_back(std::make_unique<field::CallableField>(
          [&released, k](field::Vec2 p) -> field::Vec2 {
            while (released.load(std::memory_order_acquire) <= k) {
              std::this_thread::yield();
            }
            return {0.2 * p.y + 0.1, -0.2 * p.x + 0.1};
          },
          domain, 1.0));
    }
    auto request = [&](const field::VectorField& field) {
      core::SynthesisRequest req;
      req.field = &field;
      req.spots = spots;
      return req;
    };

    std::deque<SynthesisService::JobTicket> inflight;
    std::int64_t last_high_seq = 0;
    const auto drain_to = [&](std::size_t depth) {
      while (inflight.size() > depth) {
        last_high_seq = std::max(last_high_seq,
                                 inflight.front().result.get().service_seq);
        inflight.pop_front();
      }
    };
    // High job 0 doubles as the pin: submitted before the low job, it holds
    // the driver until `released` reaches 1, which only happens after the
    // low job AND high job 1 are queued.
    inflight.push_back(service.submit(high, request(*gates[0])));
    auto low_ticket = service.submit(low, request(*f));
    for (int k = 1; k < kHighJobs; ++k) {
      inflight.push_back(
          service.submit(high, request(*gates[static_cast<std::size_t>(k)])));
      released.store(k, std::memory_order_release);  // job k-1 may now finish
      drain_to(kInflight - 1);
    }
    released.store(kHighJobs, std::memory_order_release);
    drain_to(0);
    const std::int64_t low_seq = low_ticket.result.get().service_seq;
    return std::pair(low_seq, last_high_seq);
  };

  const auto [strict_low, strict_last_high] = run(/*aging=*/0);
  EXPECT_GT(strict_low, strict_last_high)
      << "strict priorities must starve the low session until the high "
         "queue drains (the documented pre-aging behavior)";

  const auto [aged_low, aged_last_high] = run(/*aging=*/8);
  EXPECT_LT(aged_low, aged_last_high)
      << "aging must dispatch the starved low-priority job before the "
         "high-priority queue drains";
}

TEST(SynthesisService, DeadlineAtRiskPreemptsViaChunkYield) {
  // A long low-urgency frame holds the only driver while a deadline job
  // arrives: the runner must be asked to yield at its next chunk
  // checkpoint, the urgent job runs, and the yielded frame redoes from the
  // front of its queue — bit-identical, with the attempt counter rolled
  // back (a yield is not a retry).
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto slow = slow_field(domain, 100e-6);
  auto config = small_config();
  const auto spots = test_spots(config, domain);

  // An effectively infinite risk factor makes any finite deadline count as
  // at-risk — the test targets the yield protocol, not the slack estimate.
  SynthesisService service({.drivers = 1, .yield_risk_factor = 1e9});
  const auto slow_session = service.open_session(config, small_dnc());
  const auto urgent_session = service.open_session(config, small_dnc());

  // Calibrate the urgent session's PerfModel (admission needs a completed
  // frame before it can predict).
  {
    core::SynthesisRequest req;
    req.field = f.get();
    req.spots = spots;
    (void)service.submit(urgent_session, std::move(req)).result.get();
  }

  core::SynthesisRequest long_req;
  long_req.field = slow.get();
  long_req.spots = spots;
  auto long_ticket = service.submit(slow_session, std::move(long_req));
  // Wait until the long frame definitely occupies the driver.
  while (service.pending_jobs() > 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  core::SynthesisRequest urgent_req;
  urgent_req.field = f.get();
  urgent_req.spots = spots;
  core::SubmitOptions deadline;
  deadline.deadline_seconds = 30.0;  // finite => at risk under the huge factor
  auto urgent_ticket =
      service.submit(urgent_session, std::move(urgent_req), deadline);

  const auto urgent_result = urgent_ticket.result.get();
  const auto long_result = long_ticket.result.get();
  EXPECT_LT(urgent_result.service_seq, long_result.service_seq)
      << "the urgent job must be dispatched before the yielded redo";
  EXPECT_EQ(long_result.attempts, 1)
      << "a yield rolls the attempt counter back — it is not a retry";

  const auto health = service.health();
  EXPECT_GE(health.yielded, 1) << "the long frame must have yielded";

  // Bit-exactness across the yield: the redone frame equals a fresh solo
  // engine's run of the same scene.
  core::DncSynthesizer solo(config, small_dnc());
  solo.synthesize(*slow, spots);
  EXPECT_EQ(long_result.content_hash, solo.texture().content_hash());
}

TEST(SynthesisService, SecondJobAccountsQueueWait) {
  const Rect domain{0, 0, 2, 2};
  const auto slow = slow_field(domain, 20e-6);
  auto config = small_config();
  config.spot_count = 200;
  const auto spots = test_spots(config, domain);
  SynthesisService service({.drivers = 1});
  const auto id = service.open_session(config, small_dnc());
  core::SynthesisRequest req;
  req.field = slow.get();
  req.spots = spots;
  auto first = service.submit(id, std::move(req));
  core::SynthesisRequest req2;
  req2.field = slow.get();
  req2.spots = spots;
  auto second = service.submit(id, std::move(req2));
  const double first_wait = first.result.get().stats.queue_wait_seconds;
  const double second_wait = second.result.get().stats.queue_wait_seconds;
  EXPECT_GE(first_wait, 0.0);
  EXPECT_GT(second_wait, 0.0) << "the second job waited behind the first";
}

// ----------------------------------------------------- cancellation -------

TEST(SynthesisService, CancelPendingJobResolvesImmediately) {
  const Rect domain{0, 0, 2, 2};
  const auto slow = slow_field(domain, 20e-6);
  auto config = small_config();
  const auto spots = test_spots(config, domain);
  SynthesisService service({.drivers = 1});
  const auto id = service.open_session(config, small_dnc());
  core::SynthesisRequest req;
  req.field = slow.get();
  req.spots = spots;
  auto running = service.submit(id, std::move(req));
  core::SynthesisRequest req2;
  req2.field = slow.get();
  req2.spots = spots;
  auto pending = service.submit(id, std::move(req2));
  EXPECT_TRUE(service.cancel(pending.id));
  EXPECT_THROW((void)pending.result.get(), core::JobCanceled);
  (void)running.result.get();  // unaffected
}

TEST(SynthesisService, CancelMidFrameAbandonsAndSessionRecovers) {
  const Rect domain{0, 0, 2, 2};
  // ~100 us of spinning per field sample makes the frame hundreds of
  // milliseconds long — the cancel below lands mid-frame on any host.
  const auto slow = slow_field(domain, 100e-6);
  const auto fast = field::analytic::taylor_green(1.0, domain);
  auto config = small_config();
  const auto spots = test_spots(config, domain);
  SynthesisService service({.drivers = 1});
  const auto id = service.open_session(config, small_dnc());

  core::SynthesisRequest req;
  req.field = slow.get();
  req.spots = spots;
  auto ticket = service.submit(id, std::move(req));
  // Wait until the job is definitely running (pending count drops), then
  // cancel mid-frame.
  while (service.pending_jobs() > 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(service.cancel(ticket.id));
  EXPECT_THROW((void)ticket.result.get(), core::JobCanceled);

  // The engine abandoned the frame through the failure protocol; the same
  // session must produce a correct frame right after.
  core::SynthesisRequest good;
  good.field = fast.get();
  good.spots = spots;
  auto recovered = service.submit(id, std::move(good));
  core::DncSynthesizer solo(config, small_dnc());
  solo.synthesize(*fast, spots);
  EXPECT_EQ(recovered.result.get().content_hash, solo.texture().content_hash());
}

// --------------------------------------------------------- shutdown -------

TEST(SynthesisService, ShutdownDrainsPendingJobs) {
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  auto config = small_config();
  config.spot_count = 150;
  const auto spots = test_spots(config, domain);
  auto service = std::make_unique<SynthesisService>(core::ServiceConfig{.drivers = 1});
  const auto id = service->open_session(config, small_dnc());
  std::vector<SynthesisService::JobTicket> tickets;
  for (int k = 0; k < 5; ++k) {
    core::SynthesisRequest req;
    req.field = f.get();
    req.spots = spots;
    tickets.push_back(service->submit(id, std::move(req)));
  }
  service->shutdown(/*drain=*/true);
  for (auto& ticket : tickets) {
    EXPECT_NO_THROW((void)ticket.result.get()) << "drained job must complete";
  }
  EXPECT_THROW((void)service->submit(id, {}), util::Error) << "no submits after shutdown";
}

TEST(SynthesisService, ShutdownWithoutDrainCancelsPending) {
  const Rect domain{0, 0, 2, 2};
  const auto slow = slow_field(domain, 50e-6);
  auto config = small_config();
  const auto spots = test_spots(config, domain);
  SynthesisService service({.drivers = 1});
  const auto id = service.open_session(config, small_dnc());
  std::vector<SynthesisService::JobTicket> tickets;
  for (int k = 0; k < 4; ++k) {
    core::SynthesisRequest req;
    req.field = slow.get();
    req.spots = spots;
    tickets.push_back(service.submit(id, std::move(req)));
  }
  service.shutdown(/*drain=*/false);
  int canceled = 0;
  for (auto& ticket : tickets) {
    try {
      (void)ticket.result.get();  // the running head job may win its race
    } catch (const core::JobCanceled&) {
      ++canceled;
    }
  }
  EXPECT_GE(canceled, 3) << "pending jobs must be canceled, not silently run";
}

TEST(SynthesisService, OpenSessionAndSubmitRacingShutdownNeverHang) {
  // Regression for the open/submit-vs-shutdown race: a client thread that
  // loses the race must deterministically observe util::Error — never a
  // hang, never a ticket whose future nobody resolves. Looped so the TSan
  // run (scripts/verify.sh --tsan covers this suite) explores many
  // interleavings of open_session, submit, and both shutdown flavors.
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto config = small_config();
  const auto spots = test_spots(config, domain);
  for (int round = 0; round < 8; ++round) {
    SynthesisService service({.drivers = 2});
    const auto warm = service.open_session(config, small_dnc());
    std::atomic<bool> go{false};
    constexpr int kClients = 4;
    std::vector<std::vector<SynthesisService::JobTicket>> tickets(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int who = 0; who < kClients; ++who) {
      clients.emplace_back([&, who] {
        while (!go.load(std::memory_order_acquire)) {
        }
        try {
          for (int k = 0; k < 4; ++k) {
            if (who % 2 == 0) {
              (void)service.open_session(config, small_dnc());
            } else {
              core::SynthesisRequest req;
              req.field = f.get();
              req.spots = spots;
              tickets[static_cast<std::size_t>(who)].push_back(
                  service.submit(warm, std::move(req)));
            }
          }
        } catch (const util::Error&) {
          // Shutdown won the race: the one acceptable outcome besides
          // success. Anything else (hang, crash, other exception) fails.
        }
      });
    }
    go.store(true, std::memory_order_release);
    if (round % 4 >= 2) std::this_thread::sleep_for(std::chrono::microseconds(200 * (round % 4)));
    service.shutdown(/*drain=*/round % 2 == 0);
    for (auto& client : clients) client.join();
    // Every ticket handed out before shutdown won must resolve: with a
    // value when the drain ran it, with JobCanceled otherwise.
    for (auto& per_client : tickets) {
      for (auto& ticket : per_client) {
        try {
          (void)ticket.result.get();
        } catch (const util::Error&) {
        }
      }
    }
  }
}

TEST(SynthesisService, AdmissionControlRejectsUnmeetableDeadline) {
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto config = small_config();
  const auto spots = test_spots(config, domain);
  SynthesisService service({.drivers = 1});
  const auto id = service.open_session(config, small_dnc());
  // First frame completes normally and calibrates the session's PerfModel —
  // admission control needs a prediction before it can refuse anything.
  core::SynthesisRequest first;
  first.field = f.get();
  first.spots = spots;
  EXPECT_NO_THROW((void)service.submit(id, std::move(first)).result.get());
  // A deadline far below one predicted frame time is unmeetable at any
  // queue depth: kReject fails fast at the door instead of timing out
  // after a dispatch.
  core::SynthesisRequest doomed;
  doomed.field = f.get();
  doomed.spots = spots;
  core::SubmitOptions opt;
  opt.deadline_seconds = 1e-12;
  opt.policy = core::SubmitOptions::DeadlinePolicy::kReject;
  EXPECT_THROW((void)service.submit(id, std::move(doomed), opt),
               core::JobRejected);
  const core::ServiceHealth health = service.health();
  EXPECT_EQ(health.rejected, 1);
  EXPECT_EQ(health.completed, 1);
}

// ------------------------------------------------- failure isolation ------

TEST(SynthesisService, ExceptionInOneSessionDoesNotPoisonOthers) {
  const Rect domain{0, 0, 2, 2};
  const auto good = field::analytic::taylor_green(1.0, domain);
  const auto bad = faulty_field(domain);
  auto config = small_config();
  const auto spots = test_spots(config, domain);

  SynthesisService service({.drivers = 2});
  const auto victim = service.open_session(config, small_dnc());
  const auto bystander = service.open_session(config, small_dnc());

  core::DncSynthesizer solo(config, small_dnc());
  solo.synthesize(*good, spots);
  const std::uint64_t expected = solo.texture().content_hash();

  // Interleave failing jobs on one session with good jobs on the other.
  std::vector<SynthesisService::JobTicket> bad_jobs, good_jobs;
  for (int k = 0; k < 3; ++k) {
    core::SynthesisRequest fail_req;
    fail_req.field = bad.get();
    fail_req.spots = spots;
    bad_jobs.push_back(service.submit(victim, std::move(fail_req)));
    core::SynthesisRequest ok_req;
    ok_req.field = good.get();
    ok_req.spots = spots;
    good_jobs.push_back(service.submit(bystander, std::move(ok_req)));
  }
  for (auto& job : bad_jobs) {
    EXPECT_THROW((void)job.result.get(), util::Error);
  }
  for (auto& job : good_jobs) {
    EXPECT_EQ(job.result.get().content_hash, expected)
        << "a failing session corrupted a healthy one";
  }
  // Three consecutive failures tripped the victim's circuit breaker: the
  // session is quarantined, not torn down, and the bystander never noticed.
  {
    const core::ServiceHealth health = service.health();
    ASSERT_EQ(health.sessions.size(), 2u);
    EXPECT_EQ(health.sessions[0].breaker, core::BreakerState::kOpen);
    EXPECT_EQ(health.sessions[0].consecutive_failures, 3);
    EXPECT_EQ(health.sessions[0].breaker_trips, 1);
    EXPECT_EQ(health.sessions[1].breaker, core::BreakerState::kClosed);
    EXPECT_EQ(health.failed, 3);
    EXPECT_EQ(health.breaker_trips, 1);
  }
  // The failing session itself recovers (the PR 2 frame-failure protocol)
  // once the breaker cooldown elapses and the half-open probe succeeds.
  const util::Stopwatch waited;
  for (;;) {
    core::SynthesisRequest recover;
    recover.field = good.get();
    recover.spots = spots;
    try {
      EXPECT_EQ(
          service.submit(victim, std::move(recover)).result.get().content_hash,
          expected);
      break;
    } catch (const core::SessionQuarantined&) {
      ASSERT_LT(waited.seconds(), 30.0) << "breaker cooldown never elapsed";
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_EQ(service.health().sessions[0].breaker, core::BreakerState::kClosed)
      << "a successful half-open probe must re-close the breaker";
}

// ------------------------------------------- cross-session tile sharing ---

TEST(SynthesisService, SecondSessionOnSameDatasetHitsTheSharedTileStore) {
  // Two sessions, same dataset, both opted into DncConfig::tile_cache, on a
  // private runtime whose store starts cold. The first session rasterizes
  // and publishes every tile; the second must render NOTHING — every tile
  // served from the shared store — and still hash identically to an
  // uncached solo engine. This is the tentpole's end-to-end claim: N
  // sessions browsing one dataset pay for rasterization once.
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  const auto config = small_config();
  const auto spots = test_spots(config, domain);
  core::DncConfig dnc = small_dnc();
  dnc.tiled = true;
  dnc.pipes = 2;
  dnc.tile_cache = true;

  core::DncConfig uncached = dnc;
  uncached.tile_cache = false;
  core::DncSynthesizer solo(config, uncached);
  solo.synthesize(*f, spots);
  const std::uint64_t expected = solo.texture().content_hash();

  core::Runtime runtime({.workers = 2});
  SynthesisService service({.drivers = 2}, runtime);
  const auto first = service.open_session(config, dnc);
  const auto second = service.open_session(config, dnc);

  auto request = [&] {
    core::SynthesisRequest req;
    req.field = f.get();
    req.spots = spots;
    return req;
  };
  const core::SynthesisResult r1 = service.submit(first, request()).result.get();
  EXPECT_EQ(r1.content_hash, expected);
  EXPECT_EQ(r1.stats.cache_tile_hits, 0);
  EXPECT_EQ(r1.stats.cache_tile_misses, dnc.pipes);
  EXPECT_EQ(r1.stats.cache_tiles_published, dnc.pipes);

  const core::SynthesisResult r2 = service.submit(second, request()).result.get();
  EXPECT_EQ(r2.content_hash, expected)
      << "a store-served frame must be bit-identical to the solo render";
  EXPECT_EQ(r2.stats.cache_tile_hits, dnc.pipes);
  EXPECT_EQ(r2.stats.spots_submitted, 0)
      << "the second session should not have rendered a single spot";
  EXPECT_EQ(r2.stats.cache_hit_bytes,
            static_cast<std::uint64_t>(config.texture_width) *
                static_cast<std::uint64_t>(config.texture_height) *
                sizeof(float));

  const core::TileStore::Stats stats = service.tile_cache_stats();
  EXPECT_EQ(stats.hits, dnc.pipes);
  EXPECT_EQ(stats.inserts, dnc.pipes);
  EXPECT_EQ(stats.entries, dnc.pipes);
  EXPECT_LE(stats.bytes, stats.budget_bytes);
}

TEST(SynthesisService, FailedFrameNeverPublishesPartialTiles) {
  // A field that survives the 256-sample fingerprint pass, then throws
  // mid-generation: the job fails through the ticket, and the shared store
  // must be exactly as empty as before — publishes happen only in the
  // sequential gather, after the frame-failure check. The session then
  // recovers and publishes a full, correct frame.
  const Rect domain{0, 0, 2, 2};
  const auto good = field::analytic::taylor_green(1.0, domain);
  auto samples = std::make_shared<std::atomic<std::int64_t>>(0);
  const field::CallableField late_fault(
      [samples](field::Vec2 p) -> field::Vec2 {
        if (samples->fetch_add(1) > 300) {
          throw util::Error("injected mid-generation failure");
        }
        return {0.2 * p.y, -0.2 * p.x};
      },
      domain, 1.0);

  const auto config = small_config();
  const auto spots = test_spots(config, domain);
  core::DncConfig dnc = small_dnc();
  dnc.tiled = true;
  dnc.pipes = 2;
  dnc.tile_cache = true;

  core::Runtime runtime({.workers = 2});
  SynthesisService service({.drivers = 1}, runtime);
  const auto id = service.open_session(config, dnc);

  core::SynthesisRequest fail_req;
  fail_req.field = &late_fault;
  fail_req.spots = spots;
  auto ticket = service.submit(id, std::move(fail_req));
  EXPECT_THROW((void)ticket.result.get(), util::Error);
  EXPECT_GT(samples->load(), 300) << "the fault was meant to fire mid-frame";

  core::TileStore::Stats stats = service.tile_cache_stats();
  EXPECT_EQ(stats.entries, 0) << "a failed frame leaked tiles into the store";
  EXPECT_EQ(stats.inserts, 0);
  EXPECT_EQ(stats.bytes, 0u);

  core::DncConfig uncached = dnc;
  uncached.tile_cache = false;
  core::DncSynthesizer solo(config, uncached);
  solo.synthesize(*good, spots);
  core::SynthesisRequest recover;
  recover.field = good.get();
  recover.spots = spots;
  EXPECT_EQ(service.submit(id, std::move(recover)).result.get().content_hash,
            solo.texture().content_hash());
  stats = service.tile_cache_stats();
  EXPECT_EQ(stats.inserts, dnc.pipes);
  EXPECT_EQ(stats.entries, dnc.pipes);
}

// ----------------------------------------------------- device pools -------

TEST(FramebufferPool, RecycledBufferIsCleanAndRightSize) {
  // The checkout contract behind clean-tile retention: a recycled buffer
  // must come back with exactly the requested shape and no pixels from the
  // job that released it.
  render::FramebufferPool pool;
  render::Framebuffer dirty = pool.acquire(32, 16);
  for (int y = 0; y < dirty.height(); ++y)
    for (int x = 0; x < dirty.width(); ++x) dirty.at(x, y) = 7.0f;
  pool.release(std::move(dirty));
  ASSERT_EQ(pool.idle_count(), 1u);

  render::Framebuffer same = pool.acquire(32, 16);
  EXPECT_EQ(same.width(), 32);
  EXPECT_EQ(same.height(), 16);
  for (int y = 0; y < same.height(); ++y)
    for (int x = 0; x < same.width(); ++x)
      ASSERT_EQ(same.at(x, y), 0.0f) << "leaked pixel at " << x << "," << y;
  EXPECT_GT(pool.reuse_count(), 0) << "the buffer must actually be recycled";
  pool.release(std::move(same));

  render::Framebuffer reshaped = pool.acquire(8, 64);
  EXPECT_EQ(reshaped.width(), 8);
  EXPECT_EQ(reshaped.height(), 64);
  for (int y = 0; y < reshaped.height(); ++y)
    for (int x = 0; x < reshaped.width(); ++x) ASSERT_EQ(reshaped.at(x, y), 0.0f);
}

TEST(FramebufferPool, RecycledBufferCannotLeakIntoRetentionCompose) {
  // End-to-end version of the checkout contract: compose a fresh tile over
  // half of a *recycled* destination, as the engine does for a dirty tile.
  // The other half must read as the pristine zero checkout, not the
  // previous job's pixels.
  render::FramebufferPool pool;
  render::Framebuffer previous_job = pool.acquire(64, 64);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x) previous_job.at(x, y) = 3.5f;
  pool.release(std::move(previous_job));

  render::Framebuffer final_texture = pool.acquire(64, 64);
  render::Framebuffer dirty_tile(32, 64);
  dirty_tile.clear(1.0f);
  final_texture.copy_rect_from(dirty_tile, 0, 0);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      ASSERT_EQ(final_texture.at(x, y), x < 32 ? 1.0f : 0.0f)
          << "at " << x << "," << y;
    }
  }
}

TEST(Runtime, PipePoolReusesReleasedPipes) {
  core::Runtime runtime;
  const std::int64_t created_before = runtime.pipes_created();
  auto config = small_config();
  core::DncConfig dnc = small_dnc();
  {
    core::DncSynthesizer engine(config, dnc, runtime);
  }
  const std::int64_t created_once = runtime.pipes_created() - created_before;
  EXPECT_GE(created_once, 1);
  {
    // Same behavioral config, different texture size: the pooled pipe is
    // reshaped via resize_target instead of constructing a new one.
    auto bigger = config;
    bigger.texture_width = 128;
    bigger.texture_height = 64;
    core::DncSynthesizer engine(bigger, dnc, runtime);
    const Rect domain{0, 0, 2, 2};
    const auto f = field::analytic::taylor_green(1.0, domain);
    const auto spots = test_spots(bigger, domain);
    engine.synthesize(*f, spots);
    EXPECT_EQ(engine.texture().width(), 128);
    EXPECT_GT(render::texture_stddev(engine.texture()), 0.0);
  }
  EXPECT_GT(runtime.pipes_reused(), 0)
      << "the second session must reuse the released pipe";
  EXPECT_EQ(runtime.pipes_created() - created_before, created_once)
      << "no new pipe should be constructed for a matching config";
}

TEST(Runtime, SessionsOnPrivateRuntimeProduceIdenticalBits) {
  // A session borrowing from an explicit private runtime renders the same
  // bits as one on the global runtime — ownership is invisible to pixels.
  const Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  auto config = small_config();
  const auto spots = test_spots(config, domain);
  core::DncConfig dnc = small_dnc();
  dnc.processors = 3;
  dnc.pipes = 1;
  core::DncSynthesizer on_global(config, dnc);
  on_global.synthesize(*f, spots);
  core::Runtime private_runtime({.workers = 3});
  core::DncSynthesizer on_private(config, dnc, private_runtime);
  on_private.synthesize(*f, spots);
  EXPECT_TRUE(on_global.texture() == on_private.texture());
}

}  // namespace
