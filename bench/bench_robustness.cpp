// Availability gate for the fault-tolerant synthesis service — the
// deadline-aware robustness layer measured.
//
// One seeded fault schedule drives a full service torture: two sessions,
// dozens of frames queued up front, per-spot throw faults (poisoned field
// samples, failed pipe submits), contained tile-store faults, a failing
// framebuffer checkout per so many tiles, and scheduling-noise drops at
// worker pickup and the caller's completion wait (queue pop). Retries with
// exponential backoff run on the virtual service clock; every frame after a
// session's first carries a finite virtual deadline with policy kDegrade,
// so a job whose retries push it past its deadline is served the session's
// stale frame, flagged —
// availability through degradation, the paper's interactive-steering
// contract under faults.
//
// Four gates, all hard failures:
//
//   availability  >= 99% of frames resolve completed-or-degraded (no
//                 exhausted retries, no cancellations — and the process
//                 finishing at all is the zero-hangs/zero-crashes gate);
//   bit-exact     every *completed* frame's content hash equals the
//                 fault-free baseline for that (session, frame) — recovery
//                 is invisible in the pixels;
//   replay        the same fault seed, run twice, produces identical
//                 service health totals counter for counter;
//   latency SLO   p95 wall latency from submit to resolution stays under a
//                 generous wall budget (queue depth included) — the
//                 practical "no wedged driver" bound.
//
// Determinism notes, load-bearing for the replay gate:
//
//   * The plan mixes throw faults with finite deadlines but injects NO
//     virtual-delay faults. A delay-hit and a throw-hit landing in the same
//     attempt race for the abort classification (JobTimedOut vs retryable
//     FaultInjected) because spots are evaluated in parallel — the verdict
//     set is replay-stable, the *first* verdict reached is not. Keeping
//     delays out of deadline-carrying plans removes the ambiguity; the
//     single-site delay matrices in tests/test_faults.cpp cover virtual
//     delay timeouts. (See "Fault tolerance & SLOs" in ARCHITECTURE.md.)
//   * One driver thread: with the virtual clock, a single driver's dispatch
//     order is a pure function of the queues and the (deterministic)
//     attempt verdicts, so deadline triage at dispatch replays exactly.
//
// Exits nonzero when any gate fails; scripts/bench.sh checks the JSON
// report in as BENCH_robustness.json.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/fault_injector.hpp"
#include "core/runtime.hpp"
#include "core/service_clock.hpp"
#include "core/spot_source.hpp"
#include "core/synthesis_service.hpp"
#include "field/analytic.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dcsn;

constexpr int kSessions = 2;
constexpr field::Rect kDomain{0.0, 0.0, 2.0, 2.0};
constexpr double kAvailabilityTarget = 0.99;
constexpr double kP95SloSeconds = 5.0;  // wall, queue depth included

core::SynthesisConfig session_config(int session) {
  core::SynthesisConfig config;
  config.texture_width = 64;
  config.texture_height = 64;
  config.spot_count = 160;
  config.spot_radius_px = 5.0;
  config.kind = core::SpotKind::kEllipse;
  config.seed = 42 + static_cast<std::uint64_t>(session);
  return config;
}

core::DncConfig torture_dnc() {
  core::DncConfig dnc;
  dnc.processors = 2;
  dnc.pipes = 2;
  dnc.chunk_spots = 16;
  dnc.tiled = true;
  dnc.tile_cache = true;
  return dnc;
}

std::vector<core::SpotInstance> frame_spots(const core::SynthesisConfig& config,
                                            int frame) {
  util::Rng rng(config.seed + static_cast<std::uint64_t>(frame) * 1000003ULL);
  auto spots = core::make_random_spots(kDomain, config.spot_count, rng);
  for (auto& spot : spots) spot.intensity *= 0.2;
  return spots;
}

core::FaultPlan torture_plan() {
  core::FaultPlan plan;
  plan.seed = 0x0b0b5ca1eULL;
  // Per-spot outcome sites (160 draws per frame attempt): rates sized so an
  // attempt survives ~70% of the time — enough failures to exercise every
  // retry path, few enough that six retries converge.
  plan.rule(core::FaultSite::kFieldSample).throw_rate = 0.0015;
  plan.rule(core::FaultSite::kPipeSubmit).throw_rate = 0.0008;
  // Per-tile mandatory path: a failed checkout fails the attempt.
  plan.rule(core::FaultSite::kFramebufferCheckout).throw_rate = 0.03;
  // Contained sites: a faulted probe is a miss, a faulted publish is
  // skipped — never a frame failure, but the recovery paths run hot.
  plan.rule(core::FaultSite::kStoreProbe).throw_rate = 0.2;
  plan.rule(core::FaultSite::kStorePublish).throw_rate = 0.2;
  // Scheduling noise, demoted to drops by construction.
  plan.rule(core::FaultSite::kWorkerPickup).drop_rate = 0.2;
  plan.rule(core::FaultSite::kQueuePop).drop_rate = 0.1;
  return plan;
}

struct TortureOutcome {
  core::ServiceHealth health;
  /// Resolved outcome per submitted job, in submission order: 'c'ompleted,
  /// 'd'egraded, 'f'ailed, 't'imed out, 'x' canceled.
  std::vector<char> outcomes;
  std::vector<double> latencies_seconds;  ///< wall, submit -> resolved
  bool bit_exact = true;
  std::int64_t census = 0;  ///< leaked framebuffers after teardown
};

/// Health totals that must replay exactly (clock_now excluded on purpose:
/// it is replay-stable too, but comparing doubles for exact equality in a
/// gate invites grief if the advance arithmetic ever changes).
std::array<std::int64_t, 7> replay_totals(const core::ServiceHealth& h) {
  return {h.completed, h.degraded, h.failed,    h.retries,
          h.timeouts,  h.canceled, h.breaker_trips};
}

TortureOutcome run_torture(int frames_per_session,
                           const std::vector<std::vector<std::uint64_t>>&
                               baseline_hash) {
  auto injector = std::make_shared<core::FaultInjector>(torture_plan());
  core::Runtime runtime({.workers = 3, .fault_injector = injector});
  core::VirtualServiceClock clock;
  core::ServiceConfig service_config;
  service_config.drivers = 1;  // deterministic dispatch order (see header)
  service_config.virtual_clock = &clock;
  service_config.admission_control = false;
  service_config.watchdog_interval_seconds = 0.0;
  const auto field = field::analytic::taylor_green(1.0, kDomain);

  TortureOutcome out;
  {
    core::SynthesisService service(service_config, runtime);
    std::array<core::SynthesisService::SessionId, kSessions> ids{};
    for (int s = 0; s < kSessions; ++s) {
      ids[static_cast<std::size_t>(s)] =
          service.open_session(session_config(s), torture_dnc());
    }
    struct Pending {
      core::SynthesisService::JobTicket ticket;
      util::Stopwatch watch;
      int session = 0;
      int frame = 0;
    };
    std::vector<Pending> pending;
    for (int f = 0; f < frames_per_session; ++f) {
      for (int s = 0; s < kSessions; ++s) {
        core::SynthesisRequest req;
        req.field = field.get();
        req.spots = frame_spots(session_config(s), f);
        core::SubmitOptions opt;
        opt.max_retries = 6;
        opt.backoff_seconds = 0.01;
        if (f > 0) {
          // Frame 0 runs unbounded to warm the session's stale frame; every
          // later frame carries a virtual deadline and degrades past it.
          // The budget is sized against backoff drift: jobs queued behind a
          // storm of other sessions' retries run out of deadline at
          // dispatch and resolve degraded — availability, not failure.
          opt.deadline_seconds = 0.2;
          opt.policy = core::SubmitOptions::DeadlinePolicy::kDegrade;
        }
        Pending p;
        p.session = s;
        p.frame = f;
        p.ticket = service.submit(ids[static_cast<std::size_t>(s)],
                                  std::move(req), opt);
        pending.push_back(std::move(p));
      }
    }
    for (Pending& p : pending) {
      char outcome = 'f';
      try {
        const core::SynthesisResult result = p.ticket.result.get();
        if (result.stats.degraded) {
          outcome = 'd';
        } else {
          outcome = 'c';
          const std::uint64_t expected =
              baseline_hash[static_cast<std::size_t>(p.session)]
                           [static_cast<std::size_t>(p.frame)];
          if (result.content_hash != expected) {
            out.bit_exact = false;
            std::printf("BIT-EXACT MISS session %d frame %d\n", p.session,
                        p.frame);
          }
        }
      } catch (const core::JobCanceled&) {
        outcome = 'x';
      } catch (const core::JobTimedOut&) {
        outcome = 't';
      } catch (const util::Error&) {
        outcome = 'f';
      }
      out.outcomes.push_back(outcome);
      out.latencies_seconds.push_back(p.watch.seconds());
    }
    out.health = service.health();
  }
  out.census = runtime.framebuffers().outstanding_count() -
               runtime.tile_store().stats().entries;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::string json_path = bench::parse_json_path(argc, argv);
  const int frames_per_session = smoke ? 8 : 30;

  // Fault-free baseline hashes, fresh runtime: what every completed frame
  // must reproduce bit for bit.
  std::vector<std::vector<std::uint64_t>> baseline_hash(kSessions);
  {
    core::Runtime clean_runtime({.workers = 3});
    const auto field = field::analytic::taylor_green(1.0, kDomain);
    for (int s = 0; s < kSessions; ++s) {
      const auto config = session_config(s);
      core::DncSynthesizer engine(config, torture_dnc(), clean_runtime);
      for (int f = 0; f < frames_per_session; ++f) {
        (void)engine.synthesize(*field, frame_spots(config, f));
        baseline_hash[static_cast<std::size_t>(s)].push_back(
            engine.texture().content_hash());
      }
    }
  }

  std::printf(
      "robustness torture: %d sessions x %d frames, 160 ellipse spots, 64x64 "
      "tiled, per-spot throw faults + contained store faults + scheduling "
      "drops, retries<=6 with virtual backoff, deadline 0.2 virtual s "
      "(kDegrade) after frame 0\n",
      kSessions, frames_per_session);

  const TortureOutcome first = run_torture(frames_per_session, baseline_hash);
  const TortureOutcome second = run_torture(frames_per_session, baseline_hash);

  const int total = static_cast<int>(first.outcomes.size());
  int completed = 0, degraded = 0;
  for (const char o : first.outcomes) {
    completed += o == 'c' ? 1 : 0;
    degraded += o == 'd' ? 1 : 0;
  }
  const double availability =
      total > 0 ? static_cast<double>(completed + degraded) /
                      static_cast<double>(total)
                : 0.0;
  std::vector<double> latency_ms;
  for (const double s : first.latencies_seconds) latency_ms.push_back(s * 1e3);
  const double p50_ms = util::percentile(latency_ms, 0.50);
  const double p95_ms = util::percentile(latency_ms, 0.95);

  const bool replay_ok =
      replay_totals(first.health) == replay_totals(second.health) &&
      first.outcomes == second.outcomes;
  const bool availability_ok = availability >= kAvailabilityTarget;
  const bool latency_ok = p95_ms <= kP95SloSeconds * 1e3;
  const bool census_ok = first.census == 0 && second.census == 0;
  const bool ok = availability_ok && first.bit_exact && replay_ok &&
                  latency_ok && census_ok;

  std::printf(
      "outcomes: %d completed, %d degraded, %lld failed, %lld timed out, "
      "%lld canceled; %lld retries, %lld breaker trips\n",
      completed, degraded, static_cast<long long>(first.health.failed),
      static_cast<long long>(first.health.timeouts),
      static_cast<long long>(first.health.canceled),
      static_cast<long long>(first.health.retries),
      static_cast<long long>(first.health.breaker_trips));
  std::printf(
      "availability %.4f (target >= %.2f)  latency p50 %.2f ms  p95 %.2f ms "
      "(SLO %.0f ms)  bit-exact %s  replay %s  census %s\n",
      availability, kAvailabilityTarget, p50_ms, p95_ms, kP95SloSeconds * 1e3,
      first.bit_exact ? "yes" : "NO", replay_ok ? "yes" : "NO",
      census_ok ? "clean" : "LEAK");

  if (!json_path.empty()) {
    bench::JsonReport report;
    report.set("workload.sessions", static_cast<std::int64_t>(kSessions));
    report.set("workload.frames_per_session",
               static_cast<std::int64_t>(frames_per_session));
    report.set("workload.spots", static_cast<std::int64_t>(160));
    report.set("workload.texture", static_cast<std::int64_t>(64));
    report.set("run.completed", static_cast<std::int64_t>(completed));
    report.set("run.degraded", static_cast<std::int64_t>(degraded));
    report.set("run.failed", first.health.failed);
    report.set("run.timeouts", first.health.timeouts);
    report.set("run.canceled", first.health.canceled);
    report.set("run.retries", first.health.retries);
    report.set("run.breaker_trips", first.health.breaker_trips);
    report.set("run.latency_p50_ms", p50_ms);
    report.set("run.latency_p95_ms", p95_ms);
    report.set("gate.availability", availability);
    report.set("gate.availability_target", kAvailabilityTarget);
    report.set("gate.bit_exact", first.bit_exact);
    report.set("gate.replay_identical", replay_ok);
    report.set("gate.p95_slo_ms", kP95SloSeconds * 1e3);
    report.set("gate.census_clean", census_ok);
    report.set("gate.pass", ok);
    report.set("mode", smoke ? "smoke" : "full");
    report.write(json_path);
  }
  if (!ok) std::printf("TARGET MISSED\n");
  return ok ? 0 : 1;
}
