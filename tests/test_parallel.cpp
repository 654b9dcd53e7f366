// The fork-join loop of core::Runtime, and the pinned output bits of every
// data-parallel loop that runs on it: the DNS solver, the smog model,
// particle advection, the texture filters and LIC. Each loop computes every
// cell, pixel or particle on its own, so neither the partition nor the
// participant count may move a bit. The expected hashes were recorded from
// the loops' earlier OpenMP form.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/filters.hpp"
#include "core/lic.hpp"
#include "core/runtime.hpp"
#include "field/analytic.hpp"
#include "particles/particle_system.hpp"
#include "render/framebuffer.hpp"
#include "sim/dns_solver.hpp"
#include "sim/smog_model.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/threading.hpp"

namespace {

using namespace dcsn;

template <class T>
std::uint64_t hash_span(std::span<const T> values, std::uint64_t seed = util::kFnv1aOffset) {
  return util::fnv1a(values.data(), values.size_bytes(), seed);
}

// ------------------------------------------------------------- fork_join ---

TEST(ForkJoin, VisitsEveryIndexExactlyOnce) {
  core::Runtime runtime({.workers = 7});
  constexpr std::int64_t kChunk = 16;
  for (const std::int64_t n : {std::int64_t{0}, std::int64_t{1}, kChunk - 3,
                               std::int64_t{100'003}}) {
    for (int cap = 1; cap <= 8; ++cap) {
      SCOPED_TRACE(testing::Message() << "n " << n << ", cap " << cap);
      std::vector<std::atomic<int>> visits(static_cast<std::size_t>(n));
      std::atomic<bool> bad_range{false};
      std::atomic<bool> bad_slot{false};
      runtime.fork_join(n, kChunk, cap, [&](int slot, std::int64_t begin, std::int64_t end) {
        if (begin < 0 || end > n || end - begin < 1 || end - begin > kChunk) bad_range = true;
        if (slot < 0 || slot >= cap) bad_slot = true;
        for (std::int64_t i = begin; i < end; ++i) {
          visits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
        }
      });
      EXPECT_FALSE(bad_range);
      EXPECT_FALSE(bad_slot);
      std::int64_t wrong = 0;
      for (const auto& v : visits) wrong += v.load() != 1 ? 1 : 0;
      EXPECT_EQ(wrong, 0);
    }
  }
}

TEST(ForkJoin, SlotsAreUniqueAmongConcurrentParticipants) {
  core::Runtime runtime({.workers = 3});
  constexpr int kCap = 4;
  std::vector<std::atomic<int>> inside(kCap);
  std::atomic<bool> shared{false};
  for (int round = 0; round < 50; ++round) {
    runtime.fork_join(4096, 8, kCap, [&](int slot, std::int64_t, std::int64_t) {
      if (inside[static_cast<std::size_t>(slot)].fetch_add(1) != 0) shared = true;
      std::this_thread::yield();
      inside[static_cast<std::size_t>(slot)].fetch_sub(1);
    });
  }
  EXPECT_FALSE(shared);
}

TEST(ForkJoin, ExceptionReachesCallerAfterEveryParticipantLeft) {
  core::Runtime runtime({.workers = 3});
  std::atomic<int> inside{0};
  std::atomic<int> inside_at_throw{-1};
  try {
    runtime.fork_join(10'000, 4, 4, [&](int, std::int64_t begin, std::int64_t) {
      inside.fetch_add(1);
      std::this_thread::yield();
      if (begin == 400) {
        inside.fetch_sub(1);
        throw std::runtime_error("participant failed");
      }
      inside.fetch_sub(1);
    });
    ADD_FAILURE() << "fork_join returned normally";
  } catch (const std::runtime_error& e) {
    inside_at_throw = inside.load();
    EXPECT_STREQ(e.what(), "participant failed");
  }
  EXPECT_EQ(inside_at_throw.load(), 0);

  // The pool still serves loops afterwards.
  std::atomic<std::int64_t> sum{0};
  runtime.fork_join(1000, 10, 4, [&](int, std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
}

TEST(ForkJoin, ZeroWorkerRuntimeRunsTheLoopOnTheCaller) {
  core::Runtime runtime;
  ASSERT_EQ(runtime.worker_count(), 0);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> elsewhere{false};
  std::int64_t covered = 0;
  runtime.fork_join(5000, 7, 8, [&](int slot, std::int64_t begin, std::int64_t end) {
    if (std::this_thread::get_id() != caller || slot != 0) elsewhere = true;
    covered += end - begin;
  });
  EXPECT_FALSE(elsewhere);
  EXPECT_EQ(covered, 5000);
}

TEST(ForkJoin, CallFromInsidePoolJobCompletes) {
  core::Runtime runtime({.workers = 2});
  std::atomic<std::int64_t> inner_items{0};
  // Every outer range opens an inner loop; ranges claimed by pool workers
  // make the inner call from a pool thread.
  runtime.fork_join(64, 1, 3, [&](int, std::int64_t, std::int64_t) {
    runtime.fork_join(256, 4, 3, [&](int, std::int64_t begin, std::int64_t end) {
      inner_items.fetch_add(end - begin);
    });
  });
  EXPECT_EQ(inner_items.load(), 64 * 256);

  // Deterministically from a pool thread: a job only workers serve.
  std::latch done(1);
  std::atomic<std::int64_t> from_worker{0};
  class Nested final : public core::Runtime::SharedJob {
   public:
    Nested(core::Runtime& rt, std::latch& done, std::atomic<std::int64_t>& items)
        : rt_(rt), done_(done), items_(items) {}
    bool serve() override {
      if (claimed_.exchange(true)) return false;
      rt_.fork_join(1000, 10, 3, [&](int, std::int64_t begin, std::int64_t end) {
        items_.fetch_add(end - begin);
      });
      done_.count_down();
      return true;
    }

   private:
    core::Runtime& rt_;
    std::latch& done_;
    std::atomic<std::int64_t>& items_;
    std::atomic<bool> claimed_{false};
  };
  const auto nested = std::make_shared<Nested>(runtime, done, from_worker);
  runtime.register_job(nested);
  done.wait();
  runtime.deregister_job(nested.get());
  EXPECT_EQ(from_worker.load(), 1000);
}

TEST(ForkJoin, ParallelForGrowsTheGlobalPool) {
  std::atomic<std::int64_t> items{0};
  core::parallel_for(10'000, [&](std::int64_t begin, std::int64_t end) {
    items.fetch_add(end - begin);
  });
  EXPECT_EQ(items.load(), 10'000);
  EXPECT_GE(core::Runtime::global().worker_count(), util::hardware_threads() - 1);
}

// ------------------------------------------------------------ pinned bits ---

render::Framebuffer noise_texture(int w, int h, std::uint64_t seed) {
  render::Framebuffer fb(w, h);
  util::Rng rng(seed);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) fb.at(x, y) = static_cast<float>(rng.intensity());
  return fb;
}

TEST(PinnedBits, DnsSolverSteps) {
  sim::DnsParams params;
  params.nx = 72;
  params.ny = 54;
  sim::DnsSolver solver(params);
  for (int step = 0; step < 6; ++step) solver.step();
  std::uint64_t h = hash_span(solver.velocity().samples());
  h = hash_span(solver.pressure().samples(), h);
  EXPECT_EQ(h, 0x241e6b8a1f6127bcULL);
}

TEST(PinnedBits, SmogModelSteps) {
  sim::SmogParams params;
  sim::SmogModel model(params);
  model.add_source({.position = params.domain.center(), .rate = 4.0});
  for (int step = 0; step < 8; ++step) model.step(0.25);
  std::uint64_t h = hash_span(model.concentration(sim::Species::kPrecursor).samples());
  h = hash_span(model.concentration(sim::Species::kOzone).samples(), h);
  EXPECT_EQ(h, 0xca870ac565458f3aULL);
}

TEST(PinnedBits, ParticleAdvanceGenerations) {
  const field::Rect domain{0, 0, 10, 10};
  const auto f = field::analytic::rigid_vortex({5, 5}, 1.0, domain);
  particles::ParticleSystemConfig config;
  config.count = 5000;
  config.mean_lifetime = 0.5;  // many respawns per generation
  particles::ParticleSystem system(config, domain, util::Rng(11));
  std::int64_t respawns = 0;
  for (int generation = 0; generation < 20; ++generation) {
    system.advance(*f, 0.1);
    respawns += system.last_respawn_count();
  }
  const std::span<const particles::Particle> population = system.particles();
  EXPECT_EQ(hash_span(population), 0x7489db16b8f7da4dULL);
  EXPECT_EQ(respawns, 20396);
}

TEST(PinnedBits, Filters) {
  const auto texture = noise_texture(203, 157, 5);
  EXPECT_EQ(core::box_blur(texture, 4).content_hash(), 0x1fecffb6d9843030ULL);
  EXPECT_EQ(core::high_pass(texture, 6).content_hash(), 0x9e221cc0b3d52289ULL);
  auto normalized = texture;
  core::normalize_contrast(normalized, 2.0);
  EXPECT_EQ(normalized.content_hash(), 0x156b14f9218fcb93ULL);
  auto equalized = texture;
  core::equalize_histogram(equalized);
  EXPECT_EQ(equalized.content_hash(), 0x2b16275fb3257d68ULL);
}

TEST(PinnedBits, LicOneAndFourThreads) {
  const field::Rect domain{0, 0, 2, 2};
  const auto f = field::analytic::taylor_green(1.0, domain);
  core::LicConfig config;
  config.width = 96;
  config.height = 80;
  const auto noise = core::make_lic_noise(config.width, config.height, 3);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    config.threads = threads;
    EXPECT_EQ(core::lic(*f, noise, config).content_hash(), 0x332d7a788a2c4775ULL);
  }
}

}  // namespace
