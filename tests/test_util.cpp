// Unit tests for the util layer: RNG statistics and determinism, timing,
// queues, spans, work distribution, CLI parsing, the word-lane hash.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "render/framebuffer.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/queue.hpp"
#include "util/rng.hpp"
#include "util/span2d.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_annotations.hpp"
#include "util/threading.hpp"

namespace {

using namespace dcsn;

// ------------------------------------------------------------------- Rng ---

TEST(Rng, DeterministicForFixedSeed) {
  util::Rng a(123);
  util::Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Rng a(1);
  util::Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformStaysInUnitInterval) {
  util::Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  util::Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.5, 5e-3);
  EXPECT_NEAR(var, 1.0 / 12.0, 5e-3);
}

TEST(Rng, IntensityIsZeroMeanSymmetric) {
  util::Rng rng(13);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double a = rng.intensity();
    ASSERT_GE(a, -1.0);
    ASSERT_LE(a, 1.0);
    sum += a;
  }
  EXPECT_NEAR(sum / kN, 0.0, 5e-3);
}

TEST(Rng, NormalMoments) {
  util::Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.02);
}

TEST(Rng, IndexStaysInRange) {
  util::Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const auto k = rng.index(17);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 17);
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  util::Rng parent(23);
  util::Rng child = parent.split();
  // Child and parent should produce (statistically) unrelated sequences.
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (parent() == child()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, JumpChangesState) {
  util::Rng a(29);
  util::Rng b(29);
  b.jump();
  EXPECT_NE(a(), b());
}

// -------------------------------------------------------------- Stopwatch ---

TEST(Stopwatch, MeasuresElapsedTime) {
  util::Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = watch.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 1.0);
}

TEST(Stopwatch, RestartResets) {
  util::Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  watch.restart();
  EXPECT_LT(watch.seconds(), 0.015);
}

TEST(TimeAccumulator, SumsScopedIntervals) {
  util::TimeAccumulator acc;
  for (int i = 0; i < 3; ++i) {
    util::ScopedTimer t(acc);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(acc.seconds(), 0.012);
  EXPECT_EQ(acc.intervals(), 3);
  acc.reset();
  EXPECT_EQ(acc.seconds(), 0.0);
  EXPECT_EQ(acc.intervals(), 0);
}

// ----------------------------------------------------------------- Span2D ---

TEST(Span2D, IndexingAndRows) {
  std::vector<int> data(12);
  util::Span2D<int> span(data.data(), 4, 3);
  span(2, 1) = 42;
  EXPECT_EQ(data[6], 42);
  EXPECT_EQ(span.row(1)[2], 42);
  EXPECT_EQ(span.width(), 4);
  EXPECT_EQ(span.height(), 3);
}

TEST(Span2D, SubviewSharesStorage) {
  std::vector<int> data(16, 0);
  util::Span2D<int> span(data.data(), 4, 4);
  auto sub = span.subview(1, 1, 2, 2);
  sub(0, 0) = 9;
  EXPECT_EQ(span(1, 1), 9);
  EXPECT_EQ(sub.stride(), 4);
  EXPECT_EQ(sub.width(), 2);
}

TEST(Span2D, ConstConversion) {
  std::vector<double> data(4, 1.5);
  util::Span2D<double> span(data.data(), 2, 2);
  util::Span2D<const double> cspan = span;
  EXPECT_EQ(cspan(1, 1), 1.5);
}

// ------------------------------------------------------------ BoundedQueue ---

TEST(BoundedQueue, FifoOrder) {
  util::BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(BoundedQueue, TryPushRespectsCapacity) {
  util::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
}

TEST(BoundedQueue, CloseDrainsAndEnds) {
  util::BoundedQueue<int> q(8);
  q.push(1);
  q.close();
  EXPECT_FALSE(q.push(2));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, BlockingHandoffAcrossThreads) {
  util::BoundedQueue<int> q(2);
  constexpr int kItems = 1000;
  std::thread producer([&q] {
    for (int i = 0; i < kItems; ++i) q.push(i);
    q.close();
  });
  int expected = 0;
  while (auto v = q.pop()) {
    EXPECT_EQ(*v, expected);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

// ------------------------------------------------------------- WorkCounter ---

TEST(WorkCounter, CoversRangeExactlyOnce) {
  util::WorkCounter counter(100, 7);
  std::vector<bool> seen(100, false);
  while (true) {
    const auto range = counter.claim();
    if (range.empty()) break;
    for (std::int64_t k = range.begin; k < range.end; ++k) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(k)]);
      seen[static_cast<std::size_t>(k)] = true;
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(WorkCounter, ParallelClaimsDoNotOverlap) {
  util::WorkCounter counter(10000, 13);
  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      std::int64_t local = 0;
      while (true) {
        const auto range = counter.claim();
        if (range.empty()) break;
        local += range.size();
      }
      total += local;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.load(), 10000);
}

TEST(WorkCounter, ResetAllowsReuse) {
  util::WorkCounter counter(10, 10);
  EXPECT_EQ(counter.claim().size(), 10);
  EXPECT_TRUE(counter.claim().empty());
  counter.reset();
  EXPECT_EQ(counter.claim().size(), 10);
}

// ------------------------------------------------------------------- Args ---

TEST(Args, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--spots=500", "--full", "--scale=1.5",
                        "--name=test"};
  util::Args args(5, argv);
  EXPECT_EQ(args.get_int("spots", 0), 500);
  EXPECT_TRUE(args.has("full"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_DOUBLE_EQ(args.get_double("scale", 0.0), 1.5);
  EXPECT_EQ(args.get_string("name", ""), "test");
}

TEST(Args, FallbacksForMissingKeys) {
  const char* argv[] = {"prog"};
  util::Args args(1, argv);
  EXPECT_EQ(args.get_int("spots", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
  EXPECT_EQ(args.get_string("s", "d"), "d");
}

// ------------------------------------------------------------------ Error ---

TEST(Check, ThrowsWithContext) {
  try {
    DCSN_CHECK(1 == 2, "math broke");
    FAIL() << "expected throw";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(DCSN_CHECK(true, "never"));
}

// -------------------------------------------------------------------- Csv ---

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "/dcsn_csv_test.csv";
  {
    util::CsvWriter csv(path, {"a", "b"});
    csv.row({"1", "2"});
    csv.row({util::CsvWriter::num(3.5), "x"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3.5,x");
}

TEST(Csv, RejectsWrongWidth) {
  const std::string path = testing::TempDir() + "/dcsn_csv_test2.csv";
  util::CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), util::Error);
}

// -------------------------------------------------------------- Threading ---

TEST(Threading, HardwareThreadsPositive) {
  EXPECT_GE(util::hardware_threads(), 1);
}

// ------------------------------------------------------- thread annotations ---
// Functional coverage for the annotated wrapper types. The *analysis* is
// compile-time (see tests/analyze_fail/ and the analyze preset); these tests
// pin the runtime semantics: mutual exclusion, scoped release, condition
// signalling, shared-vs-exclusive access.

TEST(ThreadAnnotations, MutexLockProvidesMutualExclusion) {
  util::Mutex mutex;
  int counter = 0;  // lock-lint: standalone
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        util::MutexLock lock(mutex);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  util::MutexLock lock(mutex);
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(ThreadAnnotations, MutexTryLockReflectsOwnership) {
  util::Mutex mutex;
  EXPECT_TRUE(mutex.try_lock());  // lock-lint: allow-direct-lock
  std::thread other([&] {
    EXPECT_FALSE(mutex.try_lock());  // lock-lint: allow-direct-lock
  });
  other.join();
  mutex.unlock();  // lock-lint: allow-direct-lock
}

TEST(ThreadAnnotations, MutexLockUnlockRelockRoundTrip) {
  util::Mutex mutex;
  util::MutexLock lock(mutex);
  EXPECT_TRUE(lock.owns_lock());
  lock.unlock();
  EXPECT_FALSE(lock.owns_lock());
  {
    // Released for real: another scoped lock can take it.
    util::MutexLock inner(mutex);
    EXPECT_TRUE(inner.owns_lock());
  }
  lock.lock();
  EXPECT_TRUE(lock.owns_lock());
}

TEST(ThreadAnnotations, CondVarPredicateWaitSeesNotification) {
  util::Mutex mutex;
  util::CondVar cv;
  bool ready = false;  // lock-lint: standalone
  std::thread producer([&] {
    util::MutexLock lock(mutex);
    ready = true;
    cv.notify_one();
  });
  {
    util::MutexLock lock(mutex);
    cv.wait(lock, [&] { return ready; });
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(ThreadAnnotations, CondVarWaitForTimesOutWithoutSignal) {
  util::Mutex mutex;
  util::CondVar cv;
  util::MutexLock lock(mutex);
  const bool signalled =
      cv.wait_for(lock, std::chrono::milliseconds(10), [] { return false; });
  EXPECT_FALSE(signalled);
  EXPECT_TRUE(lock.owns_lock());  // wait_for must reacquire before returning
}

TEST(ThreadAnnotations, SharedMutexAllowsConcurrentReaders) {
  util::SharedMutex mutex;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      util::ReaderLock lock(mutex);
      const int now = concurrent.fetch_add(1) + 1;
      int expected = peak.load();
      while (expected < now && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      concurrent.fetch_sub(1);
    });
  }
  for (auto& th : readers) th.join();
  // With 4 readers parked for 5ms each, at least two must have overlapped
  // unless the scheduler serialized everything (possible but vanishingly
  // rare even on one core, since all are asleep, not computing).
  EXPECT_GE(peak.load(), 1);
  util::WriterLock lock(mutex);  // writer acquires fine after all readers exit
  EXPECT_EQ(concurrent.load(), 0);
}

TEST(ThreadAnnotations, WriterLockExcludesReaders) {
  util::SharedMutex mutex;
  std::atomic<bool> writer_done{false};
  std::thread reader;
  {
    util::WriterLock writer(mutex);
    reader = std::thread([&] {
      util::ReaderLock lock(mutex);
      // Can only get here after the writer scope below releases.
      EXPECT_TRUE(writer_done.load());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    writer_done.store(true);
  }
  reader.join();
}

// ----------------------------------------------------------- statistics ---

TEST(Stats, PercentileNearestRank) {
  const std::vector<double> values = {5.0, 1.0, 3.0, 2.0, 4.0};  // unsorted
  EXPECT_EQ(util::percentile(values, 0.0), 1.0);
  EXPECT_EQ(util::percentile(values, 0.5), 3.0);
  EXPECT_EQ(util::percentile(values, 1.0), 5.0);
  // index round(0.95 * 4) = 4 — the nearest-rank rule every caller shares.
  EXPECT_EQ(util::percentile(values, 0.95), 5.0);
  EXPECT_EQ(util::percentile(values, 0.25), 2.0);
}

TEST(Stats, PercentileGuardsEmptyAndClampsP) {
  // The guard this helper was extracted for: an empty sample (a client
  // that completed zero frames) must yield 0.0, not index out of bounds.
  EXPECT_EQ(util::percentile({}, 0.95), 0.0);
  const std::vector<double> one = {7.0};
  EXPECT_EQ(util::percentile(one, 0.5), 7.0);
  EXPECT_EQ(util::percentile(one, -3.0), 7.0);  // p clamped to [0, 1]
  EXPECT_EQ(util::percentile(one, 42.0), 7.0);
}

TEST(Stats, PercentileDoesNotReorderCallerSample) {
  const std::vector<double> values = {9.0, 1.0, 5.0};
  const std::vector<double> copy = values;
  (void)util::percentile(values, 0.5);
  EXPECT_EQ(values, copy) << "percentile takes its sample by value";
}

// -------------------------------------------------------------- LaneHash ---

TEST(LaneHash, EverySingleBitFlipChangesTheHashUpTo67Bytes) {
  // 0-67 bytes covers every split into 32-byte blocks, whole tail words
  // and a 1-7 byte partial word.
  for (std::size_t n = 0; n <= 67; ++n) {
    std::vector<unsigned char> buf(n);
    for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<unsigned char>(i * 37 + 11);
    const std::uint64_t base = util::lane_hash(buf.data(), n);
    for (std::size_t bit = 0; bit < n * 8; ++bit) {
      buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
      EXPECT_NE(util::lane_hash(buf.data(), n), base) << "length " << n << " bit " << bit;
      buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    }
  }
}

TEST(LaneHash, RandomBitFlipsInAFrameSizedBufferChangeTheHash) {
  std::vector<unsigned char> buf(256 * 1024);
  util::Rng rng(1997);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  const std::uint64_t base = util::lane_hash(buf.data(), buf.size());
  for (int k = 0; k < 4096; ++k) {
    const auto bit = static_cast<std::size_t>(
        rng.index(static_cast<std::int64_t>(buf.size() * 8)));
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    ASSERT_NE(util::lane_hash(buf.data(), buf.size()), base) << "bit " << bit;
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
}

TEST(LaneHash, TrailingZeroBytesChangeTheHash) {
  // The zero-padded partial word alone cannot tell these apart; the byte
  // length folded in at the end must.
  const std::vector<unsigned char> zeros(80, 0);
  std::set<std::uint64_t> seen;
  for (std::size_t n = 0; n <= zeros.size(); ++n) {
    EXPECT_TRUE(seen.insert(util::lane_hash(zeros.data(), n)).second) << "length " << n;
  }
  const unsigned char abc[4] = {'a', 'b', 'c', 0};
  EXPECT_NE(util::lane_hash(abc, 3), util::lane_hash(abc, 4));
}

TEST(LaneHash, SeedChains) {
  const unsigned char a[5] = {1, 2, 3, 4, 5};
  const unsigned char b[9] = {9, 8, 7, 6, 5, 4, 3, 2, 1};
  const std::uint64_t ha = util::lane_hash(a, sizeof a);
  EXPECT_EQ(ha, util::lane_hash(a, sizeof a, util::kLaneHashSeed));
  EXPECT_NE(util::lane_hash(a, sizeof a, 1), ha);
  EXPECT_NE(util::lane_hash(nullptr, 0, 1), util::lane_hash(nullptr, 0, 2));
  // Chaining through the seed makes the second hash depend on the first
  // buffer, and the order of the two matters.
  const std::uint64_t ab = util::lane_hash(b, sizeof b, ha);
  EXPECT_NE(ab, util::lane_hash(b, sizeof b));
  EXPECT_NE(ab, util::lane_hash(a, sizeof a, util::lane_hash(b, sizeof b)));
  const unsigned char a2[5] = {1, 2, 3, 4, 6};
  EXPECT_NE(ab, util::lane_hash(b, sizeof b, util::lane_hash(a2, sizeof a2)));
}

TEST(LaneHash, KnownAnswers) {
  // Pinned: Framebuffer::content_hash and net::tile_payload_hash are part
  // of the wire contract, so a change here must bump net::kProtocolVersion.
  EXPECT_EQ(util::lane_hash(nullptr, 0), 0x92a9edb53ff68534ULL);
  EXPECT_EQ(util::lane_hash("dcsn", 4), 0xd470b56845b3677cULL);
  unsigned char iota[67];
  for (int i = 0; i < 67; ++i) iota[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(util::lane_hash(iota, sizeof iota), 0x4a0bc1d8ae82c0c2ULL);
  EXPECT_EQ(util::lane_hash(iota, sizeof iota, 1), 0xd0ca55f215cecfcdULL);
  const std::vector<float> frame(256 * 256, 0.0f);
  EXPECT_EQ(util::lane_hash(frame.data(), frame.size() * sizeof(float)),
            0x8777ae53a245b841ULL);
}

TEST(LaneHash, ContentHashTellsReshapedBuffersApart) {
  // Same 64 zero bytes, different shape: the dimension prefix decides.
  const render::Framebuffer wide(8, 2);
  const render::Framebuffer tall(2, 8);
  EXPECT_NE(wide.content_hash(), tall.content_hash());
  EXPECT_EQ(wide.content_hash(), render::Framebuffer(8, 2).content_hash());
}

}  // namespace
