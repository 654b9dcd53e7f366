// Micro benchmarks (google-benchmark) for the building blocks: RNG, field
// sampling, integrators, streamline tracing, spot geometry generation,
// rasterization, blending/compose, and texture filters. These are the genP
// and genT primitives whose ratio drives the divide-and-conquer balance.
#include <benchmark/benchmark.h>

#include "core/filters.hpp"
#include "core/spot_geometry.hpp"
#include "field/analytic.hpp"
#include "field/grid_field.hpp"
#include "particles/integrators.hpp"
#include "particles/particle_system.hpp"
#include "particles/tracer.hpp"
#include "render/rasterizer.hpp"
#include "util/rng.hpp"
#include "util/simd_dispatch.hpp"

#include <cstdint>
#include <vector>

namespace {

using namespace dcsn;

// ---------------------------------------------------------------- util ---

void BM_RngU64(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng());
}
BENCHMARK(BM_RngU64);

void BM_RngNormal(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal());
}
BENCHMARK(BM_RngNormal);

// --------------------------------------------------------------- field ---

field::GridVectorField make_grid_field(int n) {
  field::RegularGrid grid(n, n, {0.0, 0.0, 1.0, 1.0});
  field::GridVectorField f(grid);
  f.fill([](field::Vec2 p) { return field::Vec2{p.y, -p.x}; });
  return f;
}

void BM_GridFieldSample(benchmark::State& state) {
  const auto f = make_grid_field(static_cast<int>(state.range(0)));
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.sample({rng.uniform(), rng.uniform()}));
  }
}
BENCHMARK(BM_GridFieldSample)->Arg(53)->Arg(278);

void BM_RectilinearSample(benchmark::State& state) {
  auto xs = field::RectilinearGrid::stretched_axis(278, 0.0, 1.0, 0.3, 2.5);
  auto ys = field::RectilinearGrid::stretched_axis(208, 0.0, 1.0, 0.5, 2.5);
  field::RectilinearVectorField f(
      field::RectilinearGrid(std::move(xs), std::move(ys)));
  f.fill([](field::Vec2 p) { return field::Vec2{p.y, -p.x}; });
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.sample({rng.uniform(), rng.uniform()}));
  }
}
BENCHMARK(BM_RectilinearSample);

// ----------------------------------------------------------- particles ---

void BM_IntegratorStep(benchmark::State& state) {
  const auto f = make_grid_field(64);
  const auto method = static_cast<particles::Integrator>(state.range(0));
  field::Vec2 p{0.5, 0.5};
  for (auto _ : state) {
    p = particles::step(f, p, 1e-3, method);
    p = f.domain().clamp(p);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_IntegratorStep)
    ->Arg(static_cast<int>(particles::Integrator::kEuler))
    ->Arg(static_cast<int>(particles::Integrator::kRk2))
    ->Arg(static_cast<int>(particles::Integrator::kRk4));

void BM_StreamlineTrace(benchmark::State& state) {
  const auto f = make_grid_field(64);
  particles::TracerConfig config;
  config.step_length = 1e-3;
  const particles::StreamlineTracer tracer(config);
  const int steps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracer.trace(f, {0.5, 0.5}, steps / 2, steps / 2));
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_StreamlineTrace)->Arg(15)->Arg(31)->Arg(124);

void BM_ParticleAdvance(benchmark::State& state) {
  const auto f = make_grid_field(64);
  particles::ParticleSystemConfig config;
  config.count = state.range(0);
  particles::ParticleSystem system(config, f.domain(), util::Rng(4));
  for (auto _ : state) system.advance(f, 1e-3);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParticleAdvance)->Arg(2500)->Arg(40000);

// -------------------------------------------------------- spot geometry ---

void BM_SpotGeometry(benchmark::State& state) {
  const auto f = make_grid_field(64);
  core::SynthesisConfig config;
  config.kind = static_cast<core::SpotKind>(state.range(0));
  config.bent.mesh_cols = 16;
  config.bent.mesh_rows = 3;
  config.bent.trace_substeps = static_cast<int>(state.range(1));
  const core::SpotGeometryGenerator generator(config, f);
  render::CommandBuffer buffer;
  util::Rng rng(5);
  for (auto _ : state) {
    buffer.clear();
    generator.generate({{rng.uniform(), rng.uniform()}, 1.0}, buffer);
    benchmark::DoNotOptimize(buffer.vertex_count());
  }
}
BENCHMARK(BM_SpotGeometry)
    ->Args({static_cast<int>(core::SpotKind::kPoint), 1})
    ->Args({static_cast<int>(core::SpotKind::kEllipse), 1})
    ->Args({static_cast<int>(core::SpotKind::kBent), 1})
    ->Args({static_cast<int>(core::SpotKind::kBent), 4})
    ->Args({static_cast<int>(core::SpotKind::kBent), 24});

// ------------------------------------------------------------ rasterizer ---

void BM_RasterizeQuad(benchmark::State& state) {
  render::Framebuffer fb(256, 256);
  const render::SpotProfile profile(render::SpotShape::kCosine, 64);
  const auto size = static_cast<float>(state.range(0));
  render::CommandBuffer buf;
  auto v = buf.add_mesh(1.0f, 2, 2);
  v[0] = {100.0f, 100.0f, 0.0f, 0.0f};
  v[1] = {100.0f + size, 100.0f, 1.0f, 0.0f};
  v[2] = {100.0f, 100.0f + size, 0.0f, 1.0f};
  v[3] = {100.0f + size, 100.0f + size, 1.0f, 1.0f};
  render::RasterStats stats;
  for (auto _ : state) {
    render::rasterize_buffer({fb.pixels(), 0, 0}, buf, profile,
                             render::BlendMode::kAdditive, stats);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RasterizeQuad)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_RasterizeBentMesh(benchmark::State& state) {
  // A full bent-spot mesh as the pipes see it: the paper's two shapes.
  render::Framebuffer fb(512, 512);
  const render::SpotProfile profile(render::SpotShape::kCosine, 64);
  const int cols = static_cast<int>(state.range(0));
  const int rows = static_cast<int>(state.range(1));
  render::CommandBuffer buf;
  auto v = buf.add_mesh(1.0f, cols, rows);
  for (int j = 0; j < rows; ++j)
    for (int i = 0; i < cols; ++i)
      v[static_cast<std::size_t>(j * cols + i)] = {
          100.0f + 40.0f * i / (cols - 1), 200.0f + 10.0f * j / (rows - 1),
          static_cast<float>(i) / (cols - 1), static_cast<float>(j) / (rows - 1)};
  render::RasterStats stats;
  for (auto _ : state) {
    render::rasterize_buffer({fb.pixels(), 0, 0}, buf, profile,
                             render::BlendMode::kAdditive, stats);
  }
  state.SetItemsProcessed(state.iterations() * (cols - 1) * (rows - 1));
}
BENCHMARK(BM_RasterizeBentMesh)->Args({32, 17})->Args({16, 3});

// ---------------------------------------------------------------- gather ---

void BM_GatherBlend(benchmark::State& state) {
  const auto pipes = static_cast<std::size_t>(state.range(0));
  std::vector<render::Framebuffer> parts(pipes, render::Framebuffer(512, 512));
  render::Framebuffer final_texture(512, 512);
  for (auto _ : state) {
    final_texture.clear();
    for (const render::Framebuffer& part : parts) final_texture.accumulate(part);
    benchmark::DoNotOptimize(final_texture.pixels().data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(pipes) *
                          512 * 512 * 4);
}
BENCHMARK(BM_GatherBlend)->Arg(1)->Arg(2)->Arg(4);

// ---------------------------------------------------------------- filters ---

void BM_BoxBlur(benchmark::State& state) {
  render::Framebuffer fb(512, 512);
  util::Rng rng(6);
  for (int y = 0; y < 512; ++y)
    for (int x = 0; x < 512; ++x) fb.at(x, y) = rng.uniform_f();
  for (auto _ : state) benchmark::DoNotOptimize(core::box_blur(fb, state.range(0)));
}
BENCHMARK(BM_BoxBlur)->Arg(2)->Arg(8);

void BM_HighPass(benchmark::State& state) {
  render::Framebuffer fb(512, 512);
  util::Rng rng(7);
  for (int y = 0; y < 512; ++y)
    for (int x = 0; x < 512; ++x) fb.at(x, y) = rng.uniform_f();
  for (auto _ : state) benchmark::DoNotOptimize(core::high_pass(fb, 6));
}
BENCHMARK(BM_HighPass);

// ------------------------------------------------------- simd kernels ---
// Every dispatched kernel at every tier the host can run (arg 0 = tier:
// 0 scalar, 1 sse2, 2 avx2; unavailable tiers skip). Items are
// lanes (fragments for the samplers), so rates compare across tiers.

constexpr std::size_t kSimdLanes = 4096;

std::vector<float> simd_bench_buffer(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> out(n);
  for (float& f : out) f = rng.uniform_f() - 0.5f;
  return out;
}

bool simd_tier_or_skip(benchmark::State& state, util::simd::Tier& tier) {
  tier = static_cast<util::simd::Tier>(state.range(0));
  if (!util::simd::tier_available(tier)) {
    state.SkipWithError("tier unavailable on this host");
    return false;
  }
  return true;
}

void BM_SimdAdd(benchmark::State& state) {
  util::simd::Tier tier;
  if (!simd_tier_or_skip(state, tier)) return;
  const auto& k = util::simd::kernels_for(tier);
  auto dst = simd_bench_buffer(kSimdLanes, 21);
  const auto src = simd_bench_buffer(kSimdLanes, 22);
  for (auto _ : state) {
    k.add(dst.data(), src.data(), dst.size());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSimdLanes));
}
BENCHMARK(BM_SimdAdd)->ArgName("tier")->Arg(0)->Arg(1)->Arg(2);

void BM_SimdAddScaled(benchmark::State& state) {
  util::simd::Tier tier;
  if (!simd_tier_or_skip(state, tier)) return;
  const auto& k = util::simd::kernels_for(tier);
  auto dst = simd_bench_buffer(kSimdLanes, 23);
  const auto src = simd_bench_buffer(kSimdLanes, 24);
  for (auto _ : state) {
    k.add_scaled(dst.data(), src.data(), 0.37f, dst.size());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSimdLanes));
}
BENCHMARK(BM_SimdAddScaled)->ArgName("tier")->Arg(0)->Arg(1)->Arg(2);

void BM_SimdMaxScaled(benchmark::State& state) {
  util::simd::Tier tier;
  if (!simd_tier_or_skip(state, tier)) return;
  const auto& k = util::simd::kernels_for(tier);
  auto dst = simd_bench_buffer(kSimdLanes, 25);
  const auto src = simd_bench_buffer(kSimdLanes, 26);
  for (auto _ : state) {
    k.max_scaled(dst.data(), src.data(), 0.61f, dst.size());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSimdLanes));
}
BENCHMARK(BM_SimdMaxScaled)->ArgName("tier")->Arg(0)->Arg(1)->Arg(2);

void BM_SimdMaxWith(benchmark::State& state) {
  util::simd::Tier tier;
  if (!simd_tier_or_skip(state, tier)) return;
  const auto& k = util::simd::kernels_for(tier);
  auto dst = simd_bench_buffer(kSimdLanes, 27);
  for (auto _ : state) {
    k.max_with(dst.data(), 0.1f, dst.size());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSimdLanes));
}
BENCHMARK(BM_SimdMaxWith)->ArgName("tier")->Arg(0)->Arg(1)->Arg(2);

void BM_SimdQuantizeSpan(benchmark::State& state) {
  util::simd::Tier tier;
  if (!simd_tier_or_skip(state, tier)) return;
  const auto& k = util::simd::kernels_for(tier);
  auto dst = simd_bench_buffer(kSimdLanes, 28);
  const auto src = simd_bench_buffer(kSimdLanes, 29);
  for (auto _ : state) {
    k.quantize_span(dst.data(), src.data(), dst.size());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kSimdLanes));
}
BENCHMARK(BM_SimdQuantizeSpan)->ArgName("tier")->Arg(0)->Arg(1)->Arg(2);

// The fused span sampler over a synthetic profile table: a diagonal 32.32
// walk, single spans of 24 fragments, and the batched form over 64 spans of
// 6 fragments (the short-span regime the batch packing targets).
constexpr std::size_t kSimdTableStride = 80;
constexpr std::size_t kSimdTableRows = 66;

util::simd::SampleSpan simd_bench_span(const std::vector<float>& table,
                                       std::uint64_t row) {
  util::simd::SampleSpan s{};
  s.table = table.data();
  s.stride = kSimdTableStride;
  s.fx0 = static_cast<std::int64_t>(2 + (row % 8)) << 32;
  s.fy0 = static_cast<std::int64_t>(3 + (row % 5)) << 32;
  s.dfx = (1ll << 31);  // half a texel per fragment
  s.dfy = (1ll << 30);
  s.weight = 0.43f;
  return s;
}

void BM_SimdSampleRow(benchmark::State& state) {
  util::simd::Tier tier;
  if (!simd_tier_or_skip(state, tier)) return;
  const auto& k = util::simd::kernels_for(tier);
  const auto table =
      simd_bench_buffer(kSimdTableStride * kSimdTableRows, 30);
  const auto span = simd_bench_span(table, 1);
  constexpr std::size_t kLen = 24;
  std::vector<float> dst(kLen);
  for (auto _ : state) {
    k.sample_row_add(dst.data(), span, kLen);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kLen));
}
BENCHMARK(BM_SimdSampleRow)->ArgName("tier")->Arg(0)->Arg(1)->Arg(2);

void BM_SimdSampleRowsBatch(benchmark::State& state) {
  util::simd::Tier tier;
  if (!simd_tier_or_skip(state, tier)) return;
  const auto& k = util::simd::kernels_for(tier);
  const auto table =
      simd_bench_buffer(kSimdTableStride * kSimdTableRows, 31);
  constexpr std::size_t kCount = 64;
  constexpr std::uint32_t kLen = 6;
  std::vector<util::simd::SampleSpan> spans;
  std::vector<std::uint32_t> lens(kCount, kLen);
  std::vector<float> dst(kCount * kLen);
  std::vector<float*> ptrs(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    spans.push_back(simd_bench_span(table, i));
    ptrs[i] = dst.data() + i * kLen;
  }
  for (auto _ : state) {
    k.sample_rows_add(ptrs.data(), spans.data(), lens.data(), kCount);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCount * kLen));
}
BENCHMARK(BM_SimdSampleRowsBatch)
    ->ArgName("tier")->Arg(0)->Arg(1)->Arg(2);

void BM_NormalizeContrast(benchmark::State& state) {
  render::Framebuffer fb(512, 512);
  util::Rng rng(8);
  for (int y = 0; y < 512; ++y)
    for (int x = 0; x < 512; ++x) fb.at(x, y) = rng.uniform_f();
  for (auto _ : state) {
    core::normalize_contrast(fb);
    benchmark::DoNotOptimize(fb.at(0, 0));
  }
}
BENCHMARK(BM_NormalizeContrast);

}  // namespace

BENCHMARK_MAIN();
