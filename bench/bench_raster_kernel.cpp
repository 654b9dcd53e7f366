// Ablation gate for the span-based scanline rasterizer (ISSUE 3).
//
// Workload: bent-spot ribbons traced through a swirl — the thin, curved,
// high-aspect meshes central to the paper — pre-transformed into one big
// CommandBuffer so the measurement isolates the fragment hot path. The
// bench:
//
//   1. proves equivalence: identical pixel coverage (exact framebuffer
//      match on a constant-texel clone of the geometry) and per-pixel
//      values within 1e-5 under both blend modes;
//   2. measures fragment throughput of kSpan vs kReference over repeated
//      rasterization (thread-CPU clock, stable on loaded 1-core CI hosts);
//   3. ablates the runtime SIMD dispatch tiers (ISSUE 10): the workload's
//      own blend spans are captured and replayed through each tier's fused
//      sample_row kernel, isolating the kernel from triangle setup (which
//      Amdahl-limits any end-to-end tier ratio);
//   4. splits one span pass into blend kernel (the captured spans replayed
//      through the dispatched tier) and setup (the rest of the pass);
//   5. repeats equivalence, throughput and that split on the small-triangle
//      regime — the served animation frame's mesh shape, ~2.2 fragments per
//      triangle, where per-triangle setup sets the cost (small.* keys), and
//      reports the share of its triangles the 8-lane row solve handles
//      (small.narrow_share);
//   6. runs the whole DnC engine once per algorithm and reports the
//      eq. 3.2 modeled frame seconds;
//   7. gates: span must reach >= 2.0x reference throughput (1.5x with
//      --smoke, whose workload is too small to amortize setup), coverage
//      and values must match kReference on both workloads, AND — when
//      the host has AVX2 — the avx2 tier must reach >= 1.5x the scalar
//      (omp-simd) tier's span-kernel fragment throughput (1.2x with
//      --smoke), else the process exits nonzero.
//
// usage: bench_raster_kernel [--smoke] [--json <path>]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/spot_geometry.hpp"
#include "core/spot_source.hpp"
#include "field/analytic.hpp"
#include "render/framebuffer.hpp"
#include "render/rasterizer.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/simd_dispatch.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace dcsn;

struct RibbonWorkload {
  bench::Workload workload;        // for the eq. 3.2 engine runs
  render::CommandBuffer geometry;  // pre-transformed meshes (kernel timing)
  render::CommandBuffer coverage;  // same meshes, constant UV, unit weight
  std::shared_ptr<const render::SpotProfile> profile;
};

// Pre-transforms every spot once (the kernel timing then excludes genP) and
// builds the constant-UV unit-weight clone: every covered pixel of the clone
// blends the exact same float quantum, so coverage differences cannot cancel
// or hide.
void transform_spots(RibbonWorkload& r) {
  const bench::Workload& w = r.workload;
  const core::SpotGeometryGenerator generator(w.synthesis, *w.field);
  r.geometry.reserve(w.spots.size(),
                     static_cast<std::size_t>(w.synthesis.vertices_per_spot()));
  for (const core::SpotInstance& spot : w.spots) {
    generator.generate(spot, r.geometry);
  }
  r.coverage.reserve(r.geometry.mesh_count(), 4);
  for (const render::MeshHeader& h : r.geometry.meshes()) {
    auto out = r.coverage.add_mesh(1.0f, h.cols, h.rows);
    const auto in = r.geometry.vertices_of(h);
    for (std::size_t k = 0; k < in.size(); ++k) {
      out[k] = in[k];
      out[k].u = 0.5f;
      out[k].v = 0.5f;
    }
  }
  r.profile = render::SpotProfile::make_shared(w.synthesis.profile_shape,
                                               w.synthesis.profile_resolution);
}

RibbonWorkload make_ribbon_workload(bool smoke) {
  RibbonWorkload r;
  bench::Workload& w = r.workload;
  w.name = smoke ? "bent ribbons (smoke)" : "bent ribbons";

  // Solid rotation under a smooth envelope, exactly zero outside the core
  // (same construction as the balance workload) — but every spot is seeded
  // *inside* the core, so each one traces a full-length curved ribbon.
  const field::Vec2 center{0.5, 0.5};
  const double core_radius = 0.34;
  const field::Rect domain{0, 0, 1, 1};
  auto swirl = [center, core_radius](field::Vec2 p) -> field::Vec2 {
    const double dx = p.x - center.x;
    const double dy = p.y - center.y;
    const double r2 = (dx * dx + dy * dy) / (core_radius * core_radius);
    if (r2 >= 1.0) return {0.0, 0.0};
    const double envelope = (1.0 - r2) * (1.0 - r2);
    return {-dy * envelope, dx * envelope};
  };
  const double max_mag = core_radius * 0.2863;  // max of r * (1-(r/R)^2)^2
  w.field = std::make_unique<field::CallableField>(swirl, domain, max_mag);

  // Spot scale sits at the data-browser zoom level (the window feature:
  // a domain sub-rectangle re-synthesized at full texture resolution), where
  // ribbons span tens of pixels and the frame is genT-bound — exactly the
  // regime where rasterizer throughput decides the frame rate. At overview
  // zoom the paper's meshes tessellate below one pixel per quad and
  // per-triangle setup dominates both algorithms equally (the small regime
  // below measures that side).
  w.synthesis.texture_width = smoke ? 256 : 512;
  w.synthesis.texture_height = smoke ? 256 : 512;
  w.synthesis.spot_count = smoke ? 250 : 700;
  w.synthesis.kind = core::SpotKind::kBent;
  w.synthesis.bent.mesh_cols = smoke ? 8 : 10;
  w.synthesis.bent.mesh_rows = 3;
  w.synthesis.bent.length_px = smoke ? 64.0 : 120.0;
  w.synthesis.bent.trace_substeps = 8;
  w.synthesis.spot_radius_px = smoke ? 12.0 : 19.0;
  w.synthesis.intensity_scale =
      core::SerialSynthesizer::natural_intensity(w.synthesis);

  util::Rng rng(20260730);
  const double half_box = core_radius * 0.6;
  w.spots.reserve(static_cast<std::size_t>(w.synthesis.spot_count));
  for (std::int64_t k = 0; k < w.synthesis.spot_count; ++k) {
    core::SpotInstance spot;
    spot.position = {rng.uniform(center.x - half_box, center.x + half_box),
                     rng.uniform(center.y - half_box, center.y + half_box)};
    spot.intensity = rng.intensity();
    w.spots.push_back(spot);
  }
  transform_spots(r);
  return r;
}

// The small-triangle regime: the served animation frame's mesh shape. 16x3
// ribbons of 3 px radius and 22 px length on a 256^2 texture, traced at 4
// substeps through a Rankine vortex with spots scattered over the whole
// domain, tessellate to ~2.2 fragments per triangle — where a triangle's
// fixed setup, not its blending, sets the raster cost.
RibbonWorkload make_small_workload(bool smoke) {
  RibbonWorkload r;
  bench::Workload& w = r.workload;
  w.name = smoke ? "small ribbons (smoke)" : "small ribbons";
  const field::Rect domain{0.0, 0.0, 4.0, 4.0};
  w.field = field::analytic::rankine_vortex({2.0, 2.0}, 1.2, 0.8, domain);

  w.synthesis.texture_width = 256;
  w.synthesis.texture_height = 256;
  w.synthesis.spot_count = smoke ? 500 : 1500;
  w.synthesis.kind = core::SpotKind::kBent;
  w.synthesis.bent.mesh_cols = 16;
  w.synthesis.bent.mesh_rows = 3;
  w.synthesis.bent.length_px = 22.0;
  w.synthesis.bent.trace_substeps = 4;
  w.synthesis.spot_radius_px = 3.0;
  w.synthesis.intensity_scale =
      core::SerialSynthesizer::natural_intensity(w.synthesis);

  util::Rng rng(20261016);
  w.spots = core::make_random_spots(domain, w.synthesis.spot_count, rng);
  transform_spots(r);
  return r;
}

render::RasterStats rasterize_once(const RibbonWorkload& r, render::Framebuffer& fb,
                                   render::RasterAlgorithm algo,
                                   render::BlendMode mode,
                                   const render::CommandBuffer& buffer) {
  render::RasterStats stats;
  fb.clear();
  render::rasterize_buffer({fb.pixels(), 0, 0, algo}, buffer, *r.profile,
                           mode, stats);
  return stats;
}


struct KernelRate {
  double seconds = 0.0;
  double pass_seconds = 0.0;  ///< one whole-buffer rasterization
  double frags_per_second = 0.0;
  render::RasterStats stats;
};

// ---------------------------------------------------------------------------
// Kernel-tier ablation: the workload's own spans through each dispatch tier
// ---------------------------------------------------------------------------

// The captured spans re-armed for replay, SoA like the rasterizer's batch
// buffers. `offsets` preserve each span's real framebuffer address so the
// replay touches memory in the rasterizer's own pattern; `groups` records
// how many spans each triangle produced — the production flush unit.
struct SpanWorkload {
  std::vector<util::simd::SampleSpan> spans;
  std::vector<std::uint32_t> lens;
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> groups;
  std::int64_t fragments = 0;
  double mean_length = 0.0;
};

// Recovers the workload's real covered-run distribution: each triangle of
// the constant-UV coverage clone is rasterized alone into a scratch target
// and its bounding-box rows scanned for nonzero runs — exactly the
// contiguous intervals raster_tri_span blends (through the batched kernel,
// or inline when short; the replay sends all through the kernel). Each
// run is then rebuilt as a SampleSpan over the actual profile table with an
// in-range UV walk at the workload's texels-per-pixel scale (the profile
// spans the spot diameter), so the replay performs the same gathers, lerps
// and lattice snaps as a production span of that length and address.
SpanWorkload capture_spans(const RibbonWorkload& r, render::Framebuffer& fb) {
  SpanWorkload out;
  fb.clear();
  const render::RasterTarget target{fb.pixels(), 0, 0,
                                    render::RasterAlgorithm::kSpan};
  const int width = fb.width();
  const int height = fb.height();
  render::RasterStats stats;

  struct Run {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };
  std::vector<Run> runs;
  auto capture_triangle = [&](const render::MeshVertex& a,
                              const render::MeshVertex& b,
                              const render::MeshVertex& c) {
    const std::size_t first = runs.size();
    render::rasterize_triangle(target, a, b, c, 1.0f, *r.profile,
                               render::BlendMode::kAdditive, stats);
    // Scan only the triangle's bbox rows, zeroing the runs found so the
    // scratch target is clean for the next triangle.
    const int y0 = std::max(
        0, static_cast<int>(std::floor(std::min({a.y, b.y, c.y}))) - 1);
    const int y1 = std::min(
        height - 1, static_cast<int>(std::ceil(std::max({a.y, b.y, c.y}))) + 1);
    const int x0 = std::max(
        0, static_cast<int>(std::floor(std::min({a.x, b.x, c.x}))) - 1);
    const int x1 = std::min(
        width - 1, static_cast<int>(std::ceil(std::max({a.x, b.x, c.x}))) + 1);
    for (int y = y0; y <= y1; ++y) {
      const auto row = fb.pixels().row(y);
      int x = x0;
      while (x <= x1) {
        if (row[static_cast<std::size_t>(x)] == 0.0f) {
          ++x;
          continue;
        }
        const int start = x;
        while (x <= x1 && row[static_cast<std::size_t>(x)] != 0.0f) {
          row[static_cast<std::size_t>(x)] = 0.0f;
          ++x;
        }
        runs.push_back({static_cast<std::uint32_t>(y * width + start),
                        static_cast<std::uint32_t>(x - start)});
      }
    }
    // Record the triangle's span count as a replay batch, split at the
    // rasterizer's own flush granularity (kSpanBatch rows per flush).
    std::size_t produced = runs.size() - first;
    while (produced > 64) {
      out.groups.push_back(64);
      produced -= 64;
    }
    if (produced > 0) out.groups.push_back(static_cast<std::uint32_t>(produced));
  };
  for (const render::MeshHeader& h : r.coverage.meshes()) {
    const auto verts = r.coverage.vertices_of(h);
    auto vertex = [&](int i, int j) -> const render::MeshVertex& {
      return verts[static_cast<std::size_t>(j) * h.cols +
                   static_cast<std::size_t>(i)];
    };
    // The rasterizer's own quad -> two-triangles traversal.
    for (int j = 0; j + 1 < h.rows; ++j) {
      for (int i = 0; i + 1 < h.cols; ++i) {
        capture_triangle(vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1));
        capture_triangle(vertex(i, j), vertex(i + 1, j + 1), vertex(i, j + 1));
      }
    }
  }

  // Re-arm each run with a UV walk that stays in [0,1)^2 (the rasterizer's
  // in-range sub-span guarantee). |du| per fragment ~ 1/(spot diameter in
  // pixels), varied and sign-flipped per span; long spans scale the step
  // down exactly as a long chord through the profile does.
  util::Rng rng(0x5ba9u);
  const double du_base = 1.0 / (2.0 * r.workload.synthesis.spot_radius_px);
  out.spans.reserve(runs.size());
  for (const Run& run : runs) {
    const double steps = static_cast<double>(run.length) - 1.0;
    double du = du_base * rng.uniform(0.6, 1.4) *
                (rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0);
    double dv = du_base * rng.uniform(-0.45, 0.45);
    if (std::abs(du) * steps > 0.92) du *= 0.92 / (std::abs(du) * steps);
    if (std::abs(dv) * steps > 0.90) dv *= 0.90 / (std::abs(dv) * steps);
    const double walk_u = std::abs(du) * steps;
    const double walk_v = std::abs(dv) * steps;
    const double u0 = du >= 0.0 ? rng.uniform(0.02, 0.96 - walk_u)
                                : rng.uniform(0.02 + walk_u, 0.96);
    const double v0 = dv >= 0.0 ? rng.uniform(0.02, 0.96 - walk_v)
                                : rng.uniform(0.02 + walk_v, 0.96);
    render::SpotProfile::RowSampler sampler(*r.profile, du, dv);
    sampler.start_row(u0, v0);
    out.spans.push_back(
        sampler.span(0, static_cast<float>(rng.uniform(0.002, 0.02))));
    out.lens.push_back(run.length);
    out.offsets.push_back(run.offset);
    out.fragments += run.length;
  }
  out.mean_length = runs.empty() ? 0.0
                                 : static_cast<double>(out.fragments) /
                                       static_cast<double>(runs.size());
  return out;
}

// One timed bout of a tier. Tier rates are compared as a ratio, so the
// caller runs several bouts per tier *interleaved across tiers* and keeps
// each tier's best: a noisy-neighbour burst on a shared CI core then lands
// on single bouts instead of poisoning one whole side of the ratio.
double measure_tier_bout(const util::simd::KernelTable& kernels,
                         const SpanWorkload& work, std::vector<float>& dst,
                         std::vector<float*>& dst_ptrs, double min_seconds) {
  std::fill(dst.begin(), dst.end(), 0.0f);
  dst_ptrs.resize(work.offsets.size());
  for (std::size_t i = 0; i < work.offsets.size(); ++i) {
    dst_ptrs[i] = dst.data() + work.offsets[i];
  }
  // Replay through the batched kernel at the rasterizer's flush granularity
  // (one triangle's rows per call) so the measurement covers the production
  // call pattern, not an idealized single-span loop.
  auto replay = [&] {
    std::size_t base = 0;
    for (const std::uint32_t g : work.groups) {
      kernels.sample_rows_add(dst_ptrs.data() + base, work.spans.data() + base,
                              work.lens.data() + base, g);
      base += g;
    }
  };
  replay();  // warm-up: faults pages, primes caches and the predictor
  std::int64_t reps = 0;
  double seconds = 0.0;
  const util::ThreadCpuStopwatch watch;
  do {
    replay();
    ++reps;
    seconds = watch.seconds();
  } while (seconds < min_seconds);
  return static_cast<double>(work.fragments) * static_cast<double>(reps) /
         seconds;
}

KernelRate measure_kernel(const RibbonWorkload& r, render::Framebuffer& fb,
                          render::RasterAlgorithm algo, double min_seconds) {
  // One warm-up pass, then repeat whole-buffer rasterizations until the
  // thread-CPU clock has accumulated a stable measurement.
  (void)rasterize_once(r, fb, algo, render::BlendMode::kAdditive, r.geometry);
  KernelRate rate;
  std::int64_t reps = 0;
  const util::ThreadCpuStopwatch watch;
  do {
    rate.stats = rasterize_once(r, fb, algo, render::BlendMode::kAdditive,
                                r.geometry);
    ++reps;
    rate.seconds = watch.seconds();
  } while (rate.seconds < min_seconds);
  rate.pass_seconds = rate.seconds / static_cast<double>(reps);
  rate.frags_per_second =
      static_cast<double>(rate.stats.fragments) / rate.pass_seconds;
  return rate;
}

// Span-vs-reference equivalence on one workload: exact coverage on the
// constant-texel clone, values within `value_gate` under both blend modes.
struct Equivalence {
  bool coverage_identical = false;
  float additive_dev = 0.0f;
  float maximum_dev = 0.0f;
  bool pass = false;
};

Equivalence check_equivalence(const RibbonWorkload& r, render::Framebuffer& fb,
                              render::Framebuffer& other) {
  Equivalence eq;
  const auto ref_stats = rasterize_once(r, fb, render::RasterAlgorithm::kReference,
                                        render::BlendMode::kAdditive, r.geometry);
  const auto span_stats = rasterize_once(r, other, render::RasterAlgorithm::kSpan,
                                         render::BlendMode::kAdditive, r.geometry);
  eq.additive_dev = fb.max_abs_diff(other);
  (void)rasterize_once(r, fb, render::RasterAlgorithm::kReference,
                       render::BlendMode::kMaximum, r.geometry);
  (void)rasterize_once(r, other, render::RasterAlgorithm::kSpan,
                       render::BlendMode::kMaximum, r.geometry);
  eq.maximum_dev = fb.max_abs_diff(other);

  (void)rasterize_once(r, fb, render::RasterAlgorithm::kReference,
                       render::BlendMode::kAdditive, r.coverage);
  (void)rasterize_once(r, other, render::RasterAlgorithm::kSpan,
                       render::BlendMode::kAdditive, r.coverage);
  eq.coverage_identical = fb == other && ref_stats.fragments == span_stats.fragments;

  // Value tolerance: the kernels' UV evaluation differs by design (~1e-5,
  // see test_rasterizer.cpp), and each side additionally snaps to the
  // contribution lattice, which can separate the results by up to two
  // quanta (util/simd.hpp).
  const float value_gate = 1e-5f + 2.0f * util::simd::kContributionQuantum;
  eq.pass = eq.coverage_identical && eq.additive_dev <= value_gate &&
            eq.maximum_dev <= value_gate;
  std::printf("  equivalence: coverage %s, max deviation additive %.2e / max %.2e\n",
              eq.coverage_identical ? "identical" : "DIFFERS", eq.additive_dev,
              eq.maximum_dev);
  return eq;
}

// The small-triangle regime's numbers: per-triangle cost and its split
// into blend kernel and everything else.
struct SmallRegime {
  std::int64_t triangles = 0;
  Equivalence equivalence;
  KernelRate span;
  double kernel_seconds = 0.0;  ///< one pass's spans through kernels()
  double spans_mean_length = 0.0;

  [[nodiscard]] double setup_seconds() const {
    return span.pass_seconds - kernel_seconds;
  }
  [[nodiscard]] double ns_per_triangle() const {
    return span.pass_seconds * 1e9 / static_cast<double>(triangles);
  }
  [[nodiscard]] double frags_per_triangle() const {
    return static_cast<double>(span.stats.fragments) /
           static_cast<double>(triangles);
  }
  /// Share of drawn triangles whose rows the 8-lane solve found.
  [[nodiscard]] double narrow_share() const {
    return span.stats.triangles > 0 ? static_cast<double>(span.stats.narrow_triangles) /
                                          static_cast<double>(span.stats.triangles)
                                    : 0.0;
  }
};

// Replay time of one pass's captured spans through the dispatched kernel
// tier: the blend-kernel share of a span-rasterizer pass. Best of a few
// bouts, like the tier ablation.
double kernel_pass_seconds(const SpanWorkload& work, std::vector<float>& dst,
                           std::vector<float*>& ptrs, double bout_seconds, int rounds) {
  double rate = 0.0;
  for (int round = 0; round < rounds; ++round) {
    rate = std::max(rate, measure_tier_bout(util::simd::kernels(), work, dst, ptrs,
                                            bout_seconds));
  }
  return static_cast<double>(work.fragments) / rate;
}

SmallRegime run_small_regime(bool smoke) {
  std::printf("== small-triangle regime (%s workload) ==\n", smoke ? "smoke" : "full");
  const RibbonWorkload r = make_small_workload(smoke);
  SmallRegime out;
  out.triangles = r.geometry.quad_count() * 2;
  std::printf("  %zu ribbons, %lld triangles, %dx%d target\n", r.geometry.mesh_count(),
              static_cast<long long>(out.triangles), r.workload.synthesis.texture_width,
              r.workload.synthesis.texture_height);
  render::Framebuffer fb(r.workload.synthesis.texture_width,
                         r.workload.synthesis.texture_height);
  render::Framebuffer other(fb.width(), fb.height());
  out.equivalence = check_equivalence(r, fb, other);

  out.span = measure_kernel(r, fb, render::RasterAlgorithm::kSpan, smoke ? 0.15 : 0.8);
  const SpanWorkload work = capture_spans(r, fb);
  out.spans_mean_length = work.mean_length;
  std::vector<float> dst(static_cast<std::size_t>(fb.width()) *
                         static_cast<std::size_t>(fb.height()));
  std::vector<float*> ptrs;
  out.kernel_seconds =
      kernel_pass_seconds(work, dst, ptrs, smoke ? 0.05 : 0.15, smoke ? 3 : 4);
  std::printf("  span: %.1f ns/triangle, %.2f frags/triangle, %.2f Mfrag/s,"
              " %.1f%% lane-solved\n",
              out.ns_per_triangle(), out.frags_per_triangle(),
              out.span.frags_per_second / 1e6, 100.0 * out.narrow_share());
  std::printf("  per pass: %.3f ms total = %.3f ms setup + %.3f ms %s kernel"
              " (%zu spans, mean length %.2f)\n",
              out.span.pass_seconds * 1e3, out.setup_seconds() * 1e3,
              out.kernel_seconds * 1e3, util::simd::tier_name(util::simd::active_tier()),
              work.spans.size(), work.mean_length);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  const std::string json_path = bench::parse_json_path(argc, argv);
  const double gate = smoke ? 1.5 : 2.0;

  std::printf("== span rasterizer ablation (%s workload) ==\n",
              smoke ? "smoke" : "full");
  const RibbonWorkload r = make_ribbon_workload(smoke);
  const std::int64_t triangles = r.geometry.quad_count() * 2;
  std::printf("  %zu ribbons, %lld quads, %dx%d target\n", r.geometry.mesh_count(),
              static_cast<long long>(r.geometry.quad_count()),
              r.workload.synthesis.texture_width,
              r.workload.synthesis.texture_height);

  render::Framebuffer fb(r.workload.synthesis.texture_width,
                         r.workload.synthesis.texture_height);
  render::Framebuffer other(fb.width(), fb.height());
  const Equivalence eq = check_equivalence(r, fb, other);

  // --- throughput ---
  const double min_seconds = smoke ? 0.15 : 0.8;
  const KernelRate ref = measure_kernel(r, fb, render::RasterAlgorithm::kReference,
                                        min_seconds);
  const KernelRate span = measure_kernel(r, fb, render::RasterAlgorithm::kSpan,
                                         min_seconds);
  const double speedup = span.frags_per_second / ref.frags_per_second;
  const auto ratio = [](const render::RasterStats& s) {
    return s.pixels_visited > 0 ? static_cast<double>(s.fragments) /
                                      static_cast<double>(s.pixels_visited)
                                : 0.0;
  };
  std::printf("  reference: %8.2f Mfrag/s  (visited ratio %.3f)\n",
              ref.frags_per_second / 1e6, ratio(ref.stats));
  std::printf("  span:      %8.2f Mfrag/s  (visited ratio %.3f)\n",
              span.frags_per_second / 1e6, ratio(span.stats));
  std::printf("  speedup: %.2fx (gate: >= %.1fx)\n", speedup, gate);

  // --- kernel-tier ablation: the fused span kernel per dispatch tier ---
  // End-to-end tier ratios are Amdahl-limited by triangle setup and edge
  // walking, so the AVX2 gate is on the span kernel's own fragment
  // throughput: the workload's spans replayed through each tier's
  // sample_row_add in isolation.
  const SpanWorkload span_work = capture_spans(r, fb);
  std::printf("  tier ablation: %zu spans, %lld fragments, mean length %.1f\n",
              span_work.spans.size(),
              static_cast<long long>(span_work.fragments),
              span_work.mean_length);
  const double bout_seconds = smoke ? 0.06 : 0.18;
  const int bout_rounds = smoke ? 3 : 4;
  std::vector<float> replay_dst(static_cast<std::size_t>(fb.width()) *
                                static_cast<std::size_t>(fb.height()));
  std::vector<float*> replay_ptrs;
  struct TierRate {
    util::simd::Tier tier;
    double frags_per_second;
  };
  std::vector<TierRate> tier_rates;
  for (const util::simd::Tier t : util::simd::available_tiers()) {
    tier_rates.push_back({t, 0.0});
  }
  for (int round = 0; round < bout_rounds; ++round) {
    for (TierRate& tr : tier_rates) {
      tr.frags_per_second = std::max(
          tr.frags_per_second,
          measure_tier_bout(util::simd::kernels_for(tr.tier), span_work,
                            replay_dst, replay_ptrs, bout_seconds));
    }
  }
  double scalar_rate = 0.0;
  double avx2_rate = 0.0;
  for (const TierRate& tr : tier_rates) {
    if (tr.tier == util::simd::Tier::kScalar) scalar_rate = tr.frags_per_second;
    if (tr.tier == util::simd::Tier::kAvx2) avx2_rate = tr.frags_per_second;
  }
  for (const TierRate& tr : tier_rates) {
    std::printf("    %-6s %8.2f Mfrag/s  (%.2fx scalar)\n",
                util::simd::tier_name(tr.tier), tr.frags_per_second / 1e6,
                scalar_rate > 0.0 ? tr.frags_per_second / scalar_rate : 0.0);
  }
  const bool have_avx2 = avx2_rate > 0.0;
  const double tier_gate = smoke ? 1.2 : 1.5;
  const double tier_speedup =
      have_avx2 && scalar_rate > 0.0 ? avx2_rate / scalar_rate : 0.0;
  if (have_avx2) {
    std::printf("  avx2 kernel speedup: %.2fx (gate: >= %.1fx)\n", tier_speedup,
                tier_gate);
  } else {
    std::printf("  avx2 unavailable on this host — tier gate skipped\n");
  }
  const bool tier_pass = !have_avx2 || tier_speedup >= tier_gate;

  // --- layer split: one span pass = blend kernel + setup ---
  // The kernel share is the captured spans' replay time on the dispatched
  // tier; everything else in the pass (triangle setup, edge walks, UV
  // planes, short spans blended inline) is setup.
  double active_rate = 0.0;
  for (const TierRate& tr : tier_rates) {
    if (tr.tier == util::simd::active_tier()) active_rate = tr.frags_per_second;
  }
  const double kernel_seconds =
      static_cast<double>(span_work.fragments) / active_rate;
  const double setup_seconds = span.pass_seconds - kernel_seconds;
  std::printf("  per pass: %.3f ms total = %.3f ms setup + %.3f ms %s kernel\n",
              span.pass_seconds * 1e3, setup_seconds * 1e3, kernel_seconds * 1e3,
              util::simd::tier_name(util::simd::active_tier()));

  // --- the small-triangle regime: setup-bound animation frames ---
  const SmallRegime small = run_small_regime(smoke);

  // --- eq. 3.2 modeled frame time through the whole engine ---
  core::DncConfig dnc;
  dnc.processors = 2;
  dnc.pipes = 1;
  dnc.raster_algorithm = render::RasterAlgorithm::kReference;
  const auto ref_rates = bench::measure_rates(r.workload, dnc, 1);
  dnc.raster_algorithm = render::RasterAlgorithm::kSpan;
  const auto span_rates = bench::measure_rates(r.workload, dnc, 1);
  std::printf("  modeled frame (eq. 3.2): reference %.3fs, span %.3fs, genT %0.3fs -> %0.3fs\n",
              ref_rates.stats.modeled_frame_seconds,
              span_rates.stats.modeled_frame_seconds,
              ref_rates.stats.genT_critical_seconds,
              span_rates.stats.genT_critical_seconds);

  if (!json_path.empty()) {
    bench::JsonReport report;
    report.set("bench", std::string("raster_kernel"));
    report.set("mode", std::string(smoke ? "smoke" : "full"));
    report.set("workload", r.workload.name);
    report.set("texture_width", static_cast<std::int64_t>(fb.width()));
    report.set("spots", r.workload.synthesis.spot_count);
    report.set("triangles", triangles);
    report.set("fragments", span.stats.fragments);
    report.set("frags_per_triangle",
               static_cast<double>(span.stats.fragments) /
                   static_cast<double>(triangles));
    report.set("ref.frags_per_second", ref.frags_per_second);
    report.set("ref.visited_ratio", ratio(ref.stats));
    report.set("ref.modeled_frame_seconds", ref_rates.stats.modeled_frame_seconds);
    report.set("ref.genT_critical_seconds", ref_rates.stats.genT_critical_seconds);
    report.set("span.frags_per_second", span.frags_per_second);
    report.set("span.visited_ratio", ratio(span.stats));
    report.set("span.modeled_frame_seconds",
               span_rates.stats.modeled_frame_seconds);
    report.set("span.genT_critical_seconds",
               span_rates.stats.genT_critical_seconds);
    report.set("speedup", speedup);
    report.set("max_abs_deviation",
               static_cast<double>(std::max(eq.additive_dev, eq.maximum_dev)));
    report.set("coverage_identical", eq.coverage_identical);
    report.set("gate.threshold", gate);
    report.set("gate.pass", eq.pass && speedup >= gate);
    report.set("spans.count", static_cast<std::int64_t>(span_work.spans.size()));
    report.set("spans.mean_length", span_work.mean_length);
    report.set("layer.setup_seconds", setup_seconds);
    report.set("layer.kernel_seconds", kernel_seconds);
    report.set("small.triangles", small.triangles);
    report.set("small.fragments", small.span.stats.fragments);
    report.set("small.frags_per_triangle", small.frags_per_triangle());
    report.set("small.ns_per_triangle", small.ns_per_triangle());
    report.set("small.frags_per_second", small.span.frags_per_second);
    report.set("small.narrow_share", small.narrow_share());
    report.set("small.spans.mean_length", small.spans_mean_length);
    report.set("small.layer.setup_seconds", small.setup_seconds());
    report.set("small.layer.kernel_seconds", small.kernel_seconds);
    report.set("small.max_abs_deviation",
               static_cast<double>(std::max(small.equivalence.additive_dev,
                                            small.equivalence.maximum_dev)));
    report.set("small.coverage_identical", small.equivalence.coverage_identical);
    for (const TierRate& tr : tier_rates) {
      report.set(std::string("tier.") + util::simd::tier_name(tr.tier) +
                     ".frags_per_second",
                 tr.frags_per_second);
    }
    if (have_avx2) report.set("tier.speedup", tier_speedup);
    report.set("tier.gate.threshold", tier_gate);
    report.set("tier.gate.pass", tier_pass);
    report.set("simd.tier",
               util::simd::tier_name(util::simd::active_tier()));
    report.set("simd.cpu", util::simd::cpu_flags());
    report.write(json_path);
  }

  if (!eq.pass || !small.equivalence.pass) {
    std::printf("FAIL: span/reference equivalence violated (%s workload)\n",
                eq.pass ? "small-triangle" : "ribbon");
    return 1;
  }
  if (speedup < gate) {
    std::printf("FAIL: speedup %.2fx below the %.1fx gate\n", speedup, gate);
    return 1;
  }
  if (!tier_pass) {
    std::printf("FAIL: avx2 kernel speedup %.2fx below the %.1fx tier gate\n",
                tier_speedup, tier_gate);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
