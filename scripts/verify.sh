#!/usr/bin/env bash
# Tier-1 verification: configure + build + test in one command.
#
#   scripts/verify.sh                # Release build in ./build
#   scripts/verify.sh --tsan         # also run the concurrency suites under
#                                    # ThreadSanitizer (build-tsan, opt-in:
#                                    # the instrumented build is ~10x slower)
#   scripts/verify.sh --bench-smoke  # also run the rasterizer, incremental,
#                                    # service, tile-cache and streaming
#                                    # gates on their small workloads (exits
#                                    # nonzero if the span kernel loses its
#                                    # >=1.5x margin, or any coverage/value
#                                    # mismatch against kReference shows on
#                                    # the ribbon or small-triangle regime,
#                                    # incremental reuse loses its modeled
#                                    # speedup / bit-identity, 4 concurrent
#                                    # sessions stop beating 2x one-at-a-time
#                                    # modeled throughput, 4 same-dataset
#                                    # sessions through the shared tile store
#                                    # cost more than 1.4x one session, or
#                                    # the frame server misses its latency
#                                    # SLO / delta-bandwidth / bit-exactness
#                                    # gates under 4 streamed clients)
#   scripts/verify.sh --golden       # golden-frame mode: verifies the
#                                    # checked-in goldens exist (exits
#                                    # nonzero if missing, never skips) and
#                                    # runs only the `golden`-labelled ctest
#                                    # entries. The goldens also run as part
#                                    # of the default ctest pass; this mode
#                                    # is the quick pre-commit check after a
#                                    # rendering change.
#   scripts/verify.sh --faults       # fault-tolerance mode: runs only the
#                                    # `faults`-labelled ctest entries (the
#                                    # deterministic fault-injection matrix,
#                                    # deadline/retry/breaker machinery and
#                                    # the replay pin). The suite also runs
#                                    # in the default ctest pass and under
#                                    # --tsan/--asan; this mode is the quick
#                                    # pre-commit check after touching the
#                                    # injector, the service retry loop or
#                                    # any engine fault site.
#   scripts/verify.sh --simd-tiers   # SIMD-tier mode: runs the determinism
#                                    # and golden-frame suites once per SIMD
#                                    # tier available on this host (scalar,
#                                    # then sse2/avx2 on x86-64) by setting
#                                    # DCSN_SIMD, plus the cross-tier
#                                    # byte-equality suite (test_simd) and
#                                    # the lane-march fuzz, which sets every
#                                    # tier itself (test_spot_geometry). A
#                                    # divergent tier means an intrinsic
#                                    # kernel broke the lattice contract;
#                                    # this is the quick pre-commit check
#                                    # after touching simd_dispatch.cpp.
#   scripts/verify.sh --asan         # build-asan: Address+UndefinedBehavior
#                                    # sanitizers (-fno-sanitize-recover=all)
#                                    # and the FULL ctest suite under them
#                                    # (test_simd included — the gather/
#                                    # maskload kernels run instrumented).
#                                    # Slow; any finding is a hard failure.
#   scripts/verify.sh --analyze      # run scripts/analyze.sh: lock-lint +
#                                    # determinism lint (always), clang
#                                    # thread-safety build + negative compile
#                                    # check and clang-tidy (skip cleanly if
#                                    # clang is not installed)
#   scripts/verify.sh --format-check # analyze.sh gates + clang-format
#                                    # --dry-run -Werror diff mode
#   BUILD_DIR=out scripts/verify.sh
#   JOBS=8 scripts/verify.sh
#
# Mirrors the ROADMAP's verify line exactly; CI and pre-merge checks should
# call this script so the recipe lives in one place.
#
# Every gate runs to completion even after another fails, and the run ends
# with one line per gate: PASS, FAIL, or SKIPPED with the reason (an opt-in
# flag not given, a missing tool such as clang or an aarch64 toolchain). The
# exit status is nonzero if any gate failed.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)}"

RUN_TSAN=0
RUN_BENCH_SMOKE=0
RUN_GOLDEN_ONLY=0
RUN_FAULTS_ONLY=0
RUN_SIMD_TIERS=0
RUN_ASAN=0
RUN_ANALYZE=0
RUN_FORMAT_CHECK=0
for arg in "$@"; do
  case "$arg" in
    --tsan) RUN_TSAN=1 ;;
    --bench-smoke) RUN_BENCH_SMOKE=1 ;;
    --golden) RUN_GOLDEN_ONLY=1 ;;
    --faults) RUN_FAULTS_ONLY=1 ;;
    --simd-tiers) RUN_SIMD_TIERS=1 ;;
    --asan) RUN_ASAN=1 ;;
    --analyze) RUN_ANALYZE=1 ;;
    --format-check) RUN_ANALYZE=1; RUN_FORMAT_CHECK=1 ;;
    *) echo "unknown argument: $arg (supported: --tsan, --bench-smoke, --golden, --faults, --simd-tiers, --asan, --analyze, --format-check)" >&2; exit 2 ;;
  esac
done

# --- gate bookkeeping: one summary line per gate, printed at the end ---
SUMMARY=()
FAILURES=0
record() {  # record STATUS NAME [REASON]
  local line
  line=$(printf '%-8s %s' "$1" "$2")
  [[ $# -ge 3 ]] && line+=" ($3)"
  SUMMARY+=("$line")
  [[ "$1" == FAIL ]] && FAILURES=$((FAILURES + 1))
  return 0
}
# run_gate NAME COMMAND...: runs the command in a subshell with errexit on,
# so its first failing step fails the gate but not the remaining gates.
run_gate() {
  local name=$1
  shift
  local rc=0
  set +e
  (set -e; "$@")
  rc=$?
  set -e
  if [[ "$rc" -eq 0 ]]; then record PASS "$name"; else record FAIL "$name"; fi
}
summary_and_exit() {
  echo "== verify.sh summary =="
  printf '%s\n' "${SUMMARY[@]}"
  if [[ "$FAILURES" -gt 0 ]]; then
    echo "verify.sh: $FAILURES gate(s) failed" >&2
    exit 1
  fi
  exit 0
}

# Static-analysis gates run before the build: the lints need no compiler and
# fail fastest, and analyze.sh owns its own build trees (build-analyze). Its
# own per-gate lines (lock-lint, determinism-lint, thread-safety, clang-tidy,
# format) are folded into this script's summary.
analyze_gates() {
  echo "== static-analysis gates (scripts/analyze.sh) =="
  local log rc=0 line status
  log=$(mktemp)
  set +e
  if [[ "$RUN_FORMAT_CHECK" -eq 1 ]]; then
    scripts/analyze.sh --format-check | tee "$log"
  else
    scripts/analyze.sh | tee "$log"
  fi
  rc=${PIPESTATUS[0]}
  set -e
  while IFS= read -r line; do
    case "$line" in
      "[PASS] "*) record PASS "${line#\[PASS\] }" ;;
      "[FAIL] "*) record FAIL "${line#\[FAIL\] }" ;;
      "[SKIP] "*)
        status=${line#\[SKIP\] }
        record SKIPPED "${status%% (*}" "$(sed -e 's/^[^(]*(//' -e 's/)$//' <<<"$status")" ;;
    esac
  done < <(sed -n '/^== summary ==$/,$p' "$log")
  rm -f "$log"
  if [[ "$RUN_FORMAT_CHECK" -eq 0 ]]; then
    record SKIPPED "format" "opt-in: --format-check not given"
  fi
  if [[ "$rc" -ne 0 && "$FAILURES" -eq 0 ]]; then record FAIL "analyze.sh"; fi
  return 0
}
if [[ "$RUN_ANALYZE" -eq 1 ]]; then
  analyze_gates
else
  record SKIPPED "static analysis" "opt-in: --analyze not given"
fi

# Goldens must exist before the golden suite runs — fail loudly, never
# skip. Checked *after* the build so the regeneration command it recommends
# is actually runnable from a fresh checkout.
check_goldens() {
  local count
  count=$(find tests/golden -name '*.golden' 2>/dev/null | wc -l)
  if [[ "$count" -lt 1 ]]; then
    echo "ERROR: no golden frames found under tests/golden/." >&2
    echo "Generate them with: $BUILD_DIR/tests/test_golden_frames --update-goldens" >&2
    exit 1
  fi
}

cmake -B "$BUILD_DIR" -S .

golden_gate() {
  echo "== golden-frame verification (ctest -L golden) =="
  cmake --build "$BUILD_DIR" -j "$JOBS" --target test_golden_frames
  check_goldens
  (cd "$BUILD_DIR" && ctest --output-on-failure -L golden -j "$JOBS")
}

faults_gate() {
  echo "== fault-tolerance verification (ctest -L faults) =="
  cmake --build "$BUILD_DIR" -j "$JOBS" --target test_faults
  (cd "$BUILD_DIR" && ctest --output-on-failure -L faults -j "$JOBS")
}

# Per-tier determinism verification: the same pixels must fall out of every
# SIMD tier, so the determinism and golden-frame suites run once per tier
# under DCSN_SIMD. Tier availability mirrors the dispatcher's detection (sse2
# is x86-64 baseline, avx2 from the cpuinfo flag; other hosts run scalar);
# if the shell overshoots, the dispatcher warns and falls back, so an
# overshoot weakens the check rather than failing it.
simd_tier_gate() {
  local tier=$1
  echo "-- DCSN_SIMD=$tier: test_determinism"
  DCSN_SIMD="$tier" "$BUILD_DIR/tests/test_determinism" --gtest_brief=1
  echo "-- DCSN_SIMD=$tier: test_golden_frames"
  DCSN_SIMD="$tier" "$BUILD_DIR/tests/test_golden_frames" --gtest_brief=1
}
simd_tiers_gates() {
  echo "== SIMD tier verification (determinism + golden per DCSN_SIMD tier) =="
  run_gate "simd build" cmake --build "$BUILD_DIR" -j "$JOBS" --target test_determinism test_golden_frames test_simd test_spot_geometry
  run_gate "goldens present" check_goldens
  run_gate "simd tier scalar" simd_tier_gate scalar
  case "$(uname -m)" in
    x86_64|amd64)
      run_gate "simd tier sse2" simd_tier_gate sse2
      if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
        run_gate "simd tier avx2" simd_tier_gate avx2
      else
        record SKIPPED "simd tier avx2" "host CPU lacks AVX2"
      fi
      ;;
    *)
      record SKIPPED "simd tiers sse2/avx2" "not an x86-64 host"
      ;;
  esac
  echo "-- cross-tier byte equality (test_simd)"
  run_gate "simd cross-tier equality" "$BUILD_DIR/tests/test_simd" --gtest_brief=1
  echo "-- lane march vs scalar oracle on every tier (test_spot_geometry)"
  run_gate "simd lane fuzz" "$BUILD_DIR/tests/test_spot_geometry" --gtest_brief=1 \
    --gtest_filter='SpotGeometryLanes.*'
}

# The single-suite modes run only their own suite.
if [[ "$RUN_GOLDEN_ONLY" -eq 1 || "$RUN_FAULTS_ONLY" -eq 1 || "$RUN_SIMD_TIERS" -eq 1 ]]; then
  if [[ "$RUN_GOLDEN_ONLY" -eq 1 ]]; then run_gate "golden" golden_gate; fi
  if [[ "$RUN_FAULTS_ONLY" -eq 1 ]]; then run_gate "faults" faults_gate; fi
  if [[ "$RUN_SIMD_TIERS" -eq 1 ]]; then simd_tiers_gates; fi
  for gate in "tier-1 build + ctest" "bench smoke" "asan+ubsan" "tsan"; do
    record SKIPPED "$gate" "a single-suite mode was given: --golden, --faults or --simd-tiers"
  done
  summary_and_exit
fi
record SKIPPED "golden-only" "opt-in: --golden not given; the goldens run inside tier-1 ctest"
record SKIPPED "faults-only" "opt-in: --faults not given; the fault suite runs inside tier-1 ctest"
record SKIPPED "simd tiers" "opt-in: --simd-tiers not given"

tier1_gate() {
  cmake --build "$BUILD_DIR" -j "$JOBS"
  check_goldens
  (cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")
}
run_gate "tier-1 build + ctest" tier1_gate

# Small-workload runs of the gated ablations: the span-vs-reference
# rasterizer gate (>=1.5x + coverage/value equivalence on both the ribbon
# workload and the small-triangle regime) and the incremental-resynthesis
# gate (modeled speedup + bit-identity to full resynthesis). Full gates:
# scripts/bench.sh.
bench_smoke_gate() {
  cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_raster_kernel bench_incremental bench_service bench_tile_cache bench_stream
  local bench
  for bench in bench_raster_kernel bench_incremental bench_service bench_tile_cache bench_stream; do
    echo "== $bench --smoke =="
    "$BUILD_DIR/bench/$bench" --smoke
  done
}
if [[ "$RUN_BENCH_SMOKE" -eq 1 ]]; then
  run_gate "bench smoke" bench_smoke_gate
else
  record SKIPPED "bench smoke" "opt-in: --bench-smoke not given"
fi

# Full suite under ASan+UBSan with -fno-sanitize-recover=all: any heap
# error, overflow, or UB aborts the test, so a green run is a strong
# memory-safety statement. Instrumented builds are several times slower;
# the ctest timeouts (600s) still hold on one core.
asan_gate() {
  echo "== AddressSanitizer + UBSan pass (build-asan) =="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$JOBS"
  # LeakSanitizer's ptrace-based stop-the-world is refused by many container
  # runtimes (the tracer thread segfaults); heap errors and UB still abort.
  export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1 detect_leaks=0}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
  (cd build-asan && ctest --output-on-failure -j "$JOBS")
}
if [[ "$RUN_ASAN" -eq 1 ]]; then
  run_gate "asan+ubsan" asan_gate
else
  record SKIPPED "asan+ubsan" "opt-in: --asan not given"
fi

# The scheduler's cross-group stealing, the shared runtime/service, the
# engine's seam-spot fan-out (DncSynthesizer.SeamSpotsTracedOncePerFrame in
# test_synthesizers, incremental frames in test_incremental), and the
# pipe/queue machinery are the code where a data race would hide; run exactly
# those suites instrumented. gtest discovery re-runs each binary, so build
# only what we need.
TSAN_SUITES=(test_scheduling test_synthesizers test_incremental test_service test_pipe test_tile_store test_util test_faults test_net test_simd test_determinism)
tsan_gate() {
  echo "== ThreadSanitizer pass (build-tsan) =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$JOBS" --target "${TSAN_SUITES[@]}"
  # TSan needs unrestricted ptrace/ASLR handling in some containers; surface
  # a clear failure rather than a hang if the kernel refuses.
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
  local suite
  for suite in "${TSAN_SUITES[@]}"; do
    echo "-- $suite (tsan)"
    "./build-tsan/tests/$suite" --gtest_brief=1
  done
}
if [[ "$RUN_TSAN" -eq 1 ]]; then
  run_gate "tsan" tsan_gate
else
  record SKIPPED "tsan" "opt-in: --tsan not given"
fi

summary_and_exit
