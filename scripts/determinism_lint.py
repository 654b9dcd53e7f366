#!/usr/bin/env python3
"""Determinism lint for the dcsn synthesis core (src/core + src/render).

PR 4 made every frame a pure function of its inputs: contributions snap to a
2^-17 lattice (util::simd::quantize_contribution), so accumulation order —
worker interleaving, steal schedules, session multiplexing — cannot show in
the pixels. Three textual rules keep that property from regressing:

  D1  no nondeterministic random sources: std::rand / srand /
      std::random_device / std::mt19937 / std::default_random_engine /
      std::uniform_*_distribution in src/core or src/render. Spot layouts
      come from the deterministic seeded generator in core/spot_params.
      No waiver — if you think you need one, you are breaking the
      golden-frame suite.
  D2  no wall-clock reads (steady_clock / system_clock /
      high_resolution_clock / ::now()) outside util/stopwatch.hpp unless the
      line (or the line above) carries a `// determinism:` comment saying why
      the read cannot affect pixels (timing models, scheduling gates, stats).
  D3  in the accumulation hot files (rasterizer.cpp, framebuffer.cpp)
      and the SIMD kernel files (src/util/simd*), an
      indexed/pointer float `+=` must sit within a few lines of a
      util::simd lattice helper (quantize_contribution or a util::simd::
      call) — raw unquantized accumulation is how order dependence sneaks
      back in. Stats/counter names are exempt.
      waiver: `// determinism:` comment on the line or the line above.
  D4  in the SIMD kernel files, an intrinsic float add
      (_mm_add_ps / _mm256_add_ps / vaddq_f32) must have a quantize
      reference (quantize128/quantize256/quantize_neon/quantize_contribution)
      within a few lines — the vector tiers carry the same lattice contract
      as the scalar expression, and an unquantized vector accumulation is
      invisible to D3's `+=` pattern.
      waiver: `// determinism:` comment on the line or the line above.

Exit status: 0 clean, 1 violations, 2 usage error.

  scripts/determinism_lint.py [--root DIR]   lint DIR/src/{core,render} and
                                             DIR/src/util/simd*
  scripts/determinism_lint.py --self-test    run against tests/lint_fixtures
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

RANDOM_SOURCE = re.compile(
    r"std::(rand|srand|random_device|mt19937(?:_64)?|default_random_engine|"
    r"minstd_rand0?|uniform_(?:int|real)_distribution|normal_distribution)\b"
    r"|\brand\s*\(\s*\)"
)
WALL_CLOCK = re.compile(
    r"(?:steady_clock|system_clock|high_resolution_clock)\b|::now\s*\("
)
WAIVER = re.compile(r"//\s*determinism:")
# Indexed or pointer-target float accumulation: row[x] += v, *ptr += v,
# frag[k] += v. Plain `name += v` (locals, counters) is not flagged.
ACCUMULATION = re.compile(r"(?:\]|\*\s*\w+)\s*\+=")
LATTICE_HELPER = re.compile(r"quantize_contribution|util::simd::|simd::add")
# Accumulation targets that are bookkeeping, not pixels.
STATS_LHS = re.compile(
    r"\b(stats|sum|sum_sq|fragments|visited|pixels_touched|count|total|"
    r"seconds|genP|genT|bytes)\w*\s*(?:\[[^\]]*\])?\s*\+="
)
ACCUM_FILES = {"rasterizer.cpp", "framebuffer.cpp"}
ACCUM_CONTEXT_LINES = 6
# Intrinsic float adds in the explicit-SIMD kernel files (rule D4). Integer
# adds (_mm256_add_epi32 etc.) are position arithmetic and exempt.
INTRINSIC_ADD = re.compile(r"_mm256_add_ps|_mm_add_ps|vaddq_f32")
KERNEL_QUANTIZE = re.compile(
    r"quantize(?:128|256|_neon|_contribution|_span)")
# D4 looks a few lines DOWN as well: the fused samplers compute a lerp and
# quantize the result on the following lines.
D4_DOWN_LINES = 3


class Violation:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule, self.path, self.line, self.message = rule, path, line, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(line: str) -> str:
    return line.split("//", 1)[0]


def has_waiver(lines: list[str], idx: int) -> bool:
    """Waivers cover their own line and the statement directly below the
    comment block they open — scan upward through contiguous comments."""
    if idx < len(lines) and WAIVER.search(lines[idx]):
        return True
    j = idx - 1
    while j >= 0 and lines[j].lstrip().startswith("//"):
        if WAIVER.search(lines[j]):
            return True
        j -= 1
    return False


def is_kernel_file(path: Path) -> bool:
    return path.name.startswith("simd")


def check_file(path: Path) -> list[Violation]:
    lines = path.read_text(encoding="utf-8").splitlines()
    violations: list[Violation] = []
    name = path.name
    kernel = is_kernel_file(path)

    for idx, line in enumerate(lines):
        code = strip_comments(line)

        if RANDOM_SOURCE.search(code):
            violations.append(Violation(
                "D1", path, idx + 1,
                "nondeterministic random source in the synthesis core — use "
                "the seeded generator in core/spot_params (no waiver)"))

        if WALL_CLOCK.search(code) and not has_waiver(lines, idx):
            violations.append(Violation(
                "D2", path, idx + 1,
                "wall-clock read without a `// determinism:` comment "
                "explaining why it cannot affect pixels"))

        if (name in ACCUM_FILES or kernel) and ACCUMULATION.search(code):
            if STATS_LHS.search(code):
                continue
            lo = max(0, idx - ACCUM_CONTEXT_LINES)
            context = "\n".join(lines[lo:idx + 1])
            if LATTICE_HELPER.search(context) or has_waiver(lines, idx):
                continue
            violations.append(Violation(
                "D3", path, idx + 1,
                "indexed float accumulation with no lattice quantization in "
                "sight — contributions must go through "
                "util::simd::quantize_contribution (waiver: `// determinism:`)"))

        if kernel and INTRINSIC_ADD.search(code):
            lo = max(0, idx - ACCUM_CONTEXT_LINES)
            hi = min(len(lines), idx + 1 + D4_DOWN_LINES)
            context = "\n".join(lines[lo:hi])
            if KERNEL_QUANTIZE.search(context) or has_waiver(lines, idx):
                continue
            violations.append(Violation(
                "D4", path, idx + 1,
                "intrinsic float add with no quantize in sight — vector "
                "accumulation must stay on the contribution lattice "
                "(waiver: `// determinism:`)"))
    return violations


def lint_tree(root: Path) -> list[Violation]:
    files: list[Path] = []
    for sub in ("src/core", "src/render"):
        base = root / sub
        if base.is_dir():
            files.extend(sorted(base.rglob("*.hpp")))
            files.extend(sorted(base.rglob("*.cpp")))
    util = root / "src/util"
    if util.is_dir():
        files.extend(p for p in sorted(util.iterdir())
                     if p.suffix in (".hpp", ".cpp") and is_kernel_file(p))
    violations: list[Violation] = []
    for path in files:
        violations.extend(check_file(path))
    return violations


def self_test(root: Path) -> int:
    fixtures = root / "tests" / "lint_fixtures"
    good = lint_tree(fixtures / "good_tree")
    bad = lint_tree(fixtures / "bad_tree")
    ok = True
    if good:
        ok = False
        print("determinism_lint self-test FAILED: good_tree should be clean:")
        for v in good:
            print(f"  {v}")
    expected = {"D1", "D2", "D3", "D4"}
    seen = {v.rule for v in bad}
    if seen != expected:
        ok = False
        print(f"determinism_lint self-test FAILED: bad_tree should trip "
              f"{sorted(expected)}, tripped {sorted(seen)}:")
        for v in bad:
            print(f"  {v}")
    print(f"determinism_lint self-test: {'PASS' if ok else 'FAIL'} "
          f"(good_tree: {len(good)} violations, bad_tree rules: {sorted(seen)})")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test(REPO)

    violations = lint_tree(args.root)
    for v in violations:
        print(v)
    if violations:
        print(f"determinism_lint: {len(violations)} violation(s)")
        return 1
    print("determinism_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
