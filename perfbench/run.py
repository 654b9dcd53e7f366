#!/usr/bin/env python3
"""Builds and runs the end-to-end frame benchmark.

usage: python3 perfbench/run.py --workload steer|animate|browse --seed N
                                --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and builds
perfbench/ (the dcsn library plus frame_bench) in Release mode under
.bench_build/; later runs only re-check the build. The last line of standard
output is the benchmark's JSON result. With --trace 1 the run also writes a
Chrome trace-event file under .bench_build/ and checks it here: every traced
frame carries each additive row exactly once, and the rows plus the residual
equal the frame total.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "frame_bench"
RUN_TIMEOUT_S = 170

ADDITIVE_ROWS = [
    "protocol.submit_encode",
    "socket.submit",
    "protocol.submit_decode",
    "service.queue_wait",
    "engine.frame",
    "service.overhead",
    "delta.diff",
    "delta.dirty",
    "protocol.tile_encode",
    "socket.frame",
    "protocol.tile_decode",
    "client.verify",
]


def build():
    """Configures (once) and builds frame_bench; build logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "frame_bench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def check_trace(path):
    """Returns a list of problems with the Chrome trace at `path`."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    problems = []
    if doc.get("metadata", {}).get("rows") != ADDITIVE_ROWS:
        problems.append("trace metadata does not list the additive rows")
    frames = {}
    rows = {}
    for event in doc["traceEvents"]:
        if event.get("ph") != "X":
            problems.append(f"unexpected event phase {event.get('ph')!r}")
            continue
        frame = event["args"]["frame"]
        if event["name"] == "frame":
            if frame in frames:
                problems.append(f"frame {frame} traced twice")
            frames[frame] = event
        else:
            rows.setdefault(frame, []).append(event)
    if not frames:
        problems.append("trace holds no frames")
    for frame, total in frames.items():
        names = [e["name"] for e in rows.get(frame, [])]
        if sorted(names) != sorted(ADDITIVE_ROWS):
            problems.append(f"frame {frame}: rows {sorted(names)}")
            continue
        if any(e["tid"] != total["tid"] for e in rows[frame]):
            problems.append(f"frame {frame}: rows on another client's tid")
        summed = sum(e["dur"] for e in rows[frame]) + total["args"]["residual_us"]
        if abs(summed - total["dur"]) > 1e-6 * max(1.0, total["dur"]):
            problems.append(
                f"frame {frame}: rows + residual = {summed} us, total {total['dur']} us")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["steer", "animate", "browse"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    trace_path = ROOT / ".bench_build" / f"trace-{args.workload}-{args.seed}.json"
    socket_path = os.path.join(".bench_build", f"fb-{os.getpid()}.sock")
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-out", str(trace_path), "--socket", socket_path]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: frame_bench timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    if not lines:
        print(f"run.py: frame_bench printed nothing (exit {proc.returncode})", file=sys.stderr)
        return 3
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        print(f"run.py: frame_bench exited {proc.returncode} without a result",
              file=sys.stderr)
        return 3

    if args.trace == 1 and result["correct"]:
        problems = check_trace(trace_path)
        for p in problems[:10]:
            print(f"# trace check: {p}")
        if problems:
            result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
