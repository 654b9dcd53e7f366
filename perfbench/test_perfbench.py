"""The benchmark's own tests: seeded inputs and the trace export.

python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds frame_bench through run.py on first use (see README.md).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's entry point, imported for its helpers)

# inputs_hash for seed 1. A change here means every recorded baseline was
# measured on different inputs: rebaseline before comparing.
PINNED_SEED1 = {
    "steer": "3561f5ab872ef5c2",
    "animate": "f854c21f67cc25ea",
    "browse": "445dde30a1afc5c3",
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def inputs_hash(workload, seed):
    out = subprocess.run(
        [str(run.BINARY), "--workload", workload, "--seed", str(seed), "--inputs-only"],
        check=True, capture_output=True, text=True).stdout
    fields = dict(f.split("=", 1) for f in out.split()[1:] if "=" in f)
    return fields["inputs_hash"]


def run_bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    return proc, json.loads(proc.stdout.splitlines()[-1])


class SeededInputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_same_inputs(self):
        for workload in PINNED_SEED1:
            self.assertEqual(inputs_hash(workload, 5), inputs_hash(workload, 5))

    def test_seed_changes_inputs(self):
        for workload in PINNED_SEED1:
            self.assertNotEqual(inputs_hash(workload, 1), inputs_hash(workload, 2))

    def test_pinned_seed1(self):
        for workload, expected in PINNED_SEED1.items():
            self.assertEqual(inputs_hash(workload, 1), expected, workload)


class TraceExport(unittest.TestCase):
    def test_traced_run_reports_layers_and_a_consistent_trace(self):
        proc, result = run_bench("browse", 3, 2, 1)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in BENCHMARK["per_layer"]})
        trace = run.ROOT / ".bench_build" / "trace-browse-3.json"
        self.assertEqual(run.check_trace(trace), [])
        doc = json.loads(trace.read_text(encoding="utf-8"))
        tids = {e["tid"] for e in doc["traceEvents"]}
        self.assertEqual(len(tids), 4)
        frames = [e for e in doc["traceEvents"] if e["name"] == "frame"]
        self.assertEqual(len(frames), result["metrics"]["trace.frames"]["value"])

    def test_check_trace_rejects_a_missing_row_and_a_wrong_sum(self):
        good = {"metadata": {"rows": run.ADDITIVE_ROWS}, "traceEvents": [
            {"name": "frame", "ph": "X", "tid": 0, "ts": 0, "dur": 13.0,
             "args": {"frame": 7, "residual_us": 1.0}}] + [
            {"name": r, "ph": "X", "tid": 0, "ts": 0, "dur": 1.0, "args": {"frame": 7}}
            for r in run.ADDITIVE_ROWS]}
        path = run.ROOT / ".bench_build" / "trace-selftest.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(good), encoding="utf-8")
        self.assertEqual(run.check_trace(path), [])
        missing = json.loads(json.dumps(good))
        missing["traceEvents"].pop()
        path.write_text(json.dumps(missing), encoding="utf-8")
        self.assertTrue(run.check_trace(path))
        wrong = json.loads(json.dumps(good))
        wrong["traceEvents"][0]["dur"] = 14.0
        path.write_text(json.dumps(wrong), encoding="utf-8")
        self.assertTrue(run.check_trace(path))
        path.unlink()


class EndToEnd(unittest.TestCase):
    def test_untraced_run_reports_every_end_to_end_metric(self):
        proc, result = run_bench("browse", 4, 2, 0)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in BENCHMARK["end_to_end"]})
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(result["metrics"][m["name"]]["value"], 0)


if __name__ == "__main__":
    unittest.main()
