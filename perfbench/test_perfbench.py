#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Runs the traced run twice per workload on one seed and checks that

  * the deterministic counters repeat exactly;
  * the replay's layer table is sane: every self-time row is >= 0
    within its measured spread (IQR over passes, at least 5% of the
    round trip), the rows add up to the round trip,
    wire.codec + queue.cycle <= serve.self within its spread, and the
    daemon's stage sum <= serve.request_us <= the client's latency;

plus one short untraced run per workload (every end-to-end metric
present and positive, no failures), and that the benchmark refuses to
run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pairwise-full", "screen-short", "graph-map")
SEED = 7

DETERMINISTIC = (
    "core.events_per_cell",
    "core.fired_frac",
    "pangraph.events_per_state",
    "api.plan_miss_frac",
    "api.allocs_per_solve",
    "api.alloc_kb_per_solve",
    "wire.request_bytes",
    "wire.response_bytes",
    "serve.plans_built_per_kop",
    "serve.build_locks_per_kop",
    "serve.kernel_events_per_op",
    "serve.horizon_abort_frac",
    "serve.worker_balance",
)

STAGES = ("read", "decode", "admit", "queue_wait", "dispatch", "solve", "encode", "write")


def run(workload, trace, seconds=1, cwd=ROOT):
    """One benchmark run: (exit code, stdout lines)."""
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=900)
    return done.returncode, done.stdout.decode().splitlines()


def parse(lines):
    result = json.loads(lines[-1])
    table = None
    for line in lines:
        if line.startswith("layer-table:"):
            table = json.loads(line.split(":", 1)[1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return result, metrics, table


class TracedRun(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            cls.runs[workload] = []
            for _ in range(2):
                code, lines = run(workload, trace=1, seconds=5)
                if code != 0:
                    raise AssertionError(f"{workload} traced run exited {code}")
                cls.runs[workload].append(parse(lines))

    def test_counters_repeat_exactly(self):
        for workload, runs in self.runs.items():
            (_, first, _), (_, second, _) = runs
            for name in DETERMINISTIC:
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(first[name], second[name])

    def test_layer_table(self):
        for workload, runs in self.runs.items():
            for result, m, table in runs:
                with self.subTest(workload=workload):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    rows = {row["layer"]: row for row in table["rows"]}
                    # A self time can be ~0 (the engine's is within 3% of
                    # its kernel), so the spread it is held to is its IQR
                    # over passes or 5% of the round trip.
                    round_trip = rows["client.round_trip"]["us"]
                    for name in ("api.self", "serve.self", "client.self"):
                        row = rows[name]
                        slack = max(row["iqr_us"], 0.05 * round_trip)
                        self.assertGreaterEqual(row["us"] + slack, 0, name)
                    kernel = "pangraph.race" if workload == "graph-map" else "core.race"
                    total = sum(rows[name]["us"] for name in
                                (kernel, "api.self", "serve.self", "client.self"))
                    self.assertAlmostEqual(total, round_trip, delta=1e-3)
                    serve_self = rows["serve.self"]
                    self.assertLessEqual(
                        m["wire.codec_us"] + m["queue.cycle_us"],
                        serve_self["us"] + max(serve_self["iqr_us"], 0.05 * round_trip))
                    stage_sum = sum(m[f"serve.{s}_us"] for s in STAGES)
                    self.assertLessEqual(stage_sum, m["serve.request_us"] + 1e-9)
                    self.assertLessEqual(m["serve.request_us"], m["client.latency_us"])

    def test_screen_mix_and_routing_baselines(self):
        _, screen, _ = self.runs["screen-short"][0]
        # Nine in ten candidates are random and abort at the horizon.
        self.assertAlmostEqual(screen["serve.horizon_abort_frac"], 0.9, delta=0.02)
        _, pairwise, _ = self.runs["pairwise-full"][0]
        self.assertGreater(pairwise["api.plan_miss_frac"], 0.9)


class UntracedRun(unittest.TestCase):
    def test_end_to_end_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [m["name"] for m in json.load(f)["end_to_end"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run(workload, trace=0)
                self.assertEqual(code, 0)
                result, m, _ = parse(lines)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(sorted(m), sorted(names))
                for name in names:
                    self.assertGreater(m[name], 0, name)


class WithoutSources(unittest.TestCase):
    def test_refuses_to_run(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run("screen-short", trace=0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(any(line.startswith("{") for line in lines))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
