#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/tests/test_determinism.py

With a fixed seed the generators must emit the same request text, and two
short traced runs of each closed-loop workload must report exactly equal
count metrics. A count that drifts between identical runs cannot back a
gain claim, so this check guards the per-layer counts the benchmark reports.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
import gen  # noqa: E402

SEED = 5
SECONDS = 2
# Counts that are a pure function of the request stream on a closed loop.
COUNTS = ("core.work_items", "core.seed_evals", "core.reuse_evaluated",
          "core.unified_pairs", "core.unified_shortlist", "deploy.fold_plans",
          "serve.cache_hits", "serve.sweep_cache_hits", "serve.shard_degraded")


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        check=True, capture_output=True, text=True, cwd=BENCH_DIR.parent)
    lines = proc.stdout.splitlines()
    diag = json.loads(lines[-2].split(" ", 2)[2])
    return diag, json.loads(lines[-1])


class GeneratorTest(unittest.TestCase):
    def test_streams_repeat_for_a_seed(self):
        self.assertEqual(gen.cold_stream(SEED, 200), gen.cold_stream(SEED, 200))
        self.assertEqual(gen.deploy_stream(SEED, 40), gen.deploy_stream(SEED, 40))
        self.assertEqual(gen.serve_mix(SEED, 2, 800.0, 3), gen.serve_mix(SEED, 2, 800.0, 3))
        self.assertNotEqual(gen.cold_stream(SEED, 50), gen.cold_stream(SEED + 1, 50))

    def test_cold_streams_are_distinct_and_in_band(self):
        texts = gen.cold_stream(SEED, 400)
        self.assertEqual(len(texts), len(set(texts)))
        layers = [tuple(int(x) for x in t.split("\n")[1].split()[1].split(","))
                  for t in texts]
        for i, o, r, c, k, stride, groups in layers:
            self.assertEqual(r, c)
            self.assertNotIn((i, o, r, k, stride, groups), gen.OUT_OF_BAND)


class TracedRunTest(unittest.TestCase):
    def test_counts_and_requests_repeat(self):
        for workload in ("cold_synth", "cold_deploy", "sharded_cold"):
            with self.subTest(workload=workload):
                diag_a, result_a = traced_run(workload)
                diag_b, result_b = traced_run(workload)
                self.assertTrue(result_a["correct"] and result_b["correct"])
                self.assertEqual(diag_a["request_sha256"], diag_b["request_sha256"])
                for name in COUNTS:
                    self.assertEqual(result_a["metrics"][name], result_b["metrics"][name],
                                     name)


if __name__ == "__main__":
    unittest.main()
