#!/usr/bin/env python3
"""Self-check of the benchmark: the seed and the harness worker count
must not change what is simulated.

Run from the repository root (builds the binary on first use; takes a
few minutes, most of it in the 1-worker figure_sweep):

    python3 -m unittest perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("figure_sweep", "serve_burst", "trace_export")


def run(workload, seed, workers, trace=0):
    """Run one short benchmark run; returns (info line, result line)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--workers", str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def sim_metrics(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.startswith("sim_") and name != "sim_cycles_per_s"}


class SeedAndWorkerInvariance(unittest.TestCase):
    def test_sim_metrics_and_digest_are_invariant(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                info_a, result_a = run(workload, seed=1, workers=2)
                info_b, result_b = run(workload, seed=2, workers=1)
                for result in (result_a, result_b):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                self.assertEqual(info_a["sim_digest"], info_b["sim_digest"])
                self.assertEqual(sim_metrics(result_a), sim_metrics(result_b))


class TracedRun(unittest.TestCase):
    def test_traced_run_matches_plain_and_reports_obs_layer(self):
        info, result = run("trace_export", seed=3, workers=2, trace=1)
        self.assertTrue(result["correct"])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        self.assertGreater(metrics["obs.trace_events"], 0)
        self.assertGreater(metrics["obs.export_bytes"], 0)
        self.assertGreater(metrics["gpu.busy_step_ns"], 0)
        self.assertGreater(metrics["bench.trace_overhead_ratio"], 0)
        self.assertEqual(info["trace"], 1)


if __name__ == "__main__":
    unittest.main()
