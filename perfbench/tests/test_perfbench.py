#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py        # from the repository root

- the C++ percentile helper's unit test (stats_test);
- the quartile-spread helper spread.py uses;
- BENCHMARK.json names exactly the metrics the driver reports;
- a short run of every workload, untraced and traced, passes its checks
  and reports every metric;
- a deliberately wrong expected answer fails each workload's check.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
import spread  # noqa: E402

# Every workload provbench runs, and the ones BENCHMARK.json gates
# (recall_lineage and browse_and_recall run but are not gated; see
# README.md).
RECALL = ["recall_search", "recall_personalize", "recall_time_context",
          "recall_lineage"]
GATED = ["ingest_replay"] + RECALL[:3] + ["profile_churn"]
WORKLOADS = GATED + ["recall_lineage", "browse_and_recall"]
# Short runs: one second, and a sample floor the short run can reach.
SHORT = ["--seconds", "1", "--min-samples", "40"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def provbench(*args):
    out = subprocess.run([run.BINARY] + list(args), cwd=ROOT,
                         stdout=subprocess.PIPE, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines


class Helpers(unittest.TestCase):
    def test_stats_unit_test(self):
        binary = run.build("stats_test")
        self.assertEqual(subprocess.call([binary], cwd=ROOT), 0)

    def test_quartile_spread(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        median, q1, q3, share = spread.quartile_spread(values)
        want_q1, want_median, want_q3 = statistics.quantiles(values, n=4)
        self.assertEqual((median, q1, q3), (want_median, want_q1, want_q3))
        self.assertAlmostEqual(share, (want_q3 - want_q1) / want_median)
        self.assertEqual(spread.quartile_spread([5.0, 5.0, 5.0])[3], 0.0)

    def test_worse_by(self):
        self.assertAlmostEqual(spread.worse_by(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(spread.worse_by(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(spread.worse_by(100, 80, "higher"), 0.20)


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_metric_lists_match_benchmark_json(self):
        code, lines = provbench("--list-metrics")
        self.assertEqual(code, 0)
        listed = {"end_to_end": [], "per_layer": []}
        for line in lines:
            kind, name, unit = line.split()
            listed[kind].append((name, unit))
        s = spec()
        for kind in listed:
            self.assertEqual(listed[kind],
                             [(m["name"], m["unit"]) for m in s[kind]], kind)
        self.assertEqual([w["name"] for w in s["workloads"]], GATED)

    def check_run(self, workload, trace):
        code, lines = provbench("--workload", workload, "--seed", "2009",
                                "--trace", str(trace), *SHORT)
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"], "\n".join(lines[-20:]))
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        kind = "per_layer" if trace else "end_to_end"
        names = [m["name"] for m in spec()[kind]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_short_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, 0)
                for name in ("setup_s", "ops_per_s", "latency_ms_p50",
                             "disk_bytes_per_event"):
                    self.assertGreater(metrics[name], 0, name)

    def test_short_traced_runs(self):
        layers = {}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                layers[workload] = self.check_run(workload, 1)
        # Each workload stresses what it claims to.
        for workload in RECALL:
            self.assertEqual(layers[workload]["storage.commits"], 0, workload)
        self.assertLess(layers["recall_search"]["storage.pool_hit_ratio"],
                        layers["browse_and_recall"]["storage.pool_hit_ratio"])
        self.assertGreater(layers["ingest_replay"]["prov.publish_us_per_event"], 0)
        # Each gated recall workload times its own family's call.
        for workload, span in zip(RECALL, ["contextual", "personalize",
                                           "time_context"]):
            self.assertGreater(layers[workload]["search.%s_ms_p50" % span], 0,
                               workload)
        for workload, metrics in layers.items():
            service = [v for k, v in metrics.items() if k.startswith("service.")]
            if workload == "profile_churn":
                self.assertTrue(all(v > 0 for v in service), workload)
            else:
                self.assertTrue(all(v == 0 for v in service), workload)

    def test_wrong_answers_fail_every_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = provbench("--workload", workload, "--seed", "2009",
                                        "--trace", "0", "--corrupt-check",
                                        *SHORT)
                self.assertEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_run_py_refuses_a_tree_without_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: no result.
        import shutil
        import tempfile
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ingest_replay",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=120)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
