"""Tests of the benchmark harness's own logic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
import report  # noqa: E402
import run  # noqa: E402


class NormalizeTest(unittest.TestCase):
    def test_work_dir_is_replaced_everywhere(self):
        text = "trace artifacts built in /x/.bench_work/cold/out\n  se fig10 --traces-dir /x/.bench_work/cold/out --fast\n"
        self.assertEqual(
            report.normalize_stdout(text, Path("/x/.bench_work/cold")),
            "trace artifacts built in <WORK>/out\n  se fig10 --traces-dir <WORK>/out --fast\n",
        )

    def test_same_output_in_two_checkouts_has_one_digest(self):
        a = report.normalize_stdout("se obs summarize: /a/w/out/trace.json (5 stream(s))", "/a/w")
        b = report.normalize_stdout("se obs summarize: /b/c/w/out/trace.json (5 stream(s))", "/b/c/w")
        self.assertEqual(report.sha256(a.encode()), report.sha256(b.encode()))

    def test_other_text_is_untouched(self):
        text = "SmartExchange     500000         0      17     0.0"
        self.assertEqual(report.normalize_stdout(text, "/w"), text)


class DigestTest(unittest.TestCase):
    PINS = {"cold": {"0": {"trace_build.stdout": "aa" * 32, "vgg11.setrace": "bb" * 32}}}

    def test_matching_digests_pass(self):
        digests = dict(self.PINS["cold"]["0"])
        self.assertEqual(report.digest_failures(self.PINS, "cold", 0, digests), [])

    def test_changed_missing_and_unpinned_items_are_flagged(self):
        digests = {"trace_build.stdout": "cc" * 32, "extra.setrace": "dd" * 32}
        problems = dict(report.digest_failures(self.PINS, "cold", 0, digests))
        self.assertIn("pinned", problems["trace_build.stdout"])
        self.assertEqual(problems["vgg11.setrace"], "missing")
        self.assertEqual(problems["extra.setrace"], "not pinned")

    def test_unpinned_seed_is_not_checked_against_pins(self):
        self.assertEqual(report.digest_failures(self.PINS, "cold", 7, {"x": "y"}), [])


class StatisticsTest(unittest.TestCase):
    def test_percentile_is_nearest_rank(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(report.percentile(xs, 50), 3)
        self.assertEqual(report.percentile(xs, 95), 5)
        self.assertEqual(report.percentile(xs, 0), 1)
        self.assertEqual(report.percentile([7.5], 95), 7.5)
        with self.assertRaises(ValueError):
            report.percentile([], 50)

    def test_summary_reports_median_p95_and_count(self):
        s = report.summarize([3.0, 1.0, 2.0, 10.0])
        self.assertEqual(s, {"median": 2.5, "p95": 10.0, "count": 4})

    def test_spread_is_iqr_over_median(self):
        values = [10.0] * 5 + [11.0] * 5
        q1, _, q3 = __import__("statistics").quantiles(values, n=4)
        self.assertAlmostEqual(report.spread(values), (q3 - q1) / 10.5)
        self.assertEqual(report.spread([4.0] * 10), 0.0)


class MetricNamesTest(unittest.TestCase):
    SPECS = [{"name": "wall_s", "unit": "s"}, {"name": "setup_s", "unit": "s"}]

    def test_exact_set_renders_the_result_line(self):
        line = report.result_line(True, 3, 0, {"wall_s": 1.25, "setup_s": 0.5}, self.SPECS)
        doc = json.loads(line)
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(doc["metrics"]["wall_s"], {"value": 1.25, "unit": "s"})
        self.assertEqual((doc["correct"], doc["attempted"], doc["failed"]), (True, 3, 0))

    def test_missing_metric_fails_loudly(self):
        with self.assertRaisesRegex(ValueError, r"missing \['setup_s'\]"):
            report.result_line(True, 1, 0, {"wall_s": 1.0}, self.SPECS)

    def test_extra_metric_fails_loudly(self):
        metrics = {"wall_s": 1.0, "setup_s": 1.0, "bogus": 2.0}
        with self.assertRaisesRegex(ValueError, r"extra \['bogus'\]"):
            report.result_line(True, 1, 0, metrics, self.SPECS)

    def test_non_finite_value_fails_loudly(self):
        with self.assertRaisesRegex(ValueError, "finite"):
            report.check_metric_names({"wall_s": float("nan")}, ["wall_s"], "reported")

    def test_benchmark_json_lists_every_traced_metric_once(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for w in run.WORKLOADS:
            self.assertIn(f"trace.{w}.overhead", names)
            self.assertIn(f"trace.{w}.coverage", names)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class HostTest(unittest.TestCase):
    HOST = {"nproc": 2, "cpu_model": "x", "rustc": "rustc 1", "commit": "a", "se_parallelism": "2"}

    def test_other_commit_same_host_is_comparable(self):
        self.assertEqual(report.host_differences(self.HOST, dict(self.HOST, commit="b")), [])

    def test_other_host_is_reported(self):
        other = dict(self.HOST, nproc=8, se_parallelism="8")
        self.assertEqual(report.host_differences(self.HOST, other), ["nproc", "se_parallelism"])


class ChecksTest(unittest.TestCase):
    LANES = ["DianNao", "SCNN", "Cambricon-X", "Bit-pragmatic", "SmartExchange"]

    def accounting(self, verdict="ok"):
        return "".join(
            f"  {l}: accounting: 9 completed + 1 rejected + 0 lost == 10 submitted ({verdict})\n"
            for l in self.LANES
        )

    def test_cluster_accounting_needs_every_lane_ok(self):
        self.assertTrue(run.accounting_ok(self.accounting()))
        self.assertFalse(run.accounting_ok(self.accounting("VIOLATED")))
        self.assertFalse(run.accounting_ok(self.accounting().split("\n", 1)[1]))

    def test_churn_kills_at_a_third_and_restarts_at_two_thirds(self):
        self.assertEqual(run.churn(500_000), ["--kill", "1@20833333", "--restart", "1@41666667"])


@unittest.skipUnless(
    run.PINS.exists() and (run.ROOT / ".bench_build" / "release" / "se").exists(),
    "needs pins.json and a built `se` (run the benchmark once)",
)
class WrongSeedTest(unittest.TestCase):
    def test_seed_one_run_is_flagged_against_seed_zero_pins(self):
        problems = run.self_test()
        self.assertTrue(any("!= pinned" in p for p in problems), problems)


if __name__ == "__main__":
    unittest.main()
