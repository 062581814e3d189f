"""Tests of the benchmark itself (standard library only).

    python3 -m unittest discover -s bench -p 'test_*.py'

Every workload completes a pass at tiny sizes with every op checked, and
each check rejects a planted wrong output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import tempfile
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path and imports rankfn)
import workloads  # noqa: E402


def run_bench(workload: str, trace: int, root: Path = BENCH.parent) -> dict:
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--tiny", "--label", f"selftest-{workload}"]
    got = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    assert got.returncode == 0, got.stderr
    return json.loads(got.stdout.strip().splitlines()[-1])


def program(op: dict) -> tuple[int, bytes, bytes]:
    _, code, out, err = worker.run_in_process(op)
    return code, out, err


class TinyPasses(unittest.TestCase):
    def test_every_workload_passes_untraced(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                result = run_bench(w, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]),
                                 {"setup_s", "run_s", "op_p50_ms", "peak_rss_mib"})
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_run_reports_every_layer_metric(self):
        result = run_bench("closure-geometry", 1)
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]), [n for n, _ in tracing.metric_names()])
        self.assertGreater(result["metrics"]["geometry.maximal_elements.calls"]["value"], 0)
        self.assertGreater(result["metrics"]["geometry.rm_leq.calls"]["value"], 0)
        self.assertGreater(result["metrics"]["cli.main.calls"]["value"], 0)

    def test_benchmark_json_lists_the_layer_metrics(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], tracing.metric_names())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.build(w, 3), workloads.build(w, 3))
            self.assertNotEqual(workloads.build(w, 3), workloads.build(w, 4))


class PlantedFaults(unittest.TestCase):
    def assert_rejected(self, op, code, out, err=b"", kind=checks.Wrong):
        with self.assertRaises(kind):
            checks.check(op, code, out, err)

    def test_dropped_component(self):
        op = workloads.cli("components", "--n", 7, "--k", 3)
        code, out, err = program(op)
        checks.check(op, code, out, err)
        doc = json.loads(out)
        self.assertGreater(doc["count"], 1)
        doc["components"].pop()
        doc["dimensions"].pop()
        doc["count"] -= 1
        self.assert_rejected(op, code, json.dumps(doc).encode())

    def test_dimension_off_by_one(self):
        op = workloads.cli("components", "--n", 9, "--k", 2, "--f", "square")
        code, out, err = program(op)
        checks.check(op, code, out, err)
        doc = json.loads(out)
        doc["components"][0]["dimension"] += 1
        doc["dimensions"][0] += 1
        self.assert_rejected(op, code, json.dumps(doc).encode())

    def test_enumerate_tuple_missing(self):
        op = workloads.cli("enumerate", "--n", 8, "--k", 2)
        code, out, err = program(op)
        checks.check(op, code, out, err)
        doc = json.loads(out)
        del doc["tuples"][3], doc["rank_matrices"][3]
        self.assert_rejected(op, code, json.dumps(doc).encode())

    def test_search_wrong_solution(self):
        op = workloads.cli("search", "--n", 8, "--k", 2, "--f", "square", "--g", "square")
        code, out, err = program(op)
        checks.check(op, code, out, err)
        doc = json.loads(out)
        doc["solutions"][0]["rhs"]["nilp"] = [8]
        self.assert_rejected(op, code, json.dumps(doc).encode())

    def test_hasse_extra_edge(self):
        op = workloads.cli("hasse", "--n", 6)
        code, out, err = program(op)
        checks.check(op, code, out, err)
        planted = out.decode().replace("}\n", '  "1,1,1,1,1,1" -> "6";\n}\n')
        self.assert_rejected(op, code, planted.encode())

    def test_wrong_rank_in_oracle_replay(self):
        op = {"replay": {"parts": [3, 2, 1], "q": 1, "jseed": 5, "cseed": 9}}
        code, out, err = program(op)
        checks.check(op, code, out, err)
        doc = json.loads(out)
        doc["ranks"][2] += 1
        self.assert_rejected(op, code, json.dumps(doc).encode())
        doc = json.loads(out)
        doc["matrix"][0][0] = str(int(doc["matrix"][0][0].split("/")[0]) + 1)
        self.assert_rejected(op, code, json.dumps(doc).encode())

    def test_oracle_verify_discrepancy(self):
        op = workloads.cli("oracle-verify", "--max-n", 3, "--seeds", 1, "--seed", 4)
        code, out, err = program(op)
        checks.check(op, code, out, err)
        doc = json.loads(out)
        doc["cases"] -= 1
        self.assert_rejected(op, code, json.dumps(doc).encode())

    def test_wrong_exit_code(self):
        op = workloads.cli("rank", "--jp", "3,x", expect=1, error="InvalidPartition")
        code, out, err = program(op)
        checks.check(op, code, out, err)
        self.assert_rejected(op, 0, b"[3]\n", b"", kind=checks.Failed)
        self.assert_rejected(op, code, out, b"Traceback (most recent call last):\n",
                             kind=checks.Failed)
        good = workloads.cli("rank", "--jp", "3,1")
        self.assert_rejected(good, 1, b"", b'{"error": "ValueError", "detail": ""}\n',
                             kind=checks.Failed)

    def test_run_counts_failed_ops_and_wrong_answers(self):
        ok, refused = workloads.cli("rank", "--jp", "3,1"), workloads.cli("rank", "--jp", "2,1")
        one_pass = [({"op": 0, "code": 0}, b"[4, 2, 0, 0, 0]\n", b""),
                    ({"op": 1, "code": 1}, b"", b'{"error": "ValueError", "detail": ""}\n')]
        failed, notes = run.check_all([ok, refused], [one_pass, one_pass])
        self.assertEqual(failed, 2)
        self.assertEqual(sorted(n.split(":")[0] for n in notes), ["failed", "wrong"])

    def test_op_that_raises_is_counted_as_failed(self):
        # a copy of the checkout whose hasse_dot raises for n = 7, which the
        # tiny closure-geometry pass requests once
        with tempfile.TemporaryDirectory(dir=BENCH / "results") as tmp:
            root = Path(tmp)
            for part in ("bench", "src", "docs"):
                shutil.copytree(BENCH.parent / part, root / part,
                                ignore=shutil.ignore_patterns("results", "__pycache__"))
            geometry = root / "src" / "rankfn" / "geometry.py"
            geometry.write_text(geometry.read_text() + (
                "\n_hasse_dot = hasse_dot\n\n\n"
                "def hasse_dot(n):\n"
                "    if n == 7:\n"
                "        raise RuntimeError('planted fault')\n"
                "    return _hasse_dot(n)\n"))
            result = run_bench("closure-geometry", 0, root)
        self.assertEqual(result["failed"], 1)
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], len(workloads.build("closure-geometry", 7, True)))

    def test_wrong_error_name(self):
        op = workloads.cli("hasse", "--n", 22, expect=1, error="BudgetExceeded")
        code, out, err = program(op)
        checks.check(op, code, out, err)
        self.assert_rejected(op, code, out, b'{"error": "ValueError", "detail": "x"}\n')


if __name__ == "__main__":
    unittest.main()
