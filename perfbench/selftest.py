"""Fast self-test of the benchmark: each workload on a tiny subset.

    python3 perfbench/selftest.py

Checks the result line's schema, that its metric names and units are the
ones BENCHMARK.json declares, that fail_rate is 0, that two traced runs
in separate interpreters count alike, that the tracer rebinds every name
the package imports, and that the benchmark refuses to run without the
package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = 2  # instances per pass


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [
        sys.executable, str(script), "--workload", workload, "--seed", "7",
        "--seconds", "0.01", "--trace", str(trace), "--max-instances", str(TINY),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def record(workload: str, trace: int) -> dict:
    with open(HERE / "out" / f"run-{workload}-seed7-trace{trace}.json", encoding="utf-8") as fh:
        return json.load(fh)


class ResultLine(unittest.TestCase):
    def check_result(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, proc.stderr)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, proc.stderr)  # fail_rate == 0
        self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        # every end-to-end metric is printed by name with its unit
        for m in declared:
            self.assertRegex(proc.stdout, rf"{m['name']} +\S+ {m['unit']}")
        return result

    def test_end_to_end(self):
        for workload in ("corpus", "holes", "large"):
            with self.subTest(workload=workload):
                result = self.check_result(run_benchmark(workload, 0), SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_counts_repeat_across_interpreters(self):
        for workload in ("corpus", "holes", "large"):
            with self.subTest(workload=workload):
                counts = []
                for _ in range(2):
                    self.check_result(run_benchmark(workload, 1), SPEC["per_layer"])
                    rec = record(workload, 1)
                    self.assertTrue(rec["notes"]["counts_repeat"])
                    self.assertTrue((ROOT / rec["notes"]["spans"]).is_file())
                    values = rec["all_values"]
                    counts.append({k: v for k, v in values.items() if isinstance(v, int)})
                self.assertTrue(counts[0])
                self.assertEqual(counts[0], counts[1])


class Tracer(unittest.TestCase):
    def test_every_importing_module_is_rebound(self):
        import polyminor
        import workloads
        from tracer import Tracer as T

        tracer = T()
        tracer.install(also=(workloads,))
        try:
            bound = set(tracer.bindings())
            self.assertTrue(callable(polyminor.survey))  # the function, not the module
            for name in (
                "polyminor.groebner.buchberger",
                "polyminor.toric.buchberger",
                "polyminor.graphrep.buchberger",
                "polyminor.localization.buchberger",
                "polyminor.cli.buchberger",
                "polyminor.groebner.reduce",
                "polyminor.survey.survey_row",
                "polyminor.survey_row",
                "polyminor.graphrep.toric_ideal_of_map",
                "workloads.survey_row",
                "workloads.cli_main",
            ):
                self.assertIn(name, bound)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.bindings(), [])


class BareDirectory(unittest.TestCase):
    def test_refuses_without_package_source(self):
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
            bare = Path(bare)
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
            proc = run_benchmark("corpus", 0, cwd=bare, script=bare / "perfbench" / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
