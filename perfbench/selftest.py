"""The benchmark's own tests.

    python3 perfbench/selftest.py            # about two minutes: includes the smoke runs

Not collected by the repository's pytest run (the file name does not
start with ``test_``), because the smoke runs take minutes.
"""

from __future__ import annotations

import ast
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
from run import METRIC_NAME, OUT  # noqa: E402

SEEDS = range(0, 40)


def private_uses(source: str) -> list[str]:
    """pathcert imports of ``_`` names or pathcert.parallel, and any ``._name`` access."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pathcert"):
            parts = node.module.split(".") + [alias.name for alias in node.names]
            found += [f"from {node.module} import {p}" for p in parts
                      if p.startswith("_") or p == "parallel"]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "pathcert" and any(p.startswith("_") or p == "parallel"
                                                  for p in parts):
                    found.append(f"import {alias.name}")
        elif isinstance(node, ast.Attribute):
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                found.append(f"attribute .{node.attr}")
    return found


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class InputTests(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            base = Path(tmp)
            first = inputs.write_inputs(3, base / "a")["paths"]
            again = inputs.write_inputs(3, base / "b")["paths"]
            other = inputs.write_inputs(4, base / "c")["paths"]
            for name in first:
                self.assertEqual(first[name].read_bytes(), again[name].read_bytes(), name)
                self.assertNotEqual(first[name].read_bytes(), other[name].read_bytes(), name)

    def test_confined_points_stay_within_the_angle(self):
        for seed in SEEDS:
            axis, points = inputs.confined_2d(seed)
            cosines = points @ axis / np.linalg.norm(points, axis=1)
            angles = np.arccos(np.clip(cosines, -1.0, 1.0))
            self.assertLessEqual(float(angles.max()), inputs.CONFINE_ANGLE + 1e-12, seed)

    def test_probe_witnesses_keep_the_field_large(self):
        for seed in SEEDS:
            for dimension in (2, 3):
                points = inputs.diagonal_jittered(seed, dimension)
                self.assertGreaterEqual(
                    float(np.abs(inputs.rational_field(points)).min()), 0.5, (seed, dimension))

    def test_witness_file_round_trips_the_points(self):
        points = inputs.spiral_5d(2)[1]
        document = json.loads(inputs.witness_text(points))
        self.assertEqual(document["dimension"], 5)
        self.assertTrue(np.array_equal(np.array([p["x"] for p in document["pairs"]]), points))
        self.assertTrue(all(0.0 < math.hypot(*p["x"]) <= 1.0 for p in document["pairs"]))


class ImportTests(unittest.TestCase):
    def test_checker_flags_private_names(self):
        self.assertTrue(private_uses("from pathcert.mollifier import _rows_chunk"))
        self.assertTrue(private_uses("from pathcert.parallel import map_ordered"))
        self.assertTrue(private_uses("import pathcert.parallel"))
        self.assertTrue(private_uses("from pathcert import geometry\ngeometry._cached_cover"))
        self.assertFalse(private_uses("from pathcert import build_path\nimport pathcert.cli"))

    def test_benchmark_imports_only_public_names(self):
        for source in sorted(BENCH.glob("*.py")):
            if source.name == "selftest.py":
                continue
            self.assertEqual(private_uses(source.read_text()), [], source.name)


class RunTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_smoke_runs_every_workload_once(self):
        proc = run_bench("--workload", "all", "--smoke", "--seed", "2")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        want = {f"{w['name']}.{m['name']}" for w in self.spec["workloads"]
                for m in self.spec["end_to_end"]}
        self.assertEqual(set(result["metrics"]), want)
        for name in result["metrics"]:
            self.assertTrue(METRIC_NAME.fullmatch(name), name)

    def test_traced_run_gives_every_per_layer_metric(self):
        proc = run_bench("--workload", "certify-2d", "--trace", "1", "--seed", "2")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in self.spec["per_layer"]})
        for name in result["metrics"]:
            self.assertTrue(METRIC_NAME.fullmatch(name), name)
        trace = json.loads((OUT / "certify-2d-s2-trace" / "trace.json").read_text())
        self.assertIn("ratio", trace["overhead"])
        self.assertTrue(trace["spans"] and trace["counts"])

    def test_without_the_program_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
            proc = run_bench("--workload", "certify-2d", "--seed", "1", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    OUT.mkdir(parents=True, exist_ok=True)
    unittest.main()
