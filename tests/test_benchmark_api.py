"""The part of the library the benchmark in perfbench/ reads.

perfbench/layers.py replays every command through public calls; tier-1 does
not run that replay, so these tests resolve every pathcert name perfbench
imports and read, on a small build, each attribute and call shape it uses.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import witness_fixture

from pathcert import (
    build_anchor_sequence,
    build_path,
    build_skeleton,
    build_smooth_path,
    build_sphere_cover,
    select_dominant_cone,
    select_parity,
)
from pathcert.cli import build_parser
from pathcert.geometry import DEFAULT_COVER_HALF_ANGLE

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _pathcert_imports():
    """(file, module, name) for every ``from pathcert... import name`` and
    (file, module, None) for every ``import pathcert...`` in perfbench/*.py."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pathcert"):
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name.startswith("pathcert")
                ]
    return found


def test_perfbench_imports_some_pathcert_names():
    assert {name for file, _, name in _pathcert_imports() if file == "layers.py"} >= {
        "build_path", "load_build", "run_checks", "select_parity"
    }


@pytest.mark.parametrize(
    "file, module, name",
    _pathcert_imports(),
    ids=[f"{file}-{module}-{name}" for file, module, name in _pathcert_imports()],
)
def test_every_pathcert_name_perfbench_imports_resolves(file, module, name):
    loaded = importlib.import_module(module)
    if name is not None:
        assert hasattr(loaded, name), f"{file}: {module} has no {name}"


def test_the_replay_reads_what_layers_py_reads():
    """The stage calls of ``_replay`` and the views ``_same_anchors``,
    ``_eval_rates`` and ``_probe_counts`` read, on a small 2-D build."""
    witness = witness_fixture("diagonal", 2)
    points = witness.points()
    assert points is witness.x
    assert len(witness.pairs) == len(points)
    x0, y0 = witness.pairs[0]
    assert np.array_equal(x0, witness.x[0]) and np.array_equal(y0, witness.y[0])
    cone, captured = select_dominant_cone(points, build_sphere_cover(witness.dimension))
    assert cone.axis.coords.shape == (2,)
    result = select_parity([points[i] for i in captured])
    assert isinstance(result, tuple) and len(result) == 2
    parity, _ = result
    anchors = build_anchor_sequence(witness, cone, parity, 13)
    entries = anchors.entries
    assert len(entries) == len(anchors.a)
    for entry, a, times in zip(entries, anchors.a, anchors.times.tolist()):
        assert np.array_equal(entry.a, a) and (entry.t0, entry.t1, entry.t2) == tuple(times)
    path = build_smooth_path(anchors, skeleton=build_skeleton(anchors))
    windows = path.windows
    assert [(w.lo, w.hi) for w in windows] == list(zip(path.lo.tolist(), path.hi.tolist()))


@pytest.mark.parametrize(
    "kind, dimension", [("ray", 1), ("diagonal", 2), ("cone", 3), ("spiral", 4), ("spiral", 5)]
)
def test_the_replayed_stages_agree_with_build_path(kind, dimension):
    """perfbench/layers.py's ``_replay`` rebuilds a build's stages by hand (a
    cover, ``select_dominant_cone``, ``select_parity`` on a list of captured
    rows, ``build_anchor_sequence``) and refuses to count anything, failing
    the traced run, when they disagree with ``build_path``."""
    witness = witness_fixture(kind, dimension)
    seed, k_max, half_angle = 0, 40, DEFAULT_COVER_HALF_ANGLE
    build = build_path(witness, k_max=k_max, half_angle=half_angle, seed=seed)
    points = witness.points()
    cone, captured = select_dominant_cone(
        points, build_sphere_cover(witness.dimension, half_angle, seed=seed)
    )
    parity, _ = select_parity([points[i] for i in captured])
    anchors = build_anchor_sequence(witness, cone, parity, k_max + 1)
    same = (
        np.array_equal(cone.axis.coords, build.anchors.cone.axis.coords)
        and parity == build.parity
        and anchors.matched == build.anchors.matched
        and np.array_equal(anchors.a, build.anchors.a)
        and np.array_equal(anchors.times, build.anchors.times)
    )
    assert same, (
        "build_path no longer equals the stage sequence perfbench/layers.py::_replay "
        "rebuilds, so every traced build-5d and certify-2d run would fail: such a "
        "change needs the benchmark change first"
    )


def _args_read_per_kind() -> dict[str, set[str]]:
    """Per operation kind, every ``args.<name>`` that layers.py reads in the
    functions ``run_op`` and ``run_extra`` dispatch that kind to, and in the
    module's functions those call."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reached(name, seen):
        if name in seen or name not in functions:
            return seen
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                reached(node.id, seen)
        return seen

    kinds = {}
    for dispatcher in ("run_op", "run_extra"):
        table = next(n for n in ast.walk(functions[dispatcher]) if isinstance(n, ast.Dict))
        for key, value in zip(table.keys, table.values):
            kinds.setdefault(key.value, set()).update(reached(value.id, set()))
    return {
        kind: {
            node.attr
            for name in names
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"
        }
        for kind, names in kinds.items()
    }


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, imported as the benchmark imports it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("workloads")
    for name in ("workloads", "inputs"):
        sys.modules.pop(name, None)


def test_the_parser_reads_every_benchmark_operation(tmp_path, workloads):
    """``build_parser`` parses the argv of every operation in both workloads'
    cycles, and each parsed namespace has every attribute layers.py reads
    for that kind of operation."""
    read = _args_read_per_kind()
    assert read["sample"] >= {"path", "points", "out"}
    assert read["build"] >= {"witness", "half_angle_deg", "seed", "k_max"}
    for workload in workloads.WORKLOADS:
        ops = workloads.cycle(workload, 3, tmp_path / workload / "inputs", tmp_path / workload)
        assert {op.kind for op in ops} == set(read)
        for op in ops:
            args = build_parser().parse_args(list(op.argv))
            missing = sorted(name for name in read[op.kind] if not hasattr(args, name))
            assert not missing, f"{workload} {op.label}: layers.py reads args.{missing}"
