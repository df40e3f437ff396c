"""The part of the library the benchmark in perfbench/ reads.

perfbench/layers.py replays every command through public calls; tier-1 does
not run that replay, so these tests resolve every pathcert name perfbench
imports and read, on a small build, each attribute and call shape it uses.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
from conftest import witness_fixture

from pathcert import (
    build_anchor_sequence,
    build_skeleton,
    build_smooth_path,
    build_sphere_cover,
    select_dominant_cone,
    select_parity,
)

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
