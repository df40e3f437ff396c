"""The pipeline on random witness data, and how its cost grows with the points."""

import sys

import pytest
from conftest import random_witness_data
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pathcert import geometry, pipeline
from pathcert.errors import InputError, PipelineError
from pathcert.generators import GeneratorSpec, generate_points
from pathcert.pipeline import build_path
from pathcert.skeleton import WitnessSequence
from pathcert.verifier import run_checks

STAGES = ("cover", "cone", "parity", "anchors", "skeleton", "mollify")


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    dimension=st.integers(1, 5),
    count=st.integers(2, 60),
    spread=st.floats(0.0, 1.2),
    y_kind=st.sampled_from(["radial", "tangent", "halfspace"]),
    size=st.sampled_from([0.5, 1.0, 30.0]),
    k_max=st.integers(2, 12),
)
def test_random_witness_data_builds_a_checked_path_or_names_the_stage(
    seed, dimension, count, spread, y_kind, size, k_max
):
    """Witness data in d = 1..5 with any admissible y either builds a path
    that passes interpolation, envelope and coincidence, or fails with an
    InputError or a PipelineError that names its stage."""
    if dimension == 1 and y_kind == "tangent":
        y_kind = "halfspace"  # no unit y is orthogonal to x on a line
    points, directions = random_witness_data(seed, dimension, count, spread, y_kind, size)
    try:
        build = build_path(WitnessSequence.ingest(points, directions), k_max=k_max)
    except PipelineError as exc:
        assert exc.stage in STAGES and f"stage '{exc.stage}'" in str(exc)
        event(f"failed at stage {exc.stage}")
        return
    except InputError as exc:
        assert str(exc)
        event("rejected as input")
        return
    event(f"built in dimension {dimension}")
    reports = run_checks(build.path, build.anchors, ["interpolation", "envelope", "coincidence"])
    assert [r.name for r in reports if not r.passed] == []


def _count_calls(monkeypatch, names):
    """Count calls of geometry's named functions, wherever pathcert imported them."""
    originals = {name: getattr(geometry, name) for name in names}
    counts = dict.fromkeys(names, 0)
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "pathcert"]
    for name, original in originals.items():

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_scalar_norm_and_shell_calls_do_not_grow_with_the_points(monkeypatch):
    """``ingest`` and ``build_path`` call the scalar vector_norm and
    shell_index as often for 400 points as for 40: no stage loops over the
    points with them."""
    counts = _count_calls(monkeypatch, ("vector_norm", "shell_index"))
    used = []
    for count in (40, 400):
        spec = GeneratorSpec(kind="diagonal", dimension=2, count=count, start=0.45, stop=0.1)
        before = dict(counts)
        build = build_path(WitnessSequence.ingest(generate_points(spec)), k_max=4)
        assert len(build.anchors.matched) == 5  # every anchor matched either way
        used.append({name: counts[name] - before[name] for name in counts})
    assert used[0] == used[1]
    assert used[0]["shell_index"] == 0
    assert used[0]["vector_norm"] < 40


def test_k_max_outside_its_range_is_rejected_before_the_cover(monkeypatch):
    """build_path, and so the probe, refuse a K above MAX_K_MAX (or below 2)
    before any stage runs; the cap itself builds, and k_max is read back
    from the anchors."""
    witness = WitnessSequence.ingest(generate_points(GeneratorSpec(kind="diagonal", dimension=2)))

    def no_cover(*args, **kwargs):
        raise AssertionError("built a cover")

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "build_sphere_cover", no_cover)
        for k_max in (10**12, pipeline.MAX_K_MAX + 1, 1):
            with pytest.raises(InputError, match=f"k_max must lie in 2..{pipeline.MAX_K_MAX}"):
                build_path(witness, k_max=k_max)
    build = build_path(witness, k_max=pipeline.MAX_K_MAX)
    assert build.k_max == len(build.anchors.a) - 1 == pipeline.MAX_K_MAX


@pytest.mark.parametrize("dimension", [2, 3])
def test_a_negative_seed_is_bad_input_of_the_cover_stage(dimension):
    """A 2-D build ignores its seed but still refuses a negative one, and a 3-D
    build refuses it as bad input, not a pipeline failure."""
    witness = WitnessSequence.ingest(
        generate_points(GeneratorSpec(kind="diagonal", dimension=dimension))
    )
    with pytest.raises(InputError, match="stage 'cover': seed must be a non-negative integer"):
        build_path(witness, k_max=12, seed=-1)
