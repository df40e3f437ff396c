"""Serialization round trips for witness, path, sample, and report files."""

import json
import os

import numpy as np
import pytest
from conftest import random_witness_data
from hypothesis import event, given, reject, settings
from hypothesis import strategies as st

from pathcert.errors import InputError, PipelineError
from pathcert.generators import GeneratorSpec, generate_points
from pathcert.harness import ProbeReport
from pathcert.mollifier import dense_grid, eval_smooth_many, sample_path
from pathcert.pathfile import (
    atomic_write_text,
    build_from_dict,
    build_to_dict,
    load_build,
    load_witness,
    probe_to_json,
    reports_to_json,
    samples_to_csv,
    save_build,
    tail_to_csv,
    witness_from_dict,
)
from pathcert.pipeline import build_path
from pathcert.skeleton import WitnessSequence
from pathcert.verifier import CheckReport


def test_witness_from_pairs_without_directions():
    data = {"dimension": 2, "pairs": [{"x": [0.4, 0.0]}, {"x": [0.0, 0.2]}]}
    witness = witness_from_dict(data)
    assert witness.dimension == 2
    assert len(witness.pairs) == 2
    x0, y0 = witness.pairs[0]
    assert np.allclose(x0, [0.4, 0.0])
    # default direction is radial
    assert np.allclose(y0, [1.0, 0.0], atol=1e-15)


def test_witness_from_pairs_with_directions():
    data = {
        "dimension": 2,
        "pairs": [
            {"x": [0.4, 0.0], "y": [0.0, 1.0]},
            {"x": [0.2, 0.0], "y": [1.0, 0.0]},
        ],
    }
    witness = witness_from_dict(data)
    assert np.allclose(witness.pairs[0][1], [0.0, 1.0])


def test_witness_from_generator_matches_direct_generation():
    data = {
        "dimension": 2,
        "generator": {"kind": "diagonal", "count": 20, "stop": 0.05},
    }
    witness = witness_from_dict(data)
    spec = GeneratorSpec(kind="diagonal", dimension=2, count=20, stop=0.05)
    expected = WitnessSequence.ingest(generate_points(spec))
    assert len(witness.pairs) == 20
    for (xa, ya), (xb, yb) in zip(witness.pairs, expected.pairs):
        assert np.array_equal(xa, xb)
        assert np.array_equal(ya, yb)


def test_witness_document_validation():
    with pytest.raises(InputError):
        witness_from_dict([1, 2, 3])
    with pytest.raises(InputError, match="dimension"):
        witness_from_dict({"pairs": [{"x": [0.1]}]})
    with pytest.raises(InputError, match="positive integer"):
        witness_from_dict({"dimension": "2", "pairs": [{"x": [0.1, 0.1]}]})
    with pytest.raises(InputError, match="exactly one"):
        witness_from_dict({"dimension": 2})
    with pytest.raises(InputError, match="exactly one"):
        witness_from_dict(
            {"dimension": 2, "pairs": [{"x": [0.1, 0.1]}], "generator": {"kind": "ray"}}
        )
    with pytest.raises(InputError, match="unknown generator keys"):
        witness_from_dict(
            {"dimension": 2, "generator": {"kind": "ray", "seed": 3}}
        )
    with pytest.raises(InputError, match="kind"):
        witness_from_dict({"dimension": 2, "generator": {"count": 5}})
    with pytest.raises(InputError, match="non-empty"):
        witness_from_dict({"dimension": 2, "pairs": []})
    with pytest.raises(InputError, match="'x' key"):
        witness_from_dict({"dimension": 2, "pairs": [{"y": [1.0, 0.0]}]})
    with pytest.raises(InputError, match="every pair"):
        witness_from_dict(
            {
                "dimension": 2,
                "pairs": [{"x": [0.4, 0.0], "y": [1.0, 0.0]}, {"x": [0.2, 0.0]}],
            }
        )


def test_load_witness_rejects_bad_file(tmp_path):
    target = tmp_path / "witness.json"
    with pytest.raises(InputError, match="cannot read"):
        load_witness(str(target))
    target.write_text("{not json")
    with pytest.raises(InputError, match="not valid JSON"):
        load_witness(str(target))


def test_build_round_trip_is_bitwise(tmp_path, diagonal_build):
    target = tmp_path / "path.json"
    save_build(str(target), diagonal_build)
    loaded = load_build(str(target))

    assert loaded.witness is None
    assert loaded.k_max == diagonal_build.k_max
    assert loaded.seed == diagonal_build.seed
    assert loaded.half_angle == diagonal_build.half_angle
    assert loaded.cover_size == diagonal_build.cover_size
    assert loaded.parity == diagonal_build.parity
    assert loaded.anchors.matched == diagonal_build.anchors.matched
    for name in ("a", "b", "times", "given"):
        got, want = getattr(loaded.anchors, name), getattr(diagonal_build.anchors, name)
        assert got.shape == want.shape and np.array_equal(got, want)

    ts = dense_grid(diagonal_build.path, per_decade=128, per_window=8)
    assert np.array_equal(
        eval_smooth_many(loaded.path, ts),
        eval_smooth_many(diagonal_build.path, ts),
    )


_random_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "dimension": st.integers(1, 5),
        "spread": st.floats(0.0, 0.3),
        "y_kind": st.sampled_from(["radial", "tangent", "halfspace"]),
        "size": st.sampled_from([0.5, 1.0]),
        "k_max": st.integers(2, 10),
    }
)


def _random_build(case):
    """The build of 60 random witness points near an axis; data too sparse
    to match two anchors is rejected as an example."""
    y_kind = case["y_kind"]
    if case["dimension"] == 1 and y_kind == "tangent":
        y_kind = "halfspace"  # no unit y is orthogonal to x on a line
    points, directions = random_witness_data(
        case["seed"], case["dimension"], 60, case["spread"], y_kind, case["size"]
    )
    try:
        return build_path(WitnessSequence.ingest(points, directions), k_max=case["k_max"])
    except PipelineError:
        reject()


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


@settings(max_examples=25)
@given(case=_random_cases)
def test_path_json_round_trip_keeps_every_array(case):
    """A build reloaded from its JSON has the anchor, skeleton and window
    arrays of the original, bit for bit, in dimensions 1-5."""
    build = _random_build(case)
    event(f"dimension {build.anchors.dimension}")
    loaded = build_from_dict(json.loads(json.dumps(build_to_dict(build))))
    assert loaded.anchors.matched == build.anchors.matched
    for got, want in (
        (loaded.anchors, build.anchors),
        (loaded.path.skeleton, build.path.skeleton),
        (loaded.path, build.path),
    ):
        for name in ("a", "b", "times", "breakpoints", "slopes", "offsets", "lo", "hi", "h"):
            if hasattr(want, name):
                assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(want, name)))


@settings(max_examples=40)
@given(
    case=_random_cases,
    place=st.integers(0, 10),
    field=st.sampled_from(["a", "b", "t0", "t1", "t2", "source"]),
    factor=st.sampled_from([-0.5, -1e-6, 1e-6, 0.25]),
)
def test_a_perturbed_anchor_is_named(case, place, field, factor):
    """Scaling one anchor's a or b, moving one of its times by a fraction of
    its spacing, or flipping its source makes the load fail naming it."""
    data = build_to_dict(_random_build(case))
    j = place % len(data["anchors"])
    item = data["anchors"][j]
    if field in ("a", "b"):
        item[field] = [v * (1.0 + factor) for v in item[field]]
    elif field == "source":
        item["source"] = "filler" if item["source"] == "given" else "given"
    else:
        item[field] += factor * (item["t0"] - item["t1"])
    with pytest.raises(InputError, match=rf"\banchor {j + 1}\b"):
        build_from_dict(data)


def test_second_save_is_byte_identical(tmp_path, diagonal_build):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_build(str(first), diagonal_build)
    save_build(str(second), diagonal_build)
    assert first.read_bytes() == second.read_bytes()


def test_load_build_rejects_tampered_kernel(tmp_path, diagonal_build):
    data = build_to_dict(diagonal_build)
    data["kernel_c"] += 1e-6
    target = tmp_path / "path.json"
    target.write_text(json.dumps(data))
    with pytest.raises(InputError, match="kernel constant"):
        load_build(str(target))


def test_load_build_rejects_tampered_domain(tmp_path, diagonal_build):
    data = build_to_dict(diagonal_build)
    data["domain"] = [data["domain"][0], data["domain"][1] * 1.0000001]
    target = tmp_path / "path.json"
    target.write_text(json.dumps(data))
    with pytest.raises(InputError, match="domain deviates"):
        load_build(str(target))


def test_load_build_reports_missing_keys(tmp_path, diagonal_build):
    data = build_to_dict(diagonal_build)
    del data["parity"]
    del data["matched"]
    target = tmp_path / "path.json"
    target.write_text(json.dumps(data))
    with pytest.raises(InputError, match="matched, parity"):
        load_build(str(target))


def test_samples_csv_round_trips_floats(diagonal_build):
    path = diagonal_build.path
    ts = dense_grid(path, per_decade=32, per_window=4)[:40]
    table = sample_path(path, ts)
    text = samples_to_csv(table, path.dimension)
    lines = text.strip().split("\n")
    assert lines[0] == "t,s1,s2,d1,d2,norm_s,norm_ds,product"
    assert len(lines) == len(table) + 1
    for line, row in zip(lines[1:], table):
        parts = [float(p) for p in line.split(",")]
        assert parts == row.tolist()


@pytest.mark.parametrize("dimension", [1, 2, 3, 4, 5])
def test_samples_csv_matches_per_value_format(dimension):
    """The one-template writer gives the bytes of formatting each value alone."""
    rng = np.random.default_rng(dimension)
    cols = 2 * dimension + 4
    table = rng.normal(size=(40, cols)) * np.exp(rng.uniform(-300.0, 300.0, size=(40, cols)))
    special = np.array([-0.0, 5e-324, 1e308, 0.1 + 0.2])
    table[:4] = special[:, None]
    table[4:8] = -special[:, None]
    header = (
        ["t"]
        + [f"s{i}" for i in range(1, dimension + 1)]
        + [f"d{i}" for i in range(1, dimension + 1)]
        + ["norm_s", "norm_ds", "product"]
    )
    reference = ",".join(header) + "\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in table.tolist()
    )
    assert samples_to_csv(table, dimension) == reference


@pytest.mark.parametrize("bad", ["0.4", True, [0.4]])
@pytest.mark.parametrize("field", ["x", "y", "cone_axis", "a", "b"])
def test_vector_fields_reject_non_numbers(diagonal_build, field, bad):
    """Coordinates must be JSON numbers; the error names the field."""
    if field in ("x", "y"):
        pair = {"x": [0.4, 0.4], "y": [0.6, 0.8]}
        pair[field][0] = bad
        with pytest.raises(InputError, match=f"pair 0 {field} coordinate must be a number"):
            witness_from_dict({"dimension": 2, "pairs": [pair]})
        return
    data = build_to_dict(diagonal_build)
    vector = data["cone_axis"] if field == "cone_axis" else data["anchors"][0][field]
    vector[0] = bad
    name = "cone_axis" if field == "cone_axis" else f"anchor 1 {field}"
    with pytest.raises(InputError, match=f"{name} coordinate must be a number"):
        build_from_dict(data)


def test_reports_json_shape():
    reports = [
        CheckReport(
            name="envelope",
            passed=True,
            measured=5e-12,
            threshold=1e-10,
            witness_t=None,
            details="held on every level",
        ),
        CheckReport(
            name="product",
            passed=False,
            measured=29.5,
            threshold=28.0,
            witness_t=0.125,
            details="exceeded",
        ),
    ]
    parsed = json.loads(reports_to_json(reports))
    assert [r["name"] for r in parsed] == ["envelope", "product"]
    for r, report in zip(parsed, reports):
        assert set(r) == {"name", "passed", "measured", "threshold", "witness_t", "details"}
        assert r["passed"] == report.passed
        assert r["measured"] == report.measured
    assert parsed[0]["witness_t"] is None
    assert parsed[1]["witness_t"] == 0.125


def _demo_probe_report():
    return ProbeReport(
        field_name="demo",
        epsilon=0.5,
        limsup_estimate=0.9375,
        tail_profile=((0.25, 1.0), (0.125, 0.9375)),
        verdict="discontinuous-certified",
        matched_count=12,
        domain=(0.01, 0.75),
    )


def test_probe_json_shape():
    parsed = json.loads(probe_to_json(_demo_probe_report()))
    assert set(parsed) == {
        "field",
        "epsilon",
        "limsup_estimate",
        "verdict",
        "matched_anchors",
        "domain",
        "tail_profile",
    }
    assert parsed["field"] == "demo"
    assert parsed["matched_anchors"] == 12
    assert parsed["domain"] == [0.01, 0.75]
    assert parsed["tail_profile"] == [
        {"delta": 0.25, "sup": 1.0},
        {"delta": 0.125, "sup": 0.9375},
    ]


def test_tail_csv_lines():
    text = tail_to_csv(_demo_probe_report())
    assert text == "delta,sup\n0.25,1\n0.125,0.9375\n"
    lines = text.strip().split("\n")
    assert lines[0] == "delta,sup"
    assert len(lines) == 3
    delta, sup = (float(p) for p in lines[1].split(","))
    assert (delta, sup) == (0.25, 1.0)


def test_atomic_write_overwrites_and_leaves_no_droppings(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(str(target), "first\n")
    atomic_write_text(str(target), "second\n")
    assert target.read_text() == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]
