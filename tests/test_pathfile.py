"""Serialization round trips for witness, path, sample, and report files."""

import json
import math
import os
import stat
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import RANDOM_BUILD_CASES, random_build
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pathcert import csvtext, pathfile
from pathcert.errors import InputError
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
from pathcert.skeleton import _TIME_TOL, WitnessSequence
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


def test_witness_whose_cover_cannot_fit_is_refused_before_any_point(monkeypatch):
    """A dimension the cover stage would refuse at the build's half angle is
    refused, naming the stage, before a point of that width is made."""

    def no_points(spec):
        raise LookupError(f"made points of dimension {spec.dimension}")

    monkeypatch.setattr(pathfile, "generate_points", no_points)
    document = {"dimension": 14, "generator": {"kind": "diagonal"}}
    refused = "stage 'cover': could not cover the sphere in dimension 14 "
    with pytest.raises(InputError, match=refused):
        witness_from_dict(document)
    with pytest.raises(LookupError, match="dimension 14"):  # a wider cover fits
        witness_from_dict(document, half_angle=1.0)


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


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


@settings(max_examples=25)
@given(case=RANDOM_BUILD_CASES)
def test_path_json_round_trip_keeps_every_array(case):
    """A build reloaded from its JSON has the anchor, skeleton and window
    arrays of the original, bit for bit, in dimensions 1-5, and saves to the
    same bytes."""
    build = random_build(case)
    event(f"dimension {build.anchors.dimension}")
    text = json.dumps(build_to_dict(build), indent=2)
    loaded = build_from_dict(json.loads(text))
    assert json.dumps(build_to_dict(loaded), indent=2) == text
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
    case=RANDOM_BUILD_CASES,
    place=st.integers(0, 10),
    field=st.sampled_from(["a", "b", "t0", "t1", "t2", "source"]),
    factor=st.sampled_from([-0.5, -1e-6, 1e-6, 0.25]),
)
def test_a_perturbed_anchor_is_named(case, place, field, factor):
    """Scaling one anchor's a or b, moving one of its times by a fraction of
    its spacing, or flipping its source makes the load fail naming it."""
    data = build_to_dict(random_build(case))
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
    with pytest.raises(InputError, match="kernel_c must be 2.2522836210435817, got 2.25228"):
        load_build(str(target))


def test_load_build_rejects_tampered_domain(tmp_path, diagonal_build):
    data = build_to_dict(diagonal_build)
    data["domain"] = [data["domain"][0], data["domain"][1] * 1.0000001]
    target = tmp_path / "path.json"
    target.write_text(json.dumps(data))
    with pytest.raises(InputError, match=r"domain must be \[.*\], got \["):
        load_build(str(target))


@pytest.mark.parametrize("key", ["t0", "t1", "t2"])
def test_an_anchor_time_loads_only_within_the_rule_margin(diagonal_build, key):
    """The time rule's margin is _TIME_TOL / 8: a time _TIME_TOL / 16 off the
    rule loads and is kept, so the build saves it again, and one _TIME_TOL / 4
    off is named."""
    data = json.loads(json.dumps(build_to_dict(diagonal_build)))
    on_rule = data["anchors"][1][key]
    data["anchors"][1][key] = on_rule + _TIME_TOL / 16.0
    loaded = build_from_dict(data)
    assert loaded.anchors.times[1].tolist() == [data["anchors"][1][t] for t in ("t0", "t1", "t2")]
    assert build_to_dict(loaded) == data
    data["anchors"][1][key] = on_rule + _TIME_TOL / 4.0
    with pytest.raises(InputError, match=rf"^anchor 2 {key} must lie within 1.25e-13 of"):
        build_from_dict(data)


def test_a_path_file_seed_must_be_non_negative(diagonal_build):
    data = build_to_dict(diagonal_build)
    data["seed"] = -1
    with pytest.raises(InputError, match="^seed must be a non-negative integer, got -1$"):
        build_from_dict(data)


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


def _per_value(table: np.ndarray) -> str:
    return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in table.tolist())


def _from_bits(pattern: int) -> float:
    return float(np.array([pattern], dtype=np.uint64).view(np.float64)[0])


def _neighbours(values) -> list[float]:
    """Each value and the floats one ulp below and above it (the float above
    the largest is inf)."""
    values = np.array(values, dtype=float)
    with np.errstate(over="ignore"):
        return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)]
        ).tolist()


# the kernel's range edges, the nearest float to every power of ten (14 of them
# round up to that power at 17 digits), the floats beside both, and the
# subnormal, normal and overflow edges
_EDGES = _neighbours(
    [1e-4, 1e16, *(float(f"1e{k}") for k in range(-323, 309))]
    + [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
) + [0.0, math.inf, math.nan]


@st.composite
def _ties(draw) -> float:
    """A float whose decimal expansion has 18 significant digits, the last a 5,
    so that 17 digits round half to even: m / 2^k with m odd and m 5^k of 18
    digits, exact while m < 2^53."""
    k = draw(st.integers(2, 25))
    lo, hi = -(-(10**17) // 5**k), min(10**18 // 5**k, 2**53)
    return (2 * draw(st.integers(lo // 2, (hi - 2) // 2)) + 1) / 2**k


_CSV_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(_from_bits),
    st.sampled_from(_EDGES),
    _ties(),
    st.floats(1e-4, 1e16),
).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=200)
@given(st.lists(_CSV_VALUES, min_size=6, max_size=60))
def test_csv_values_print_as_format_17g(values):
    """Every float64, as a raw bit pattern, a range edge, an exact tie at the
    17th digit or a value of the fixed-notation range, prints as '%.17g'."""
    table = np.array(values[: len(values) // 6 * 6]).reshape(-1, 6)
    assert samples_to_csv(table, 1).partition("\n")[2] == _per_value(table)


def test_texts_of_every_width_from_format_17g_keep_their_bytes():
    """Values that '%.17g' writes itself, from the 3 bytes of nan to the 24
    of -2.2250738585072014e-308, in rows with zeros and fixed-notation
    values, and a row with no fixed-notation value at all."""
    written = [math.nan, -math.inf, 2.0**-20, -(2.0**60), 1e100, 1e-300, -5e-324,
               2.0**-1074, -2.2250738585072014e-308, 1e16, -9.9999999999999991e-05]
    fixed = [0.5, -1234.5678, 1e-4, 0.0, -0.0]
    assert {len(format(v, ".17g")) for v in written} >= {3, 4, 24}
    table = np.array([written + fixed, fixed + written[::-1], written[3:] + [0.0] * 8])
    assert samples_to_csv(table, 7).partition("\n")[2] == _per_value(table)


def test_ties_round_half_to_even():
    assert tail_to_csv(SimpleNamespace(tail_profile=[(1234567890123456.25, 1234567890123456.75)]))\
        == "delta,sup\n1234567890123456.2,1234567890123456.8\n"


@pytest.mark.parametrize("offset", [-1.0, 1.0])
def test_decimal_exponent_estimate_may_miss_by_one(monkeypatch, offset):
    """An exponent from log10 one too low or one too high steps to the right
    one, so every digit and exponent is that of '%.16e'."""
    values = np.array(_neighbours([10.0**k for k in range(-4, 15)]) + [1234.5678, math.pi / 10])
    log10 = np.log10
    monkeypatch.setattr(csvtext.np, "log10", lambda x: log10(x) + offset)
    digits, exponent, off = csvtext._decimal(values)
    monkeypatch.undo()
    assert off.size == 0
    expected = [format(v, ".16e").partition("e") for v in values.tolist()]
    assert digits.tolist() == [int(mantissa.replace(".", "")) for mantissa, _, _ in expected]
    assert exponent.tolist() == [int(e) for _, _, e in expected]


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_csv_of_one_row_and_of_blocks_matches_per_value_format(blocks, extra):
    rows = blocks * pathfile.CSV_BLOCK_ROWS + extra
    rng = np.random.default_rng(rows)
    table = rng.normal(size=(rows, 14)) * np.exp(rng.uniform(-12.0, 12.0, size=(rows, 14)))
    assert samples_to_csv(table, 5).partition("\n")[2] == _per_value(table)


@pytest.mark.parametrize("block_rows", [1, 7, 64, 299])
def test_block_size_does_not_change_the_bytes(monkeypatch, diagonal_build, tmp_path, block_rows):
    """The CSV writer and the streamed ``sample`` give the same bytes for any
    block size: the writer formats each value alone, and a path row has the
    same bits alone or in any batch."""
    path = diagonal_build.path
    lo, hi = path.domain
    grid = np.geomspace(np.nextafter(lo, hi), hi, 300)
    reference = samples_to_csv(sample_path(path, grid), path.dimension)
    monkeypatch.setattr(pathfile, "CSV_BLOCK_ROWS", block_rows)
    assert samples_to_csv(sample_path(path, grid), path.dimension) == reference
    assert "".join(pathfile.sample_csv_chunks(path, grid)) == reference
    target = tmp_path / "samples.csv"
    pathfile.atomic_write_chunks(str(target), pathfile.sample_csv_chunks(path, grid))
    assert target.read_text() == reference


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


def test_atomic_write_names_a_file_it_cannot_create(tmp_path):
    target = tmp_path / "no-such-dir" / "out.txt"
    with pytest.raises(InputError, match=f"cannot write output file {target}: "):
        atomic_write_text(str(target), "text\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"]
)
def test_atomic_write_gives_the_mode_the_umask_allows(tmp_path, umask, mode):
    """An output file gets the mode open() would give it, not mkstemp's 0600."""
    target = tmp_path / "out.txt"
    old = os.umask(umask)
    try:
        atomic_write_text(str(target), "text\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(target.stat().st_mode) == mode


def test_resaving_a_loaded_path_keeps_its_witness_scale():
    """A build carries the witness scale, so a path loaded from a file and
    saved again gives back the document it came from."""
    spec = GeneratorSpec(kind="diagonal", dimension=2, count=160, stop=0.012)
    witness = WitnessSequence.ingest(4.0 * generate_points(spec))
    build = build_path(witness, k_max=20)
    data = json.loads(json.dumps(build_to_dict(build)))
    assert build.witness_scale == witness.scale < 1.0
    assert data["witness_scale"] == witness.scale
    loaded = build_from_dict(data)
    assert loaded.witness_scale == witness.scale
    assert build_to_dict(loaded) == data


def test_atomic_write_overwrites_and_leaves_no_droppings(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(str(target), "first\n")
    atomic_write_text(str(target), "second\n")
    assert target.read_text() == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]
