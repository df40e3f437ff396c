"""End-to-end command line runs with real files."""

import contextlib
import ctypes
import gc
import glob
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathcert
from pathcert import (
    cli,
    generators,
    geometry,
    harness,
    mollifier,
    pathfile,
    pipeline,
    skeleton,
    verifier,
)


def _run(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _write_witness(tmp_path, name="witness.json", count=120, stop=0.02):
    target = tmp_path / name
    document = {
        "dimension": 2,
        "generator": {"kind": "diagonal", "count": count, "stop": stop},
    }
    target.write_text(json.dumps(document))
    return str(target)


def _build_path_file(tmp_path, capsys, k_max=12):
    witness = _write_witness(tmp_path)
    out = str(tmp_path / "path.json")
    rc, _, _ = _run(["build", "--witness", witness, "--k-max", str(k_max), "--out", out], capsys)
    assert rc == 0
    return out


def test_cover_prints_json(capsys):
    rc, out, _ = _run(["cover", "--dimension", "1"], capsys)
    assert rc == 0
    document = json.loads(out)
    assert document["dimension"] == 1
    assert document["directions"] == [[1.0], [-1.0]]


@pytest.mark.parametrize("dimension", [1, 2, 3, 4, 5])
def test_cover_json_is_the_indented_json_encoding(dimension):
    """The cover writer gives the bytes of json.dumps(indent=2)."""
    cover = geometry.build_sphere_cover(dimension, geometry.DEFAULT_COVER_HALF_ANGLE)
    document = {
        "dimension": cover.dimension,
        "half_angle_deg": math.degrees(cover.half_angle),
        "directions": cover.directions.tolist(),
    }
    assert pathfile.cover_to_json(cover) == json.dumps(document, indent=2) + "\n"


def test_cover_writes_file(tmp_path, capsys):
    target = tmp_path / "cover.json"
    rc, out, _ = _run(
        ["cover", "--dimension", "2", "--out", str(target)], capsys
    )
    assert rc == 0
    assert out.startswith("cover:")
    document = json.loads(target.read_text())
    assert document["dimension"] == 2
    assert len(document["directions"]) >= 3
    for row in document["directions"]:
        assert math.isclose(sum(v * v for v in row), 1.0, rel_tol=1e-12)


def test_build_writes_path_file(tmp_path, capsys):
    witness = _write_witness(tmp_path)
    out = tmp_path / "path.json"
    rc, text, _ = _run(
        ["build", "--witness", witness, "--k-max", "12", "--out", str(out)], capsys
    )
    assert rc == 0
    assert text.startswith("build: ")
    assert " matched anchors of 13, parity " in text
    document = json.loads(out.read_text())
    assert document["k_max"] == 12
    assert len(document["matched"]) >= 2
    assert len(document["anchors"]) == 13


def test_build_rerun_is_byte_identical(tmp_path, capsys):
    witness = _write_witness(tmp_path)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        rc, _, _ = _run(
            ["build", "--witness", witness, "--k-max", "12", "--out", str(out)], capsys
        )
        assert rc == 0
    assert first.read_bytes() == second.read_bytes()


def test_build_missing_witness_file(tmp_path, capsys):
    rc, _, err = _run(
        ["build", "--witness", str(tmp_path / "nope.json"), "--out", str(tmp_path / "p.json")],
        capsys,
    )
    assert rc == 2
    assert "error:" in err


def test_sample_log_grid(tmp_path, capsys):
    path_file = _build_path_file(tmp_path, capsys)
    out = tmp_path / "samples.csv"
    rc, text, _ = _run(
        ["sample", "--path", path_file, "--out", str(out), "--points", "64"], capsys
    )
    assert rc == 0
    assert "sample: 64 rows (log grid)" in text
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 65
    assert lines[0].startswith("t,s1,s2,")


def test_sample_uniform_grid_with_range(tmp_path, capsys):
    path_file = _build_path_file(tmp_path, capsys)
    out = tmp_path / "samples.csv"
    rc, _, _ = _run(
        [
            "sample", "--path", path_file, "--out", str(out),
            "--grid", "uniform", "--points", "10",
            "--t-min", "0.1", "--t-max", "0.4",
        ],
        capsys,
    )
    assert rc == 0
    rows = out.read_text().strip().split("\n")[1:]
    ts = [float(r.split(",")[0]) for r in rows]
    assert ts[0] == 0.1
    assert ts[-1] == 0.4
    assert len(ts) == 10


@pytest.mark.parametrize("options", [["--points", "1"], ["--grid", "uniform", "--points", "10"]])
def test_sample_writes_one_line_per_point(tmp_path, capsys, options):
    path_file = _build_path_file(tmp_path, capsys)
    out = tmp_path / "samples.csv"
    rc, text, _ = _run(["sample", "--path", path_file, "--out", str(out), *options], capsys)
    assert rc == 0
    points = int(options[-1])
    assert f"sample: {points} rows" in text
    assert len(out.read_text().splitlines()) == points + 1


def test_sample_range_outside_domain(tmp_path, capsys):
    path_file = _build_path_file(tmp_path, capsys)
    rc, _, err = _run(
        ["sample", "--path", path_file, "--out", str(tmp_path / "s.csv"), "--t-max", "2.0"],
        capsys,
    )
    assert rc == 2
    assert "error:" in err


def test_a_nan_sample_range_is_reported_in_plain_floats(tmp_path, capsys):
    """A range that is not a number is refused, and the message prints the
    default lower end as a float, not as numpy's repr of one."""
    path_file = _build_path_file(tmp_path, capsys)
    lo, hi = pathfile.load_build(path_file).path.domain
    rc, _, err = _run(
        ["sample", "--path", path_file, "--out", str(tmp_path / "s.csv"), "--t-max", "nan"],
        capsys,
    )
    assert rc == 2
    start = math.nextafter(lo, hi)
    assert f"error: sampling range [{start!r}, nan] must lie inside ({lo!r}, {hi!r}]" in err
    assert "np.float64" not in err


def test_check_subset_passes_and_reports(tmp_path, capsys):
    path_file = _build_path_file(tmp_path, capsys)
    out = tmp_path / "reports.json"
    rc, text, _ = _run(
        [
            "check", "--path", path_file,
            "--suite", "envelope,interpolation,product",
            "--restricted",
            "--per-decade", "256", "--per-window", "16",
            "--out", str(out),
        ],
        capsys,
    )
    assert rc == 0
    lines = text.strip().split("\n")
    assert lines[0].startswith("check envelope: PASS measured=")
    assert lines[1].startswith("check interpolation: PASS")
    assert lines[2].startswith("check product: PASS")
    assert all("threshold=" in line for line in lines)
    reports = json.loads(out.read_text())
    assert [r["name"] for r in reports] == ["envelope", "interpolation", "product"]
    assert all(r["passed"] for r in reports)


def test_check_unknown_suite(tmp_path, capsys):
    path_file = _build_path_file(tmp_path, capsys)
    rc, _, err = _run(["check", "--path", path_file, "--suite", "volume"], capsys)
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "options",
    [
        ["--suite", "smoothness", "--trials", "0"],
        ["--suite", "smoothness", "--trials", "-4"],
        ["--suite", "product", "--per-decade", "0"],
        ["--suite", "product", "--per-window", "-3"],
    ],
)
def test_check_rejects_degenerate_sampling(tmp_path, capsys, options):
    """A check that would sample nothing is bad input, not a vacuous pass."""
    path_file = _build_path_file(tmp_path, capsys)
    out = tmp_path / "reports.json"
    rc, text, err = _run(["check", "--path", path_file, *options, "--out", str(out)], capsys)
    assert rc == 2
    assert "error:" in err
    assert "Traceback" not in err
    assert text == ""
    assert not out.exists()


def _edit_path_file(edit):
    def write(tmp_path, capsys):
        path_file = _build_path_file(tmp_path, capsys)
        document = json.loads(Path(path_file).read_text())
        edit(document)
        Path(path_file).write_text(json.dumps(document))
        return ["check", "--path", path_file, "--suite", "interpolation"]

    return write


def _witness_file(document):
    def write(tmp_path, capsys):
        target = tmp_path / "witness.json"
        target.write_text(json.dumps(document))
        return ["build", "--witness", str(target), "--out", str(tmp_path / "path.json")]

    return write


# the command line of each command that reads an input file, {file}
_READERS = {
    "build": ("build", "--witness", "{file}", "--out", "{out}"),
    "check": ("check", "--path", "{file}", "--suite", "interpolation"),
    "probe": ("probe", "--field", "rational2d", "--witness", "{file}"),
}


def _input_file(command, content):
    """argv of ``command`` reading a file that holds ``content``: bytes, or a
    function of the tmp_path and capsys that returns them."""

    def write(tmp_path, capsys):
        data = content if isinstance(content, bytes) else content(tmp_path, capsys)
        target = tmp_path / "input.json"
        target.write_bytes(data)
        return [arg.format(file=target, out=tmp_path / "out.json") for arg in _READERS[command]]

    return write


def _path_bytes(edit):
    """The bytes of a built path file, edited."""
    return lambda tmp_path, capsys: edit(Path(_build_path_file(tmp_path, capsys)).read_bytes())


def _nested(depth):
    value = [0.1, 0.9]
    for _ in range(depth):
        value = [value]
    return value


_GENERATOR = '"generator": {"kind": "diagonal", "count": 120, "stop": 0.02}'
# files the JSON reader rejects, by class: text that is not UTF-8, nesting
# deeper than the parser allows, and integers of more than 4,300 digits
READER_CASES = {
    "witness-file-not-utf8": _input_file(
        "build", ('{"dimension": 2, "note": "\u00e9", ' + _GENERATOR + "}").encode("latin-1")
    ),
    "path-file-not-utf8": _input_file("check", _path_bytes(lambda data: b"\xff\xfe" + data)),
    "probe-witness-not-utf8": _input_file(
        "probe", b"\xff\xfe" + ('{"dimension": 2, ' + _GENERATOR + "}").encode()
    ),
    "path-file-100000-open-brackets": _input_file("check", b"[" * 100_000),
    "witness-pairs-nested-50000-deep": _input_file(
        "build", b'{"dimension": 2, "pairs": ' + b"[" * 50_000 + b"]" * 50_000 + b"}"
    ),
    "witness-seed-5000-digits": _input_file(
        "build", ('{"dimension": 2, ' + _GENERATOR + ', "seed": ' + "9" * 5000 + "}").encode()
    ),
    "path-seed-5000-digits": _input_file(
        "check",
        _path_bytes(lambda data: data.replace(b'"seed": 0,', b'"seed": ' + b"9" * 5000 + b",")),
    ),
}

MALFORMED_INPUTS = {
    "probe-axis-not-a-number": lambda tmp_path, capsys: [
        "probe", "--field", "builtin:ray_bump2d", "--generator", "ray", "--axis", "1,x"
    ],
    "generator-count-not-a-number": _witness_file(
        {"dimension": 2, "generator": {"kind": "diagonal", "count": "abc"}}
    ),
    "pair-coordinate-not-a-number": _witness_file(
        {"dimension": 2, "pairs": [{"x": ["a", 1]}]}
    ),
    "dimension-not-an-integer": _witness_file(
        {"dimension": True, "generator": {"kind": "ray"}}
    ),
    "pair-dimension-below-declared": _witness_file(
        {"dimension": 3, "pairs": [{"x": [0.4 / 2**i, 0.3 / 2**i]} for i in range(40)]}
    ),
    "anchor-without-t1": _edit_path_file(lambda doc: doc["anchors"][0].pop("t1")),
    "anchors-not-a-list": _edit_path_file(lambda doc: doc.update(anchors="x")),
    "matched-entry-too-short": _edit_path_file(lambda doc: doc.update(matched=[[1]])),
    "domain-with-one-bound": _edit_path_file(lambda doc: doc.update(domain=[0.1])),
    "k-max-not-a-number": _edit_path_file(lambda doc: doc.update(k_max="abc")),
    "kernel-c-not-a-number": _edit_path_file(lambda doc: doc.update(kernel_c="abc")),
    "kernel-c-null": _edit_path_file(lambda doc: doc.update(kernel_c=None)),
    "k-max-not-an-integer": _edit_path_file(lambda doc: doc.update(k_max=3.7)),
    "k-max-boolean": _edit_path_file(lambda doc: doc.update(k_max=True)),
    "seed-not-an-integer": _edit_path_file(lambda doc: doc.update(seed=2.9)),
    "cover-size-not-an-integer": _edit_path_file(
        lambda doc: doc.update(cover_size=doc["cover_size"] + 0.5)
    ),
    "anchor-k-not-an-integer": _edit_path_file(lambda doc: doc["anchors"][0].update(k=1.5)),
    "matched-index-not-an-integer": _edit_path_file(
        lambda doc: doc["matched"][0].__setitem__(1, doc["matched"][0][1] + 0.5)
    ),
    "domain-null": _edit_path_file(lambda doc: doc.update(domain=None)),
    "domain-not-a-list": _edit_path_file(lambda doc: doc.update(domain="(0, 1]")),
    "domain-bound-not-a-number": _edit_path_file(
        lambda doc: doc.update(domain=[doc["domain"][0], "hi"])
    ),
    "generator-count-above-cap": _witness_file(
        {"dimension": 2, "generator": {"kind": "diagonal", "count": 100000}}
    ),
    "generator-count-not-an-integer": _witness_file(
        {"dimension": 2, "generator": {"kind": "diagonal", "count": 120.5}}
    ),
    "pair-norm-overflows": _witness_file(
        {"dimension": 2, "pairs": [{"x": [1e308, 1e308]}, {"x": [0.1, 0.1]}]}
    ),
    "pair-direction-norm-overflows": _witness_file(
        {"dimension": 2, "pairs": [{"x": [0.1, 0.1], "y": [1e308, 1e308]}]}
    ),
    "pair-coordinate-string-number": _witness_file(
        {"dimension": 2, "pairs": [{"x": ["0.4", "0.4"]}]}
    ),
    "pair-coordinate-boolean": _witness_file(
        {"dimension": 2, "pairs": [{"x": [0.4, 0.4], "y": [True, 0.0]}]}
    ),
    "pair-coordinate-huge-integer": _witness_file(
        {"dimension": 2, "pairs": [{"x": [10**400, 0.4]}]}
    ),
    "pair-x-of-another-length": _witness_file(
        {"dimension": 2, "pairs": [{"x": [0.4, 0.4]}, {"x": [0.2, 0.2, 0.2]}]}
    ),
    "pair-y-shorter-than-x": _witness_file(
        {"dimension": 2, "pairs": [{"x": [0.4, 0.0], "y": [1.0]}]}
    ),
    "pair-y-lengths-differ": _witness_file(
        {"dimension": 2, "pairs": [
            {"x": [0.4, 0.0], "y": [1.0, 0.0]}, {"x": [0.2, 0.0], "y": [1.0, 0.0, 0.0]}
        ]}
    ),
    "anchor-a-norm-overflows": _edit_path_file(
        lambda doc: doc["anchors"][0].update(a=[1e308, 1e308])
    ),
    "cone-axis-norm-overflows": _edit_path_file(
        lambda doc: doc.update(cone_axis=[1e308, 1e308])
    ),
    "probe-count-above-cap": lambda tmp_path, capsys: [
        "probe", "--field", "rational2d", "--generator", "diagonal", "--count", "10001"
    ],
    "expression-deep-parens": lambda tmp_path, capsys: [
        "probe", "--field", "expr:" + "(" * 3000 + "x1" + ")" * 3000
    ],
    "expression-deep-unary-minus": lambda tmp_path, capsys: [
        "probe", "--field", "expr:" + "-" * 3000 + "x1"
    ],
    "expression-long-sum": lambda tmp_path, capsys: [
        "probe", "--field", "x1+" * 5000 + "x2"
    ],
    "expression-variable-index-huge": lambda tmp_path, capsys: [
        "probe", "--field", "expr:x123456789012"
    ],
    "expression-variable-index-5000-digits": lambda tmp_path, capsys: [
        "probe", "--field", "expr:x" + "1" * 5000
    ],
    **READER_CASES,
    "domain-nested-500-deep": _edit_path_file(lambda doc: doc.update(domain=_nested(500))),
    "generator-start-a-string": _witness_file(
        {"dimension": 2, "generator": {"kind": "diagonal", "start": "0.4"}}
    ),
    "generator-axis-a-string": _witness_file(
        {"dimension": 2, "generator": {"kind": "ray", "axis": "11"}}
    ),
    "generator-axis-coordinate-boolean": _witness_file(
        {"dimension": 2, "generator": {"kind": "ray", "axis": [1, True]}}
    ),
    "witness-dimension-100000": _witness_file(
        {"dimension": 100_000, "generator": {"kind": "ray", "count": 2}}
    ),
}

# path-file metadata that contradicts the anchors or leaves its range
METADATA_EDITS = {
    "dimension-not-the-anchors": ("dimension", 7),
    "dimension-a-string": ("dimension", "x"),
    "k-max-below-the-anchors": ("k_max", 3),
    "k-max-above-the-anchors": ("k_max", 500),
    "half-angle-above-right-angle": ("half_angle", 3.0),
    "half-angle-negative": ("half_angle", -1.0),
    "cover-size-negative": ("cover_size", -5),
    "witness-scale-negative": ("witness_scale", -2.0),
    "witness-scale-a-string": ("witness_scale", "x"),
}
MALFORMED_INPUTS.update(
    (case, _edit_path_file(lambda doc, key=key, value=value: doc.update({key: value})))
    for case, (key, value) in METADATA_EDITS.items()
)
# what the error message must name, for the cases that check more than "error:"
NAMED_IN_ERROR = {case: f"error: {key} must" for case, (key, _) in METADATA_EDITS.items()}
NAMED_IN_ERROR.update(
    (case, "error: anchor 1 ")
    for case in ("anchor-without-t1", "anchor-k-not-an-integer", "anchor-a-norm-overflows")
)
NAMED_IN_ERROR.update((case, f"{os.sep}input.json is not valid JSON: ") for case in READER_CASES)
NAMED_IN_ERROR.update({
    "domain-nested-500-deep": "error: domain must be [",
    "generator-start-a-string": "error: generator start must be a number, got '0.4'",
    "generator-axis-a-string": "error: generator axis must be a list of 2 numbers, got '11'",
    "generator-axis-coordinate-boolean": "error: generator axis coordinate must be a number",
    "witness-dimension-100000": (
        "error: stage 'cover': could not cover the sphere in dimension 100000 "
    ),
})


def _into_missing_directory(*argv):
    """argv with {out} a file in a directory that does not exist, {witness} a
    witness file and {path} a built path file."""

    def write(tmp_path, capsys):
        names = {
            "out": str(tmp_path / "no-such-dir" / "out.txt"),
            "witness": _write_witness(tmp_path),
        }
        if "{path}" in argv:
            names["path"] = _build_path_file(tmp_path, capsys)
        return [arg.format(**names) for arg in argv]

    return write


_SMALL_PROBE = (
    "--generator", "diagonal", "--count", "120", "--stop", "0.02", "--k-max", "12"
)
# an output file that cannot be created is named, whichever option gave it
OUTPUT_CASES = {
    "cover-out-in-missing-directory": ("cover", "--dimension", "2", "--out", "{out}"),
    "build-out-in-missing-directory": ("build", "--witness", "{witness}", "--out", "{out}"),
    "sample-out-in-missing-directory": ("sample", "--path", "{path}", "--out", "{out}"),
    "check-out-in-missing-directory": (
        "check", "--path", "{path}", "--suite", "interpolation", "--out", "{out}"
    ),
    "probe-out-in-missing-directory": ("probe", "--field", "rational2d", *_SMALL_PROBE,
                                       "--out", "{out}"),
    "probe-tail-csv-in-missing-directory": ("probe", "--field", "rational2d", *_SMALL_PROBE,
                                            "--tail-csv", "{out}"),
    "probe-path-out-in-missing-directory": ("probe", "--field", "rational2d", *_SMALL_PROBE,
                                            "--path-out", "{out}"),
}
MALFORMED_INPUTS.update(
    (case, _into_missing_directory(*argv)) for case, argv in OUTPUT_CASES.items()
)
NAMED_IN_ERROR.update(
    (case, f"{os.sep}{os.path.join('no-such-dir', 'out.txt')}: ")
    for case in OUTPUT_CASES
)


def _naming_an_input(*argv):
    """argv with {file} a witness file, {link} a hard link to it, {new} a file
    not yet written and {new_alias} another spelling of it."""

    def write(tmp_path, capsys):
        names = {
            "file": _write_witness(tmp_path),
            "link": str(tmp_path / "link.json"),
            "new": str(tmp_path / "report.json"),
            "new_alias": os.path.join(str(tmp_path), ".", "report.json"),
        }
        os.link(names["file"], names["link"])
        return [arg.format(**names) for arg in argv]

    return write


# an output that names an input or another output of its command: the
# options the error names, and argv
SAME_FILE_CASES = {
    "sample-out-is-its-path": ("--out and --path",
                               ("sample", "--path", "{file}", "--out", "{file}")),
    "check-out-is-its-path": ("--out and --path",
                              ("check", "--path", "{file}", "--out", "{file}")),
    "build-out-is-its-witness": ("--out and --witness",
                                 ("build", "--witness", "{file}", "--out", "{file}")),
    "build-out-a-hard-link-to-its-witness": ("--out and --witness",
                                             ("build", "--witness", "{file}", "--out", "{link}")),
    "probe-path-out-is-its-witness": (
        "--path-out and --witness",
        ("probe", "--field", "rational2d", "--witness", "{link}", "--path-out", "{file}"),
    ),
    "probe-tail-csv-is-its-out": (
        "--out and --tail-csv",
        ("probe", "--field", "rational2d", *_SMALL_PROBE, "--out", "{new}",
         "--tail-csv", "{new_alias}"),
    ),
}
MALFORMED_INPUTS.update(
    (case, _naming_an_input(*argv)) for case, (_, argv) in SAME_FILE_CASES.items()
)
NAMED_IN_ERROR.update(
    (case, f"error: {options} name the same file: ")
    for case, (options, _) in SAME_FILE_CASES.items()
)
# fields non-finite all along the path, non-finite probe numbers, and
# 2-D covers finer than the cover size cap
_NON_FINITE_FIELD = "error: field is non-finite on every grid point"
_BAD_EPSILON = "error: epsilon must be positive and finite"
_COVER_TOO_LARGE = "error: could not cover the sphere in dimension 2"
NUMBER_CASES = {
    "probe-field-nan-on-the-whole-path": (
        ("probe", "--field", "expr:x1/0", *_SMALL_PROBE), _NON_FINITE_FIELD
    ),
    "probe-field-overflows-on-the-whole-path": (
        ("probe", "--field", "expr:abs(x1)*1e308*1e308", *_SMALL_PROBE), _NON_FINITE_FIELD
    ),
    "probe-epsilon-nan": (("probe", "--field", "rational2d", "--epsilon", "nan"), _BAD_EPSILON),
    "probe-epsilon-inf": (("probe", "--field", "rational2d", "--epsilon", "inf"), _BAD_EPSILON),
    "probe-tail-delta-inf": (
        ("probe", "--field", "rational2d", *_SMALL_PROBE, "--tail-delta", "inf"),
        "error: tail delta inf must be finite",
    ),
    "probe-tail-delta-nan": (
        ("probe", "--field", "rational2d", *_SMALL_PROBE, "--tail-delta", "nan"),
        "error: tail delta nan must be finite",
    ),
    "cover-2d-half-angle-1e-300-deg": (
        ("cover", "--dimension", "2", "--half-angle-deg", "1e-300"), _COVER_TOO_LARGE
    ),
    "cover-2d-half-angle-1e-320-deg": (
        ("cover", "--dimension", "2", "--half-angle-deg", "1e-320"), _COVER_TOO_LARGE
    ),
    "probe-min-witnesses-0": (
        ("probe", "--field", "parabola", *_SMALL_PROBE, "--min-witnesses", "0"),
        "error: --min-witnesses must be at least 1, got 0",
    ),
    "probe-min-witnesses-negative": (
        ("probe", "--field", "rational2d", *_SMALL_PROBE, "--min-witnesses", "-1"),
        "error: --min-witnesses must be at least 1, got -1",
    ),
}
MALFORMED_INPUTS.update(
    (case, lambda tmp_path, capsys, argv=argv: list(argv))
    for case, (argv, _) in NUMBER_CASES.items()
)
NAMED_IN_ERROR.update((case, named) for case, (_, named) in NUMBER_CASES.items())


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    """Malformed witness or path data is an input error, never a traceback."""
    argv = MALFORMED_INPUTS[case](tmp_path, capsys)
    rc, _, err = _run(argv, capsys)
    assert rc == 2
    assert "error:" in err
    assert NAMED_IN_ERROR.get(case, "error:") in err
    assert "Traceback" not in err
    assert "Warning" not in err


_PAIRS_WITNESS = json.dumps({"dimension": 2, "pairs": [
    {"x": [0.4 / 2**i, 0.3 / 2**i], "y": [0.8, 0.6]} for i in range(40)
]})


@settings(max_examples=120)
@given(
    option=st.sampled_from(["--path", "--witness"]),
    raw=st.none() | st.binary(max_size=200),
    cut=st.floats(0.0, 1.0, exclude_max=True),
)
def test_random_bytes_or_a_cut_document_exit_2(
    tmp_path_factory, diagonal_build, option, raw, cut
):
    """Random bytes, or a valid witness or path document cut short before its
    closing brace, read as --witness or --path exit 2 with no traceback."""
    if raw is None:
        document = _PAIRS_WITNESS if option == "--witness" else json.dumps(
            pathfile.build_to_dict(diagonal_build), indent=2
        )
        raw = document[: int(cut * len(document))].encode()
    target = tmp_path_factory.getbasetemp() / "fuzzed-input.json"
    target.write_bytes(raw)
    if option == "--witness":
        command = ["build", "--out", str(target.with_suffix(".out"))]
    else:
        command = ["check", "--suite", "interpolation"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([*command, option, str(target)])
    assert rc == 2
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


def test_build_does_not_call_a_tiny_point_the_origin(tmp_path, capsys):
    """A point whose norm underflows float64 is not the origin: with company
    it builds, and alone it fails where any single deep point fails."""
    witness = tmp_path / "witness.json"
    diagonal = [{"x": [0.4 / 1.1**i, 0.4 / 1.1**i]} for i in range(40)]
    for pairs, code in (([{"x": [1e-200, 1e-200]}] + diagonal, 0), ([{"x": [1e-200, 1e-200]}], 3)):
        witness.write_text(json.dumps({"dimension": 2, "pairs": pairs}))
        rc, _, err = _run(
            ["build", "--witness", str(witness), "--out", str(tmp_path / "path.json")], capsys
        )
        assert rc == code
        assert "origin" not in err
        assert "Warning" not in err


def test_probe_certifies_builtin_rational(tmp_path, capsys):
    report_file = tmp_path / "probe.json"
    tail_file = tmp_path / "tail.csv"
    path_file = tmp_path / "probe-path.json"
    rc, out, _ = _run(
        [
            "probe", "--field", "builtin:rational2d",
            "--generator", "diagonal", "--count", "120", "--stop", "0.02",
            "--k-max", "25",
            "--out", str(report_file),
            "--tail-csv", str(tail_file),
            "--path-out", str(path_file),
        ],
        capsys,
    )
    assert rc == 0
    assert out.startswith("probe rational2d: discontinuous-certified")
    report = json.loads(report_file.read_text())
    assert report["verdict"] == "discontinuous-certified"
    assert report["limsup_estimate"] >= 1.0 - 1e-9
    assert report["epsilon"] == 0.5
    assert tail_file.read_text().startswith("delta,sup\n")
    saved = json.loads(path_file.read_text())
    assert saved["k_max"] == 25


def test_probe_parabola_reports_no_violation(capsys):
    rc, out, err = _run(
        [
            "probe", "--field", "parabola",
            "--generator", "diagonal", "--count", "120", "--stop", "0.02",
            "--k-max", "25",
        ],
        capsys,
    )
    assert rc == 1
    assert "falling back to the unfiltered sequence" in err
    assert "no-violation-found" in out


def test_probe_expression_field(capsys):
    rc, out, _ = _run(
        [
            "probe", "--field", "2*x1*x2/(x1^2+x2^2)",
            "--generator", "diagonal", "--count", "120", "--stop", "0.02",
            "--k-max", "25",
        ],
        capsys,
    )
    assert rc == 0
    assert "discontinuous-certified" in out


@pytest.mark.parametrize("generator", ["diagonal", "spiral"])
def test_probe_of_a_bump_whose_survivors_stop_short_finds_no_violation(capsys, generator):
    """A smooth radial bump, continuous at 0, reaches |f| >= 0.5 only on
    norms down to 0.053, while the generated points go down to 0.015: the
    survivors miss the deepest band sampled, so the probe falls back to
    the whole sequence and certifies nothing.  rational2d, whose survivors
    reach the last point, still certifies."""
    bump = "expr:1/(1 + ((norm(x) - 0.1)*20)^4)"
    rc, out, err = _run(["probe", "--field", bump, "--generator", generator], capsys)
    assert rc == 1
    assert "stop at norm 0.053134, not below twice the smallest norm 0.015" in err
    assert "falling back to the unfiltered sequence" in err
    assert "no-violation-found" in out
    rc, out, _ = _run(["probe", "--field", "rational2d", "--generator", "diagonal"], capsys)
    assert rc == 0 and "discontinuous-certified" in out


def test_the_paper_field_is_certified_along_its_parabola_only(tmp_path, capsys):
    """x1^2 x2 / (x1^4 + x2^2) tends to 0 along every line through 0 but is
    1/2 on x2 = x1^2.  A witness on that parabola certifies it at eps 0.4,
    and its path passes every check, restricted product included; the
    diagonal and the rays along (1, 0), (1, 0.001), (1, 1) and (0.1, 1)
    find no violation."""
    radii = [0.45 * (0.012 / 0.45) ** (i / 239) for i in range(240)]
    u = [math.sqrt((math.sqrt(1.0 + 4.0 * r * r) - 1.0) / 2.0) for r in radii]  # ||(u, u^2)|| = r
    witness = tmp_path / "parabola.json"
    witness.write_text(json.dumps({"dimension": 2, "pairs": [{"x": [a, a * a]} for a in u]}))
    field = ("--field", "expr:x1^2*x2/(x1^4 + x2^2)", "--epsilon", "0.4")
    rc, out, _ = _run(["probe", *field, "--witness", str(witness)], capsys)
    assert rc == 0 and "discontinuous-certified" in out
    path = str(tmp_path / "path.json")
    assert _run(["build", "--witness", str(witness), "--out", path], capsys)[0] == 0
    rc, out, _ = _run(["check", "--path", path, "--restricted"], capsys)
    assert rc == 0 and out.count(": PASS ") == 6
    lines = [("--generator", "diagonal")] + [
        ("--generator", "ray", "--axis", axis) for axis in ("1,0", "1,0.001", "1,1", "0.1,1")
    ]
    for generator in lines:
        rc, out, _ = _run(["probe", *field, *generator], capsys)
        assert (rc, "no-violation-found" in out) == (1, True), generator


def test_probe_witness_file_with_directions(tmp_path, capsys):
    root = 1.0 / math.sqrt(2.0)
    pairs = [
        {"x": [r * root, r * root], "y": [root, root]}
        for r in (0.4, 0.2, 0.09, 0.045)
    ]
    witness = tmp_path / "pairs.json"
    witness.write_text(json.dumps({"dimension": 2, "pairs": pairs}))
    rc, out, _ = _run(
        [
            "probe", "--field", "rational2d",
            "--witness", str(witness), "--k-max", "12",
        ],
        capsys,
    )
    assert rc == 0
    assert "discontinuous-certified" in out


def test_probe_unknown_builtin(capsys):
    rc, _, err = _run(["probe", "--field", "builtin:nope"], capsys)
    assert rc == 2
    assert "unknown builtin field" in err


def test_build_pipeline_failure_exits_3(tmp_path, capsys):
    document = {
        "dimension": 2,
        "pairs": [{"x": [0.4, 0.0]}, {"x": [0.41, 0.0]}, {"x": [0.42, 0.0]}],
    }
    witness = tmp_path / "narrow.json"
    witness.write_text(json.dumps(document))
    rc, _, err = _run(
        ["build", "--witness", str(witness), "--out", str(tmp_path / "p.json")], capsys
    )
    assert rc == 3
    assert "pipeline error" in err


@pytest.mark.parametrize(
    "half_angle_deg,named",
    [
        ("200", "error: stage 'cover': half_angle must lie in (0, pi/2)"),
        ("1e-300", "error: stage 'cover': could not cover the sphere in dimension 2"),
    ],
    ids=["half-angle-200-deg", "2d-half-angle-1e-300-deg"],
)
def test_bad_input_inside_a_build_stage_exits_2(tmp_path, capsys, half_angle_deg, named):
    """An input the cover stage rejects is bad input, as from ``cover``,
    and the error names the stage."""
    out = tmp_path / "p.json"
    argv = ["build", "--witness", _write_witness(tmp_path), "--out", str(out)]
    rc, _, err = _run([*argv, "--half-angle-deg", half_angle_deg], capsys)
    assert rc == 2
    assert named in err
    assert "pipeline error" not in err and not out.exists()


def test_a_sampled_cover_whose_draw_cannot_fit_exits_2(tmp_path, capsys, monkeypatch):
    """A wide angle passes the area bound in dimension 100,000, but the sample
    draw would hold 10^10 floats: the cover stage refuses it before any draw."""
    monkeypatch.setattr(geometry, "_sampled_cover", _no_work)
    witness = tmp_path / "wide.json"
    witness.write_text(json.dumps({"dimension": 100000, "generator": {"kind": "ray", "count": 2}}))
    out = tmp_path / "p.json"
    argv = ["build", "--witness", str(witness), "--half-angle-deg", "89.9", "--out", str(out)]
    rc, _, err = _run(argv, capsys)
    assert rc == 2
    assert "error: stage 'cover': a sampled cover in dimension 100000 draws " in err
    assert not out.exists()


def _no_build(*args, **kwargs):
    raise AssertionError("built a path")


def _no_work(*args, **kwargs):
    raise AssertionError("started work")


@pytest.mark.parametrize("command", ["probe", "build"])
def test_an_output_that_cannot_be_written_stops_the_command_first(
    tmp_path, capsys, monkeypatch, command
):
    """Every output target is checked before any work: nothing is built and
    no earlier output is left behind."""
    monkeypatch.setattr(cli, "build_path", _no_build)
    monkeypatch.setattr(harness, "build_path", _no_build)
    witness = _write_witness(tmp_path)
    missing = str(tmp_path / "missing" / "t.csv")
    if command == "probe":
        argv = ["probe", "--field", "rational2d", *_SMALL_PROBE, "--out",
                str(tmp_path / "ok.json"), "--tail-csv", missing,
                "--path-out", str(tmp_path / "p.json")]
    else:
        argv = ["build", "--witness", witness, "--out", missing]
    rc, out, err = _run(argv, capsys)
    assert rc == 2 and out == ""
    assert f"error: cannot write output file {missing}: No such file or directory" in err
    assert os.listdir(tmp_path) == ["witness.json"]


# size option: the command that takes it
SIZE_OPTIONS = {
    "--points": "sample", "--trials": "check", "--per-decade": "check", "--per-window": "check"
}


@pytest.mark.parametrize("option", sorted(SIZE_OPTIONS))
def test_size_arguments_above_their_cap_exit_2_before_any_work(
    tmp_path, capsys, monkeypatch, option
):
    command = SIZE_OPTIONS[option]
    cap = generators.MAX_SIZES[option[2:].replace("-", "_")]
    assert cap < 10**12
    path_file = _build_path_file(tmp_path, capsys)

    def no_load(path):
        raise AssertionError("loaded the path")

    monkeypatch.setattr(cli, "load_build", no_load)
    out = tmp_path / "out.txt"
    argv = [command, "--path", path_file, "--out", str(out)]
    rc, text, err = _run([*argv, option, str(10**12)], capsys)
    assert rc == 2
    assert f"error: {option} must be at most {cap}, got {10**12}" in err
    assert text == "" and not out.exists()
    # the cap itself is allowed
    args = cli.build_parser().parse_args([*argv, option, str(cap)])
    assert cli._check_arguments(args) is None


@pytest.mark.parametrize("value", [0, -5])
@pytest.mark.parametrize("option", sorted(SIZE_OPTIONS))
def test_size_arguments_below_1_exit_2_for_every_suite(
    tmp_path, capsys, monkeypatch, option, value
):
    """A size no command can use is rejected before any work, also where the
    chosen suite would never read it."""
    monkeypatch.setattr(cli, "load_build", _no_work)
    command = SIZE_OPTIONS[option]
    argv = [command, "--path", "p.json", "--out", str(tmp_path / "out.txt")]
    if command == "check":
        argv += ["--suite", "interpolation"]
    rc, text, err = _run([*argv, option, str(value)], capsys)
    assert rc == 2 and text == ""
    assert f"error: {option} must be at least 1, got {value}" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["build", "probe"])
def test_k_max_above_its_cap_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    """--k-max is capped for build and probe alike, before the witness is read
    or derived; the cap itself is allowed."""
    monkeypatch.setattr(cli, "load_witness", _no_work)
    monkeypatch.setattr(cli, "_parse_field", _no_work)
    out = str(tmp_path / "out.json")
    if command == "build":
        argv = ["build", "--witness", "w.json", "--out", out]
    else:
        argv = ["probe", "--field", "rational2d", "--out", out]
    rc, text, err = _run([*argv, "--k-max", str(10**12)], capsys)
    assert rc == 2 and text == ""
    assert f"error: k_max must lie in 2..{pipeline.MAX_K_MAX}, got {10**12}" in err
    assert os.listdir(tmp_path) == []
    args = cli.build_parser().parse_args([*argv, "--k-max", str(pipeline.MAX_K_MAX)])
    assert cli._check_arguments(args) is None


def test_a_path_file_with_more_anchors_than_the_cap_exits_2(tmp_path, capsys, monkeypatch):
    """A path file holds at most MAX_K_MAX + 1 anchors; more are rejected
    before any anchor is read."""
    path_file = tmp_path / "path.json"
    document = json.loads(Path(_build_path_file(tmp_path, capsys)).read_text())
    document["anchors"] = document["anchors"][:1] * (pipeline.MAX_K_MAX + 2)
    path_file.write_text(json.dumps(document))
    monkeypatch.setattr(pathfile, "itemgetter", _no_work)
    rc, _, err = _run(["check", "--path", str(path_file), "--suite", "lemma1"], capsys)
    assert rc == 2
    limit = pipeline.MAX_K_MAX + 1
    assert f"error: a path holds at most {limit} anchors, got {limit + 1}" in err


@pytest.mark.parametrize("command", ["build", "probe", "check", "cover"])
def test_an_output_naming_a_directory_stops_the_command_first(
    tmp_path, capsys, monkeypatch, command
):
    """--out naming an existing directory is rejected before any work."""
    for module in (cli, harness):
        monkeypatch.setattr(module, "build_path", _no_build)
    monkeypatch.setattr(cli, "load_build", _no_work)
    monkeypatch.setattr(cli, "build_sphere_cover", _no_work)
    target = tmp_path / "outdir"
    target.mkdir()
    argv = {
        "build": ["build", "--witness", _write_witness(tmp_path)],
        "probe": ["probe", "--field", "rational2d", *_SMALL_PROBE],
        "check": ["check", "--path", "p.json"],
        "cover": ["cover", "--dimension", "3"],
    }[command]
    rc, text, err = _run([*argv, "--out", str(target)], capsys)
    assert rc == 2 and text == ""
    assert f"error: cannot write output file {target}: Is a directory" in err
    assert os.listdir(target) == []


@pytest.mark.parametrize("command", ["build", "probe", "check", "cover"])
def test_a_negative_seed_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    """A seed is a non-negative integer: every command that takes --seed
    refuses -1 before it reads, derives or builds anything."""
    for module in (cli, harness):
        monkeypatch.setattr(module, "build_path", _no_build)
    for name in ("load_witness", "load_build", "build_sphere_cover", "_parse_field"):
        monkeypatch.setattr(cli, name, _no_work)
    argv = {
        "build": ["build", "--witness", "w.json", "--out", str(tmp_path / "p.json")],
        "probe": ["probe", "--field", "rational2d", "--out", str(tmp_path / "probe.json")],
        "check": ["check", "--path", "p.json", "--suite", "lemma1"],
        "cover": ["cover", "--dimension", "3"],
    }[command]
    rc, text, err = _run([*argv, "--seed", "-1"], capsys)
    assert rc == 2 and text == ""
    assert "error: --seed must be a non-negative integer, got -1" in err
    assert os.listdir(tmp_path) == []


def _changed(value):
    """A JSON value of the same type that differs from ``value`` by the least step."""
    if isinstance(value, list):
        return [*value[:-1], _changed(value[-1])]
    if isinstance(value, str):
        return {"given": "filler", "filler": "given"}[value]
    if isinstance(value, int):
        return value + 1
    return math.nextafter(value, math.inf)


# every derived key, and every field of anchor 2 that is checked against a rule
_RULED_KEYS = [
    *pathfile._DERIVED_KEYS,
    *(f"anchor 2 {key}" for key in (*pathfile._DERIVED_ANCHOR_KEYS, "t0", "t1", "t2")),
]


def _change_key(named):
    def edit(document):
        *anchor, key = named.split()
        target = document["anchors"][1] if anchor else document
        if key in ("t0", "t1", "t2"):  # past the time rule's margin, _TIME_TOL / 8
            target[key] += skeleton._TIME_TOL / 4.0
        else:
            target[key] = _changed(target[key])

    return edit


@pytest.mark.parametrize("named", _RULED_KEYS)
def test_a_changed_derived_key_or_anchor_time_exits_2_and_is_named(tmp_path, capsys, named):
    """A path file loads only with the derived keys its free data give and
    anchor times on their rule; anything else exits 2 and names the key."""
    rc, _, err = _run(_edit_path_file(_change_key(named))(tmp_path, capsys), capsys)
    assert rc == 2
    assert f"error: {named} must " in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "--dimension", "40"],
        ["cover", "--dimension", "100000"],
        ["probe", "--field", "expr:x40"],
    ],
    ids=["cover-d40", "cover-d100000", "probe-expr-x40"],
)
def test_a_cover_that_cannot_fit_exits_2_before_any_work(capsys, monkeypatch, argv):
    """A sphere cover whose area bound exceeds the size cap is rejected
    before a candidate or a sample is drawn."""
    monkeypatch.setattr(geometry, "_sampled_cover", _no_work)
    rc, _, err = _run(argv, capsys)
    assert rc == 2
    dimension = argv[-1] if argv[0] == "cover" else "40"
    assert f"could not cover the sphere in dimension {dimension} " in err
    assert "Traceback" not in err


def test_build_parser_defaults_are_the_library_constants():
    """Each default the command line shares with the library is stated once."""
    parser = cli.build_parser()
    build = parser.parse_args(["build", "--witness", "w.json", "--out", "p.json"])
    probe = parser.parse_args(["probe", "--field", "rational2d"])
    check = parser.parse_args(["check", "--path", "p.json"])
    assert build.k_max == probe.k_max == pipeline.DEFAULT_K_MAX == 40
    assert check.per_decade == mollifier.DEFAULT_PER_DECADE == 2048
    assert check.per_window == mollifier.DEFAULT_PER_WINDOW == 64
    assert check.trials == verifier.DEFAULT_TRIALS == 32
    defaults = {
        (name, fn.__name__): param.default
        for fn in (pipeline.build_path, harness.certify_discontinuity, verifier.run_checks,
                   verifier.smoothness_check, mollifier.dense_grid)
        for name, param in inspect.signature(fn).parameters.items()
    }
    assert defaults[("k_max", "build_path")] == defaults[("k_max", "certify_discontinuity")] == 40
    assert defaults[("per_decade", "run_checks")] == defaults[("per_decade", "dense_grid")] == 2048
    assert defaults[("per_window", "run_checks")] == defaults[("per_window", "dense_grid")] == 64
    assert defaults[("trials", "run_checks")] == defaults[("trials", "smoothness_check")] == 32


def test_usage_errors_exit_2(capsys):
    assert _run([], capsys)[0] == 2
    assert _run(["cover"], capsys)[0] == 2
    assert _run(["cover", "--dimension", "2", "--bogus"], capsys)[0] == 2
    assert _run(["sample", "--path", "x.json"], capsys)[0] == 2


def _cli_env(unbuffered):
    """The environment of a command run as a child, its stdout unbuffered or
    written from a buffer at the end."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(pathcert.__file__).resolve().parents[1])
    return dict(env, PYTHONUNBUFFERED="1") if unbuffered else env


@pytest.mark.parametrize(
    "argv,code",
    [
        (["cover", "--dimension", "3"], 0),
        (["probe", "--field", "parabola", *_SMALL_PROBE], 1),
    ],
    ids=["cover", "parabola-probe"],
)
def test_python_m_writes_the_bytes_and_the_exit_code_of_main(capsys, argv, code):
    """``python -m pathcert.cli``, which leaves through run() and os._exit,
    writes to a pipe the bytes main prints, from its stdout buffer, and
    exits with main's code."""
    rc, out, _ = _run(argv, capsys)
    assert rc == code
    done = subprocess.run(
        [sys.executable, "-m", "pathcert.cli", *argv], env=_cli_env(False), capture_output=True
    )
    assert (done.returncode, done.stdout) == (rc, out.encode())
    assert b"Traceback" not in done.stderr


def test_run_keeps_the_exit_handlers_and_the_exit_code_of_main(tmp_path, capsys):
    """An atexit handler registered before run() still runs, and a failed
    build stage exits 3 through run() as through main."""
    witness = tmp_path / "narrow.json"
    witness.write_text(json.dumps(
        {"dimension": 2, "pairs": [{"x": [0.4, 0.0]}, {"x": [0.41, 0.0]}, {"x": [0.42, 0.0]}]}
    ))
    argv = ["build", "--witness", str(witness), "--out", str(tmp_path / "p.json")]
    assert _run(argv, capsys)[0] == 3
    code = (
        "import atexit, sys\n"
        "atexit.register(print, 'exit handler ran')\n"
        "from pathcert.cli import run\n"
        "run()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=_cli_env(False), capture_output=True, text=True
    )
    assert done.returncode == 3
    assert done.stdout == "exit handler ran\n"
    assert done.stderr.startswith("pipeline error: ")


def test_a_closed_or_broken_stdout_drops_only_the_status_line(tmp_path, capsys, monkeypatch):
    """With its stdout pipe closed before it writes, or with fd 1 closed, a
    sample writes the CSV main writes and exits 0, with no traceback; cover,
    whose output is stdout, exits 2 with fd 1 closed, as main does with no
    sys.stdout.  Unbuffered, the status line's own print meets the broken
    pipe."""
    path = _build_path_file(tmp_path, capsys)

    def sample(name):
        return ["sample", "--path", path, "--out", str(tmp_path / name), "--points", "64"]

    assert _run(sample("expected.csv"), capsys)[0] == 0
    expected = tmp_path / "expected.csv"
    python_m = [sys.executable, "-m", "pathcert.cli"]

    child = subprocess.Popen([*python_m, *sample("broken.csv")], env=_cli_env(True),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 0
    assert b"Traceback" not in err
    assert (tmp_path / "broken.csv").read_bytes() == expected.read_bytes()

    # sh runs the command with fd 1 closed, so sys.stdout is None
    closed = ["sh", "-c", 'exec "$@" >&-', "sh"]
    done = subprocess.run(
        [*closed, *python_m, *sample("closed.csv")], env=_cli_env(True), capture_output=True
    )
    assert done.returncode == 0 and b"Traceback" not in done.stderr
    assert (tmp_path / "closed.csv").read_bytes() == expected.read_bytes()

    cover = ["cover", "--dimension", "3"]
    done = subprocess.run(
        [*closed, *python_m, *cover], env=_cli_env(True), capture_output=True, text=True
    )
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(cover) == done.returncode == 2
    assert done.stderr == capsys.readouterr().err == (
        "error: cannot write standard output: it is closed\n"
    )


def test_main_leaves_the_collector_the_open_files_and_the_threads_as_found(tmp_path, capsys):
    """run() may skip the interpreter's teardown because main, in every
    command, closes what it opens and starts no thread; nor does it touch
    the collector, which run() alone sets."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd here")
    witness = _write_witness(tmp_path)
    path = str(tmp_path / "path.json")
    commands = [
        ["build", "--witness", witness, "--k-max", "12", "--out", path],
        ["sample", "--path", path, "--out", str(tmp_path / "s.csv"), "--points", "64"],
        ["check", "--path", path, "--suite", "interpolation", "--out", str(tmp_path / "r.json")],
        ["probe", "--field", "rational2d", *_SMALL_PROBE, "--out", str(tmp_path / "probe.json"),
         "--tail-csv", str(tmp_path / "tail.csv"), "--path-out", str(tmp_path / "p2.json")],
        ["cover", "--dimension", "3", "--out", str(tmp_path / "cover.json")],
        ["cover", "--dimension", "3"],
    ]

    def state():
        fds = sorted(os.listdir("/proc/self/fd"))
        return gc.isenabled(), gc.get_freeze_count(), fds, threading.active_count()

    before = state()
    for argv in commands:
        assert _run(argv, capsys)[0] == 0, argv
        assert state() == before, argv


def test_no_module_registers_an_exit_handler():
    """run() runs the atexit handlers registered by the time main returns,
    then ends the process; pathcert itself registers none."""
    sources = sorted(Path(pathcert.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    registering = ("atexit.register", "from atexit import")
    assert [p.name for p in sources if any(s in p.read_text() for s in registering)] == []


def test_the_installed_script_is_the_entry_point_of_python_m():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"pathcert": "pathcert.cli:run"}


def test_import_sets_one_blas_thread_unless_set():
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(pathcert.__file__).resolve().parents[1])
    env["MKL_NUM_THREADS"] = "2"
    names = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
    code = f"import os, pathcert; print(*(os.environ[v] for v in {names!r}))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["1", "2", "1"]


def test_the_suite_runs_blas_on_the_thread_count_of_the_commands():
    """A command's OpenBLAS runs on one thread, and the suite's on the count
    its environment names, also 1 unless set: conftest imports pathcert
    before numpy.  The float32 cover filter is a BLAS product, so only then
    do its tests run what the commands run."""
    libs = glob.glob(str(Path(numpy.__file__).parent.with_name("numpy.libs") / "*openblas*"))
    if not libs:
        pytest.skip("numpy bundles no OpenBLAS here")
    threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    threads.argtypes, threads.restype = [], ctypes.c_int
    code = (
        "import ctypes, pathcert, numpy\n"
        f"print(ctypes.CDLL({libs[0]!r}).scipy_openblas_get_num_threads64_())\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(pathcert.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["1"]
    assert threads() == int(os.environ["OPENBLAS_NUM_THREADS"])


def test_high_dimensional_commands_import_no_scipy(tmp_path):
    """Covers, builds and probes in dimension >= 4 run without scipy."""
    witness = tmp_path / "witness5.json"
    witness.write_text(
        json.dumps(
            {"dimension": 5, "generator": {"kind": "spiral", "count": 200, "stop": 0.012}}
        )
    )
    runs = [
        ["cover", "--dimension", "5", "--out", str(tmp_path / "cover.json")],
        ["build", "--witness", str(witness), "--out", str(tmp_path / "path.json")],
        ["probe", "--field", "expr:x1^2/(x1^2+x2^2+x3^2+x4^2)", "--generator", "spiral"],
    ]
    code = (
        "import sys\n"
        "from pathcert import cli\n"
        f"print('exit codes:', *(cli.main(argv) for argv in {runs!r}))\n"
        "print('scipy modules:', *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pathcert.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-2:] == ["exit codes: 0 0 0", "scipy modules:"]


# every name the package exports
PACKAGE_NAMES = (
    "DomainError ExpressionError InputError PipelineError WitnessNotFoundError "
    "CONE_HALF_ANGLE DEFAULT_COVER_HALF_ANGLE ConeSpec SphereCover UnitDirection "
    "build_sphere_cover cone_contains cone_contains_many select_dominant_cone select_parity "
    "shell_index BUILTIN_FIELDS ProbeReport ScalarField certify_discontinuity derive_witness "
    "field_from_expression get_builtin_field SmoothPath bump_kernel build_smooth_path "
    "dense_grid eval_smooth eval_smooth_derivative eval_smooth_derivative_many "
    "eval_smooth_many sample_path PathBuild build_path AnchorSequence PiecewiseAffinePath "
    "WitnessSequence build_anchor_sequence build_skeleton eval_affine eval_affine_derivative "
    "CheckReport coincidence_check envelope_check interpolation_check product_bound_scan "
    "run_checks smoothness_check"
).split()


def test_two_dimensional_commands_skip_numpy_random_and_ma(tmp_path):
    """A 2-D build and a 2-D probe load neither numpy.random (their covers
    are proved by spacing, not sampled), numpy.ma nor statistics (they make
    no Halton directions); sample and check, whose checks draw no random
    numbers, load none of them either.  The build, which
    evaluates no path, never builds the kernel table.  Each command loads
    only its own modules: build and sample none of the verifier, the
    harness, the expression parser and numpy.polynomial, and check not the
    harness.  Importing the package pins the BLAS threads and loads no
    numpy; every name it exports resolves from it."""
    witness = tmp_path / "witness2.json"
    witness.write_text(
        json.dumps(
            {"dimension": 2, "generator": {"kind": "diagonal", "count": 160, "stop": 0.012}}
        )
    )
    path = str(tmp_path / "path.json")
    build = ["build", "--witness", str(witness), "--out", path]
    sample = ["sample", "--path", path, "--out", str(tmp_path / "samples.csv")]
    check = ["check", "--path", path, "--out", str(tmp_path / "report.json")]
    probes = [
        ["probe", "--field", "builtin:rational2d", "--generator", "diagonal"],
        ["probe", "--field", "expr:2*x1*x2/(x1^2+x2^2)", "--generator", "spiral"],
    ]
    own = ("pathcert.verifier", "pathcert.harness", "pathcert.expressions", "numpy.polynomial")
    head = (
        "import os, sys\n"
        "import pathcert\n"
        "print('numpy loaded:', 'numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])\n"
        "from pathcert import cli\n"
        "def loaded(*names):\n"
        "    return [name for name in names if name in sys.modules]\n"
    )
    commands = head + (
        "from pathcert.mollifier import _kernel_table\n"
        f"print('exit codes:', cli.main({build!r}))\n"
        "print('kernel tables built:', _kernel_table.cache_info().currsize)\n"
        f"print('exit codes:', cli.main({sample!r}))\n"
        f"print('loaded:', *loaded('numpy.random', 'numpy.ma', 'statistics', *{own!r}))\n"
        f"print('exit codes:', cli.main({check!r}))\n"
        f"print('loaded:', *loaded('numpy.random', 'numpy.ma', 'statistics', *{own[1:]!r}))\n"
    )
    probing = head + (
        f"print('exit codes:', *(cli.main(argv) for argv in {probes!r}))\n"
        "print('loaded:', *loaded('numpy.random', 'numpy.ma', 'numpy.polynomial', 'statistics'))\n"
        f"print('unresolved:', *[n for n in {PACKAGE_NAMES!r} if not hasattr(pathcert, n)])\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(pathcert.__file__).resolve().parents[1])
    keep = ("numpy", "exit", "loaded", "kernel", "unresolved")
    lines = []
    for code in (commands, probing):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        lines += [line for line in done.stdout.splitlines() if line.startswith(keep)]
    assert lines == [
        "numpy loaded: False 1", "exit codes: 0", "kernel tables built: 0",
        "exit codes: 0", "loaded:", "exit codes: 0", "loaded:",
        "numpy loaded: False 1", "exit codes: 0 0", "loaded:", "unresolved:",
    ]
    assert sorted(pathcert.__all__) == sorted(PACKAGE_NAMES)


def _run_commands_and_grid_covers(tmp_path, dimensions, after, angles):
    """Build a spiral path ``path<d>.json`` in each of ``dimensions``, then
    run the commands ``after``, in a fresh interpreter, and assert that
    every command exits 0 and none loads numpy.random.  Then build the grid
    cover at each ``(d, half_angle)`` of ``angles`` in a second interpreter
    with numpy's dispatched SIMD kernels switched off, and assert that it
    gets the bits this one gets."""
    commands = []
    for dimension in dimensions:
        witness = tmp_path / f"witness{dimension}.json"
        generator = {"kind": "spiral", "count": 160, "stop": 0.012}
        witness.write_text(json.dumps({"dimension": dimension, "generator": generator}))
        commands.append(
            ["build", "--witness", str(witness), "--out", str(tmp_path / f"path{dimension}.json")]
        )
    commands += after
    code = (
        "import sys\n"
        "from pathcert import cli\n"
        f"print('exit codes:', *(cli.main(argv) for argv in {commands!r}))\n"
        "print('loaded:', *[n for n in ('numpy.random',) if n in sys.modules])\n"
    )
    covers = (
        "import hashlib\n"
        "from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__\n"
        "from pathcert.geometry import build_sphere_cover\n"
        "print('dispatched:', *[f for f in __cpu_dispatch__ if __cpu_features__.get(f)])\n"
        f"for d, half_angle in {angles!r}:\n"
        "    directions = build_sphere_cover(d, half_angle).directions\n"
        "    print('cover', d, half_angle, hashlib.sha256(directions.tobytes()).hexdigest())\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(pathcert.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    lines = [line for line in done.stdout.splitlines() if line.startswith(("exit", "loaded"))]
    assert lines == ["exit codes: " + " ".join(["0"] * len(commands)), "loaded:"]
    env["NPY_DISABLE_CPU_FEATURES"] = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
    done = subprocess.run(
        [sys.executable, "-c", covers], env=env, capture_output=True, text=True, check=True
    )
    mine = []
    for d, half_angle in angles:
        directions = geometry.build_sphere_cover(d, half_angle).directions
        mine.append(f"cover {d} {half_angle} {hashlib.sha256(directions.tobytes()).hexdigest()}")
    assert done.stdout.splitlines() == ["dispatched:", *mine]


def test_three_dimensional_commands_skip_numpy_random(tmp_path):
    """A 3-D build and 3-D probes load no numpy.random: the 3-D cover is a
    cube-face grid, proved by construction, not sampled.  With numpy's
    dispatched SIMD kernels switched off, the grid covers at the default
    angle and at 5 and 0.5 degrees come out with the same bits: they rest on
    np.sin, np.cos, np.sqrt and basic arithmetic alone."""
    probes = [
        ["probe", "--field", "builtin:rational3d", "--generator", "spiral"],
        ["probe", "--field", "expr:(0.6*x1 + 0.8*x3)/norm(x)", "--generator", "ray",
         "--axis=0.6,0,0.8", "--count", "160", "--stop", "0.013"],
    ]
    angles = [
        (3, geometry.DEFAULT_COVER_HALF_ANGLE), (3, math.radians(5.0)), (3, math.radians(0.5)),
    ]
    _run_commands_and_grid_covers(tmp_path, (3,), probes, angles)


def test_four_and_five_dimensional_commands_skip_numpy_random(tmp_path):
    """A 4-D and a 5-D build and probe load no numpy.random: their covers are
    cube-face grids, proved by construction, not sampled.  With numpy's
    dispatched SIMD kernels switched off, both default grid covers come out
    with the same bits."""
    probes = [
        ["probe", "--field", "expr:x4/norm(x)", "--generator", "ray", "--axis=0,0,0,1",
         "--count", "160", "--stop", "0.013"],
        ["probe", "--field", "expr:(x1 + x5)/norm(x)", "--generator", "spiral"],
    ]
    angles = [(4, geometry.DEFAULT_COVER_HALF_ANGLE), (5, geometry.DEFAULT_COVER_HALF_ANGLE)]
    _run_commands_and_grid_covers(tmp_path, (4, 5), probes, angles)


def test_six_dimensional_build_and_check_skip_numpy_random(tmp_path):
    """A 6-D build and a check of its path with all six suites load no
    numpy.random: the 6-D cover is a cube-face grid, proved by construction,
    and no check draws a random number.  With numpy's dispatched SIMD kernels
    switched off, the default 6-D grid cover comes out with the same bits."""
    check = ["check", "--path", str(tmp_path / "path6.json"), "--suite", "all"]
    _run_commands_and_grid_covers(
        tmp_path, (6,), [check], [(6, geometry.DEFAULT_COVER_HALF_ANGLE)]
    )
