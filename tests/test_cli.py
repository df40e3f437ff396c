"""End-to-end command line runs with real files."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathcert
from pathcert import cli


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
    assert text.startswith("build:")
    assert "parity" in text
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


def test_usage_errors_exit_2(capsys):
    assert _run([], capsys)[0] == 2
    assert _run(["cover"], capsys)[0] == 2
    assert _run(["cover", "--dimension", "2", "--bogus"], capsys)[0] == 2
    assert _run(["sample", "--path", "x.json"], capsys)[0] == 2


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


def test_two_dimensional_commands_skip_numpy_random_and_ma(tmp_path):
    """A 2-D build and a 2-D probe load neither numpy.random (their covers
    are proved by spacing, not sampled) nor numpy.ma; check and sample,
    run after them, never load numpy.ma.  The build, which evaluates no
    path, never constructs the kernel."""
    witness = tmp_path / "witness2.json"
    witness.write_text(
        json.dumps(
            {"dimension": 2, "generator": {"kind": "diagonal", "count": 160, "stop": 0.012}}
        )
    )
    path = str(tmp_path / "path.json")
    build = ["build", "--witness", str(witness), "--out", path]
    first = [
        ["probe", "--field", "builtin:rational2d", "--generator", "diagonal"],
        ["probe", "--field", "expr:2*x1*x2/(x1^2+x2^2)", "--generator", "spiral"],
    ]
    then = [
        ["check", "--path", path, "--out", str(tmp_path / "report.json")],
        ["sample", "--path", path, "--out", str(tmp_path / "samples.csv")],
    ]
    code = (
        "import sys\n"
        "from pathcert import cli\n"
        "from pathcert.mollifier import make_kernel\n"
        "def loaded(*names):\n"
        "    return [name for name in names if name in sys.modules]\n"
        f"print('exit codes:', cli.main({build!r}))\n"
        "print('kernels built:', make_kernel.cache_info().currsize)\n"
        f"print('exit codes:', *(cli.main(argv) for argv in {first!r}))\n"
        "print('loaded:', *loaded('numpy.random', 'numpy.ma'))\n"
        f"print('exit codes:', *(cli.main(argv) for argv in {then!r}))\n"
        "print('loaded:', *loaded('numpy.ma'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pathcert.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    keep = ("exit", "loaded", "kernels")
    lines = [line for line in done.stdout.splitlines() if line.startswith(keep)]
    assert lines == [
        "exit codes: 0", "kernels built: 0", "exit codes: 0 0", "loaded:", "exit codes: 0 0", "loaded:"
    ]
