"""Acceptance gate: every certification bound at its stated tolerance.

Each test prints a single pass/fail line with the measured quantity so
a full run reads as a scorecard, then asserts the same conditions.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import quad

from conftest import FIXTURE_CASES, RESTRICTED_KINDS

from pathcert import cli
from pathcert import verifier
from pathcert.mollifier import KERNEL_C, SmoothPath, bump_kernel, dense_grid, eval_smooth_many
from quadrature import integrate_panels
from pathcert.skeleton import eval_affine_many
from pathcert.verifier import (
    coincidence_check,
    envelope_check,
    interpolation_check,
    lemma1_random_suite,
    product_bound_scan,
    smoothness_check,
)


def _announce(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"acceptance {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_averaged_derivative_bound(capsys):
    """Kernel-averaged slope of random segmented paths stays under the
    slope-norm budget."""
    started = time.perf_counter()
    report = lemma1_random_suite(seed=0)
    elapsed = time.perf_counter() - started
    assert report.threshold == 1.0 + 1e-7
    assert "over 100 random paths, 50 points each" in report.details
    ok = report.passed and report.measured <= 1.0 + 1e-7 and elapsed < 10.0
    _announce(
        capsys,
        "averaged-derivative-bound",
        ok,
        f"max ratio {report.measured:.12f} over 100 paths x 50 points, {elapsed:.2f}s",
    )
    assert report.passed
    assert report.measured <= 1.0 + 1e-7
    assert elapsed < 10.0


def test_anchor_interpolation(capsys, builds):
    """Every matched anchor is hit in value and derivative to 1e-9."""
    started = time.perf_counter()
    worst = -math.inf
    failures = []
    for case in FIXTURE_CASES:
        build = builds[case]
        report = interpolation_check(build.path, build.anchors)
        assert report.threshold == 1e-9
        worst = max(worst, report.measured)
        if not report.passed:
            failures.append(case)
    elapsed = time.perf_counter() - started
    ok = not failures and worst <= 1e-9 and elapsed < 5.0
    _announce(
        capsys,
        "anchor-interpolation",
        ok,
        f"max deviation {worst:.3g} over {len(FIXTURE_CASES)} fixtures, {elapsed:.2f}s",
    )
    assert not failures
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_norm_envelope(capsys, builds):
    """The path norm stays under 1/k at every level k the product grid reaches,
    down to the level of the path's last anchor."""
    started = time.perf_counter()
    worst = -math.inf
    failures = []
    for case in FIXTURE_CASES:
        build = builds[case]
        report = envelope_check(build.path, dense_grid(build.path))
        assert report.threshold == 1e-10
        deepest = int(report.details.rsplit(" to ", 1)[1])
        assert deepest >= case[2]
        worst = max(worst, report.measured)
        if not report.passed:
            failures.append(case)
    elapsed = time.perf_counter() - started
    ok = not failures and worst <= 1e-10 and elapsed < 5.0
    _announce(
        capsys,
        "norm-envelope",
        ok,
        f"max excess {worst:.3g} over {len(FIXTURE_CASES)} fixtures, {elapsed:.2f}s",
    )
    assert not failures
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_speed_product_bound(capsys, builds):
    """Axis-confined witness data keeps norm times speed under 28; the
    free fixtures stay finite and are reported."""
    started = time.perf_counter()
    restricted_sup = -math.inf
    free_sup = -math.inf
    failures = []
    for case in FIXTURE_CASES:
        build = builds[case]
        restricted = case[0] in RESTRICTED_KINDS
        report = product_bound_scan(
            build.path, build.anchors, dense_grid(build.path), restricted=restricted
        )
        if restricted:
            restricted_sup = max(restricted_sup, report.measured)
            if not (report.passed and report.measured <= 28.0):
                failures.append(case)
        else:
            free_sup = max(free_sup, report.measured)
            if not (report.passed and math.isfinite(report.measured)):
                failures.append(case)
    elapsed = time.perf_counter() - started
    ok = not failures and restricted_sup <= 28.0 and math.isfinite(free_sup) and elapsed < 10.0
    _announce(
        capsys,
        "speed-product-bound",
        ok,
        f"confined sup {restricted_sup:.3f} <= 28, free sup {free_sup:.3f}, {elapsed:.2f}s",
    )
    assert not failures
    assert restricted_sup <= 28.0
    assert math.isfinite(free_sup)
    assert elapsed < 10.0


def test_smoothness_order(capsys, builds):
    """Central differences of s and s' stay within Taylor's second-order
    bound of the exact s' and s'' on the mollified path; the raw skeleton
    fails the same probe at its kinks."""
    started = time.perf_counter()
    failures = []
    worst = -math.inf
    assert (verifier.FD_FLOOR1, verifier.FD_FLOOR2, verifier.FD_ROUNDING) == (1e-8, 1e-7, 64.0)
    for case in FIXTURE_CASES:
        build = builds[case]
        report = smoothness_check(build.path, trials=100)
        assert report.threshold == 1.0
        worst = max(worst, report.measured)
        if not report.passed:
            failures.append(case)
    # the spiral skeleton carries order-one slope jumps at its kinks;
    # the diagonal one is collinear and its kinks vanish to rounding
    control_build = builds[("spiral", 2, 20)]
    control = SmoothPath(skeleton=control_build.path.skeleton, lo=(), hi=(), h=())
    control_report = smoothness_check(control, trials=40)
    elapsed = time.perf_counter() - started
    ok = not failures and not control_report.passed and elapsed < 10.0
    _announce(
        capsys,
        "smoothness-order",
        ok,
        f"worst error / bound {worst:.3g} over {len(FIXTURE_CASES)} fixtures, "
        f"kinked control {control_report.measured:.3g}, {elapsed:.2f}s",
    )
    assert not failures
    assert not control_report.passed
    assert control_report.measured >= 10.0
    assert elapsed < 10.0


def test_skeleton_coincidence(capsys, builds):
    """Outside the blend windows, and through a band around each anchor
    time, the smooth path equals its skeleton to 1e-10."""
    started = time.perf_counter()
    failures = []
    worst = -math.inf
    assert verifier.COINCIDENCE_POINTS_PER_REGION == 64
    for case in FIXTURE_CASES:
        build = builds[case]
        report = coincidence_check(build.path)
        assert report.threshold == 1e-10
        worst = max(worst, report.measured)
        if not report.passed:
            failures.append(case)
        path = build.path
        lo, hi = path.domain
        for k, (t0, t1, _) in enumerate(build.anchors.times.tolist(), start=1):
            h = (t0 - t1) / 4.0
            band_lo = max(t0 - h, np.nextafter(lo, hi))
            band_hi = min(t0 + h, hi)
            ts = np.linspace(band_lo, band_hi, 64)
            dev = float(
                np.max(
                    np.abs(eval_smooth_many(path, ts) - eval_affine_many(path.skeleton, ts))
                )
            )
            worst = max(worst, dev)
            if dev > 1e-10:
                failures.append((case, k))
    elapsed = time.perf_counter() - started
    ok = not failures and worst <= 1e-10
    _announce(
        capsys,
        "skeleton-coincidence",
        ok,
        f"max deviation {worst:.3g} across gaps and anchor bands, {elapsed:.2f}s",
    )
    assert not failures
    assert worst <= 1e-10


def test_field_probe_end_to_end(capsys, tmp_path):
    """A genuinely discontinuous field certifies along the built path; a
    continuous one is correctly left uncertified with a shrinking tail."""
    started = time.perf_counter()
    cert_out = tmp_path / "certified.json"
    rc_cert = cli.main(
        [
            "probe", "--field", "builtin:rational2d",
            "--generator", "diagonal", "--count", "160", "--stop", "0.013",
            "--out", str(cert_out),
        ]
    )
    null_out = tmp_path / "continuous.json"
    rc_null = cli.main(
        [
            "probe", "--field", "builtin:parabola",
            "--generator", "diagonal", "--count", "160", "--stop", "0.013",
            "--k-max", "60", "--tail-delta", "0.01",
            "--out", str(null_out),
        ]
    )
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    certified = json.loads(cert_out.read_text())
    continuous = json.loads(null_out.read_text())
    rung = next(
        row["sup"] for row in continuous["tail_profile"] if row["delta"] == 0.01
    )
    ok = (
        rc_cert == 0
        and certified["verdict"] == "discontinuous-certified"
        and certified["limsup_estimate"] >= 1.0 - 1e-9
        and rc_null == 1
        and continuous["verdict"] == "no-violation-found"
        and rung <= 1e-4
        and elapsed < 5.0
    )
    _announce(
        capsys,
        "field-probe",
        ok,
        f"limsup {certified['limsup_estimate']:.9f} (exit {rc_cert}), "
        f"tail sup {rung:.3g} at delta 0.01 (exit {rc_null}), {elapsed:.2f}s",
    )
    assert rc_cert == 0
    assert certified["verdict"] == "discontinuous-certified"
    assert certified["limsup_estimate"] >= 1.0 - 1e-9
    assert rc_null == 1
    assert continuous["verdict"] == "no-violation-found"
    assert rung <= 1e-4
    assert elapsed < 5.0


def test_kernel_normalization(capsys):
    """The bump kernel has unit mass and its constant matches an
    independent adaptive quadrature to 6 significant digits."""
    edges = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    mass = float(integrate_panels(bump_kernel, edges, order=32, tol=1e-15))
    mass_error = abs(mass - 1.0)

    def bare(u):
        if -1.0 < u < 1.0:
            return math.exp(-1.0 / (1.0 - u * u))
        return 0.0

    integral, quad_error = quad(bare, -1.0, 1.0, epsabs=1e-14, epsrel=1e-14)
    oracle = 1.0 / integral
    rel = abs(KERNEL_C - oracle) / oracle
    ok = mass_error <= 1e-12 and rel <= 1e-6 and abs(KERNEL_C - 2.252284) <= 5e-7
    _announce(
        capsys,
        "kernel-normalization",
        ok,
        f"|mass-1| {mass_error:.2e}, c {KERNEL_C:.10f} vs oracle {oracle:.10f} "
        f"(quad err {quad_error:.1e})",
    )
    assert mass_error <= 1e-12
    assert rel <= 1e-6
    assert abs(KERNEL_C - 2.252284) <= 5e-7


def test_deterministic_outputs(capsys, tmp_path):
    """Identical configurations produce byte-identical path and report
    files on repeated runs."""
    witness = tmp_path / "witness.json"
    witness.write_text(
        json.dumps(
            {
                "dimension": 2,
                "generator": {"kind": "diagonal", "count": 120, "stop": 0.02},
            }
        )
    )
    results = []
    for tag in ("one", "two"):
        path_file = tmp_path / f"path-{tag}.json"
        rc_build = cli.main(
            ["build", "--witness", str(witness), "--k-max", "12", "--out", str(path_file)]
        )
        report_file = tmp_path / f"reports-{tag}.json"
        rc_check = cli.main(
            [
                "check", "--path", str(path_file),
                "--suite", "interpolation,envelope,product,smoothness,coincidence",
                "--per-decade", "512", "--per-window", "16", "--trials", "50",
                "--out", str(report_file),
            ]
        )
        results.append(
            (rc_build, rc_check, path_file.read_bytes(), report_file.read_bytes())
        )
    capsys.readouterr()
    codes_ok = all(r[0] == 0 and r[1] == 0 for r in results)
    paths_match = results[0][2] == results[1][2]
    reports_match = results[0][3] == results[1][3]
    ok = codes_ok and paths_match and reports_match
    _announce(
        capsys,
        "deterministic-outputs",
        ok,
        f"path bytes {'equal' if paths_match else 'differ'}, "
        f"report bytes {'equal' if reports_match else 'differ'}, "
        f"{len(results[0][2])}B path file",
    )
    assert codes_ok
    assert paths_match
    assert reports_match
