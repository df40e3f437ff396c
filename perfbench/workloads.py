"""Workload definitions: the CLI operations of one cycle and their output checks.

Every workload is a closed loop with one client: the benchmark starts an
operation, waits for its child process to end, checks its output, and
only then starts the next.  A cycle holds each operation kind (build,
check, sample, probe) at least once, so every end-to-end metric exists
on every workload; the inputs decide which layers do the work.

Why each workload, and what it should stress or bypass.  Shares were
profiled on a 2-core x86-64 VM (Python 3.11, numpy 2.4); a claimed gain
checks its trace against them.

certify-2d
    240 points within 0.95*pi/6 of a seeded axis, norms 0.45 -> 0.012 (the
    shape of the test suite's cone fixture): build --k-max 40, check
    --restricted --seed <seed> with all six suites, sample --points 16384
    --grid log.  Interleaved with them, the probe mix, round robin:
    rational2d and rational3d on seeded witness files (within 5 degrees
    of the diagonal, so |f| >= 0.5 at every point), the same rational
    field as expr: on the diagonal generator, and parabola, which finds
    no survivors, falls back to the unfiltered sequence and exits 1 by
    design.  check (~9 s, ~70% of it lemma1, product ~13%, coincidence
    ~6%) and sample (~2.6 s) stress window evaluation (mollifier,
    quadrature) and the verifier; ~60% of a probe is interpreter start
    and import, the rest per-row field calls in harness and expressions.
    Geometry is bypassed (a 21-direction cover).  Should move check_s,
    sample_rows_per_s and probe_per_s; a geometry change should not.
build-5d
    200-point spiral in 5-D (Halton directions) under a seeded rotation:
    build --k-max 40 --seed 0, check of the cheap path-dependent suites,
    sample, and a 3-D probe of the cosine-to-axis field along a seeded
    ray (a 5-D probe would cost ~6 s, too long to sample several times
    per run).  The build is ~95% geometry: cover verification (~4 s) and
    8192 directions x 200 points of scalar cone_contains (~6.5 s), 358 MB
    peak.  Window evaluation is negligible in the build, so closed-form
    windows should leave build_s unchanged here; batched geometry should
    move build_s and peak_rss_mb.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from inputs import axis_field_expression, write_inputs

WORKLOADS = ("certify-2d", "build-5d")
SAMPLE_POINTS = 16384
ALL_SUITES = ("lemma1", "interpolation", "envelope", "product", "smoothness", "coincidence")
# the suites that depend on the built path and stay cheap; lemma1 does not
# read the path, so it runs only where check_s is meant to include it
PATH_SUITES = "interpolation,envelope,coincidence"
CERTIFIED = "discontinuous-certified"
NOT_FOUND = "no-violation-found"
RATIONAL_EXPR = "2*x1*x2/(x1^2 + x2^2)"


class OutputError(Exception):
    """An operation's output failed one of the benchmark's checks."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``pathcert <argv>``, expected exit code and output."""

    kind: str
    label: str
    argv: tuple[str, ...]
    out: Path
    expect_exit: int = 0
    verdict: str = ""


def _csv(values) -> str:
    # passed as --axis=<csv>, since a leading minus sign would read as an option
    return ",".join(repr(float(v)) for v in values)


def cycle(workload: str, seed: int, inputs_dir: Path, work: Path) -> list[Op]:
    """Write the seeded inputs and return the operations of one cycle."""
    made = write_inputs(seed, inputs_dir)
    witness = {name: str(path) for name, path in made["paths"].items()}
    work.mkdir(parents=True, exist_ok=True)

    def out(label: str, suffix: str) -> Path:
        return work / f"{label}.{suffix}"

    def build(label, source, *extra):
        path = out(label, "path.json")
        return Op("build", label, ("build", "--witness", source, "--k-max", "40",
                                   *extra, "--out", str(path)), path)

    def check(label, built: Op, *extra):
        return Op("check", label, ("check", "--path", str(built.out), *extra,
                                   "--seed", str(seed), "--out", str(out(label, "report.json"))),
                  out(label, "report.json"))

    def sample(label, built: Op):
        return Op("sample", label, ("sample", "--path", str(built.out), "--points",
                                    str(SAMPLE_POINTS), "--grid", "log",
                                    "--out", str(out(label, "csv"))), out(label, "csv"))

    def probe(label, field, *extra, expect_exit=0, verdict=CERTIFIED):
        target = out(label, "probe.json")
        return Op("probe", label, ("probe", "--field", field, *extra, "--out", str(target)),
                  target, expect_exit, verdict)

    # short operations repeat within a cycle, so that each metric gets
    # several samples spread over the run
    if workload == "certify-2d":
        built = build("c2-build", witness["certify-2d"])
        mix = [
            probe("p-rational2d", "builtin:rational2d", "--witness", witness["probe2d"]),
            probe("p-rational3d", "builtin:rational3d", "--witness", witness["probe3d"]),
            probe("p-expr", "expr:" + RATIONAL_EXPR, "--generator", "diagonal",
                  "--count", "160", "--stop", "0.013"),
            probe("p-parabola", "builtin:parabola", "--generator", "diagonal", "--count",
                  "160", "--stop", "0.013", "--k-max", "60", "--tail-delta", "0.01",
                  expect_exit=1, verdict=NOT_FOUND),
        ]
        # two checks per cycle: check is the longest operation (~9 s), so
        # check_s needs most of the run to get four or more samples
        checked = check("c2-check", built, "--restricted")
        sampled = sample("c2-sample", built)
        return [built, checked, mix[0], sampled, mix[1],
                built, checked, mix[2], sampled, mix[3]]
    if workload == "build-5d":
        # the build seed stays fixed: it seeds cover verification and so the cover size
        built = build("d5-build", witness["build-5d"], "--seed", "0")
        axis = made["axis3"]
        checked = check("d5-check", built, "--suite", PATH_SUITES)
        sampled = sample("d5-sample", built)
        probed = probe("d5-probe", "expr:" + axis_field_expression(axis), "--generator", "ray",
                       "--axis=" + _csv(axis), "--count", "160", "--stop", "0.013")
        return [built, checked, probed, sampled, probed, built, checked, probed, sampled,
                probed, checked]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def unique(ops: list[Op]) -> list[Op]:
    """The cycle with each operation once, in first-seen order."""
    return list({op.label: op for op in ops}.values())


def requested_suites(op: Op) -> tuple[str, ...]:
    argv = list(op.argv)
    if "--suite" not in argv:
        return ALL_SUITES
    return tuple(argv[argv.index("--suite") + 1].split(","))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify(op: Op, load_build) -> str:
    """Check an operation's output file; returns its sha256.

    ``load_build`` is pathcert's path-file loader, passed in so this module
    does not import the program.  Raises OutputError on any failed check.
    """
    if not op.out.is_file():
        raise OutputError(f"{op.label}: no output file {op.out.name}")
    if op.kind == "build":
        try:
            load_build(str(op.out))
        except Exception as exc:  # any rejection by the loader is a failed output
            raise OutputError(f"{op.label}: path JSON does not reload: {exc}") from exc
    elif op.kind == "check":
        reports = json.loads(op.out.read_text())
        names = tuple(r.get("name") for r in reports)
        if names != requested_suites(op):
            raise OutputError(f"{op.label}: report has checks {names}")
        failed = [r["name"] for r in reports if r.get("passed") is not True]
        if failed:
            raise OutputError(f"{op.label}: checks not passed: {', '.join(failed)}")
    elif op.kind == "sample":
        lines = op.out.read_text().splitlines()
        if len(lines) != SAMPLE_POINTS + 1:
            raise OutputError(f"{op.label}: {len(lines) - 1} rows, want {SAMPLE_POINTS}")
        width = len(lines[0].split(","))
        for number, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            if len(fields) != width or not all(math.isfinite(float(v)) for v in fields):
                raise OutputError(f"{op.label}: row {number} is not {width} finite numbers")
    elif op.kind == "probe":
        verdict = json.loads(op.out.read_text()).get("verdict")
        if verdict != op.verdict:
            raise OutputError(f"{op.label}: verdict {verdict!r}, want {op.verdict!r}")
    return sha256(op.out)
