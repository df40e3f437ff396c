"""Command line interface.

Subcommands: cover, build, sample, check, probe.  Exit codes: 0 for
success (all checks passed, discontinuity certified), 1 for a completed
run whose checks failed or found no violation, 2 for invalid input or
usage, 3 for a failed construction stage.

A subcommand's options are added when that subcommand is parsed, and the
verifier and the probing harness are imported only by the commands that
use them, so no command pays for another's modules.

``run()`` is the process entry point, of ``python -m pathcert.cli`` and of
the installed ``pathcert`` script.  It freezes the objects made at import
out of the collector's generations, runs ``main``, the ``atexit`` handlers
and a last flush of stdout and stderr, and ends the process with
``os._exit``, so the interpreter does not tear down the objects numpy and
pathcert made at import.  That is safe because ``main`` writes, closes and
renames every output before it returns, and pathcert starts no thread and
registers no exit handler.  An exception that escapes ``main`` still takes
the normal interpreter exit and prints its traceback.  Only under ``python
-m`` is the collector also off while this module imports numpy and
pathcert; the script imports it before ``run`` is called.  ``main(argv)``
itself leaves the collector, the open files and the exit handlers as it
found them.

Status lines on stdout are best effort: a command whose stdout is closed
or broken still writes its files and keeps its exit code.  ``cover``
without ``--out``, whose output is stdout, exits 2 instead.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # until run(): no collection could free an import's objects

import argparse
import atexit
import contextlib
import itertools
import math
import os
import sys
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from .errors import InputError, PipelineError, WitnessNotFoundError
from .generators import GENERATOR_KINDS, MAX_SIZES, GeneratorSpec, generate_points
from .geometry import DEFAULT_COVER_HALF_ANGLE, build_sphere_cover, require_seed
from .mollifier import DEFAULT_PER_DECADE, DEFAULT_PER_WINDOW, log_grid
from .pathfile import (
    atomic_write_chunks,
    atomic_write_text,
    check_writable,
    cover_to_json,
    load_build,
    load_witness,
    probe_to_json,
    reports_to_json,
    sample_csv_chunks,
    save_build,
    tail_to_csv,
)
from .pipeline import DEFAULT_K_MAX, build_path, check_k_max
from .skeleton import WitnessSequence

if TYPE_CHECKING:
    from .harness import ScalarField

_DEFAULT_HALF_ANGLE_DEG = math.degrees(DEFAULT_COVER_HALF_ANGLE)


def _parse_field(spec: str) -> ScalarField:
    from .harness import BUILTIN_FIELDS, field_from_expression, get_builtin_field

    if spec.startswith("builtin:"):
        return get_builtin_field(spec[len("builtin:"):])
    if spec.startswith("expr:"):
        return field_from_expression(spec[len("expr:"):])
    if spec in BUILTIN_FIELDS:
        return get_builtin_field(spec)
    return field_from_expression(spec)


# the file options of the commands, by attribute name; no command takes two inputs
_OUTPUTS = ("out", "tail_csv", "path_out")
_INPUTS = ("path", "witness")


def _same_file(first: str, second: str) -> bool:
    if os.path.realpath(first) == os.path.realpath(second):
        return True
    try:
        return os.path.samefile(first, second)
    except OSError:  # one of them does not exist yet
        return False


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


def _check_arguments(args: argparse.Namespace) -> None:
    """Reject, before any work, an output file that cannot be written or that
    is an input or another output of the command, a negative seed and a size
    argument below 1 or above its cap."""
    files = [(name, value) for name in _OUTPUTS + _INPUTS if (value := getattr(args, name, None))]
    for name, target in files:
        if name in _OUTPUTS:
            check_writable(target)
    for (name, target), (other, source) in itertools.combinations(files, 2):
        if _same_file(target, source):
            raise InputError(f"{_option(name)} and {_option(other)} name the same file: {target}")
    if hasattr(args, "seed"):
        require_seed(args.seed, "--seed")
    if hasattr(args, "k_max"):
        check_k_max(args.k_max)
    for name, cap in MAX_SIZES.items():
        value = getattr(args, name, 1)
        option = _option(name)
        if value > cap:
            raise InputError(f"{option} must be at most {cap}, got {value}")
        if value < 1:
            raise InputError(f"{option} must be at least 1, got {value}")


def _status(line: str) -> None:
    """Print a status line, or drop it if stdout is closed or broken: a
    command's results are its files and its exit code."""
    with contextlib.suppress(OSError):
        print(line)  # prints nothing when sys.stdout is None (fd 1 closed)


# ---- subcommands --------------------------------------------------------


def cmd_cover(args: argparse.Namespace) -> int:
    if not args.out and sys.stdout is None:
        raise InputError("cannot write standard output: it is closed")
    half_angle = math.radians(args.half_angle_deg)
    cover = build_sphere_cover(args.dimension, half_angle, seed=args.seed)
    text = cover_to_json(cover)
    if args.out:
        atomic_write_text(args.out, text)
        _status(f"cover: {cover.size} directions in dimension {cover.dimension} -> {args.out}")
        return 0
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise InputError(f"cannot write standard output: {exc.strerror or exc}") from exc
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    half_angle = math.radians(args.half_angle_deg)
    witness = load_witness(args.witness, half_angle)
    build = build_path(witness, k_max=args.k_max, half_angle=half_angle, seed=args.seed)
    save_build(args.out, build)
    lo, hi = build.path.domain
    _status(
        f"build: {len(build.anchors.matched)} matched anchors of {len(build.anchors.a)}, "
        f"parity {build.parity}, domain ({lo:.6g}, {hi:.6g}] -> {args.out}"
    )
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    build = load_build(args.path)
    lo, hi = build.path.domain
    t_min = args.t_min if args.t_min is not None else float(np.nextafter(lo, hi))
    t_max = args.t_max if args.t_max is not None else hi
    if not (lo < t_min <= t_max <= hi):
        raise InputError(
            f"sampling range [{t_min!r}, {t_max!r}] must lie inside ({lo!r}, {hi!r}]"
        )
    if args.points == 1:
        grid = np.array([t_max])
    elif args.grid == "log":
        grid = log_grid(t_min, t_max, args.points)
    else:
        grid = np.linspace(t_min, t_max, args.points)
    # evaluated, formatted and written one block of rows at a time
    atomic_write_chunks(args.out, sample_csv_chunks(build.path, grid))
    _status(f"sample: {grid.size} rows ({args.grid} grid) -> {args.out}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .verifier import SUITE_NAMES, run_checks

    build = load_build(args.path)
    if args.suite == "all":
        names = SUITE_NAMES
    else:
        names = tuple(part.strip() for part in args.suite.split(",") if part.strip())
        if not names:
            raise InputError("no checks selected")
    reports = run_checks(
        build.path,
        build.anchors,
        names,
        seed=args.seed,
        restricted=args.restricted,
        per_decade=args.per_decade,
        per_window=args.per_window,
        trials=args.trials,
    )
    if args.out:
        atomic_write_text(args.out, reports_to_json(reports))
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        _status(
            f"check {report.name}: {status} measured={report.measured:.6g} "
            f"threshold={report.threshold:.6g}"
        )
    return 0 if all(r.passed for r in reports) else 1


def cmd_probe(args: argparse.Namespace) -> int:
    from .harness import DEFAULT_EPSILON, certify_discontinuity, derive_witness

    field = _parse_field(args.field)
    epsilon = args.epsilon if args.epsilon is not None else DEFAULT_EPSILON
    if args.witness:
        witness = load_witness(args.witness)
    else:
        try:
            axis = tuple(float(v) for v in args.axis.split(",")) if args.axis else None
        except ValueError:
            raise InputError(f"--axis needs comma separated numbers, got {args.axis!r}") from None
        spec = GeneratorSpec(
            kind=args.generator,
            dimension=field.dimension,
            count=args.count,
            start=args.start,
            stop=args.stop,
            axis=axis,
        )
        try:
            witness = derive_witness(
                field, spec, epsilon=epsilon, min_count=args.min_witnesses
            )
        except WitnessNotFoundError as exc:
            print(f"probe: {exc}; falling back to the unfiltered sequence", file=sys.stderr)
            witness = WitnessSequence.ingest(generate_points(spec))
    report, build = certify_discontinuity(
        field,
        witness,
        k_max=args.k_max,
        epsilon=epsilon,
        seed=args.seed,
        extra_deltas=args.tail_delta or (),
    )
    if args.out:
        atomic_write_text(args.out, probe_to_json(report))
    if args.tail_csv:
        atomic_write_text(args.tail_csv, tail_to_csv(report))
    if args.path_out:
        save_build(args.path_out, build)
    _status(
        f"probe {field.name}: {report.verdict} "
        f"limsup~{report.limsup_estimate:.6g} epsilon={report.epsilon:.6g}"
    )
    return 0 if report.certified else 1


# ---- parser -------------------------------------------------------------


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which adds its options when it is first used."""

    def __init__(self, *args, add_options=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_options = add_options

    def parse_known_args(self, args=None, namespace=None):
        if self._add_options is not None:
            add_options, self._add_options = self._add_options, None
            add_options(self)
        return super().parse_known_args(args, namespace)


def _cover_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dimension", type=int, required=True)
    p.add_argument("--half-angle-deg", type=float, default=_DEFAULT_HALF_ANGLE_DEG)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the samples that check a cover from 7-D on; covers through 6-D "
                        "are proved and ignore it")
    p.add_argument("--out", default=None)


def _build_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--witness", required=True, help="witness JSON file")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    p.add_argument("--half-angle-deg", type=float, default=_DEFAULT_HALF_ANGLE_DEG)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the samples that check the sphere cover from 7-D on; "
                        "builds through 6-D ignore it")
    p.add_argument("--out", required=True, help="path JSON output")


def _sample_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--path", required=True, help="path JSON file")
    p.add_argument("--out", required=True, help="CSV output")
    p.add_argument("--grid", choices=("log", "uniform"), default="log")
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)


def _check_options(p: argparse.ArgumentParser) -> None:
    from .verifier import DEFAULT_TRIALS, SUITE_NAMES

    p.add_argument("--path", required=True, help="path JSON file")
    p.add_argument(
        "--suite",
        default="all",
        help=f"comma separated subset of: {', '.join(SUITE_NAMES)} (default all)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="unused: no check is random; a non-negative integer is still accepted "
                        "because the benchmark workloads pass it")
    p.add_argument("--restricted", action="store_true",
                   help="witness data stays near the cone axis: enforce the 28 bounds")
    p.add_argument("--per-decade", type=int, default=DEFAULT_PER_DECADE,
                   help="envelope and product grid: points per decade of t (default %(default)s)")
    p.add_argument("--per-window", type=int, default=DEFAULT_PER_WINDOW,
                   help="envelope and product grid: points per window (default %(default)s)")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                   help="generic smoothness points, besides two at each kink (default %(default)s)")
    p.add_argument("--out", default=None, help="report JSON output")


def _probe_options(p: argparse.ArgumentParser) -> None:
    from .harness import DEFAULT_MIN_WITNESSES

    p.add_argument(
        "--field",
        required=True,
        help="builtin:<name>, expr:<expression>, or a bare builtin name/expression",
    )
    p.add_argument("--witness", default=None, help="witness JSON file (skips generation)")
    p.add_argument("--generator", choices=GENERATOR_KINDS, default="spiral")
    p.add_argument("--count", type=int, default=GeneratorSpec.count)
    p.add_argument("--start", type=float, default=GeneratorSpec.start)
    p.add_argument("--stop", type=float, default=GeneratorSpec.stop)
    p.add_argument("--axis", default=None, help="comma separated ray axis")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--min-witnesses", type=int, default=DEFAULT_MIN_WITNESSES)
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tail-delta", type=float, action="append",
                   help="extra tail radius for the profile (repeatable)")
    p.add_argument("--out", default=None, help="probe report JSON output")
    p.add_argument("--tail-csv", default=None, help="tail profile CSV output")
    p.add_argument("--path-out", default=None, help="also save the built path JSON")


# name, help, options, command function
_COMMANDS = (
    ("cover", "emit a sphere cover as JSON", _cover_options, cmd_cover),
    ("build", "build a smooth path from witness data", _build_options, cmd_build),
    ("sample", "sample a built path to CSV", _sample_options, cmd_sample),
    ("check", "run certification checks on a built path", _check_options, cmd_check),
    ("probe", "probe a scalar field for a discontinuity", _probe_options, cmd_probe),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcert",
        description=(
            "Build smooth bounded-speed paths through prescribed point and "
            "derivative data, verify their bounds, and probe scalar fields "
            "for discontinuities at the origin."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, help_text, add_options, func in _COMMANDS:
        sub.add_parser(name, help=help_text, add_options=add_options).set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        _check_arguments(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WitnessNotFoundError as exc:
        print(f"probe: {exc}", file=sys.stderr)
        return 1
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 3


def run() -> NoReturn:
    """Run ``main`` on the process's arguments and end the process with its
    exit code, without the interpreter's teardown."""
    gc.freeze()
    gc.enable()
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            with contextlib.suppress(OSError):
                stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
