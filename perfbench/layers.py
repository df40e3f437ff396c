"""The traced operations: each CLI command replayed through public layer calls.

Only public names are imported here: those exported by ``pathcert``
plus public functions and constants of its modules.  Never a name that
starts with ``_`` and never ``pathcert.parallel``; selftest.py enforces it.

Per-layer metrics (``_s`` is time busy in the layer over one traced pass
of the workload's cycle) and the end-to-end metric each should move:

cli.import_s                      setup_s everywhere; largest share in
                                  probe_per_s on certify-2d
geometry.cover_s, cover_directions, cone_select_s, cone_tests
(directions x points), capture_ratio, parity_s
                                  build_s on build-5d; no change
                                  predicted on certify-2d
skeleton.anchors_s, matched_ratio, skeleton_s
                                  build_s; small everywhere, kept so that
                                  a regression shows
mollifier.smooth_path_s, value_rows_per_s, deriv_rows_per_s (on the
path's dense_grid), windowed_row_share
                                  sample_rows_per_s, check_s and
                                  probe_per_s on certify-2d; no change
                                  predicted on build-5d's build_s
verifier.<suite>_s, product_grid_rows
                                  check_s on certify-2d (lemma1 ~70%,
                                  product ~13%, coincidence ~6%)
harness.derive_witness_s, survivor_ratio, certify_s, fallbacks;
expressions.parse_s, field_evals_per_s
                                  probe_per_s on certify-2d
pathfile.save_build_s, load_build_s (load revalidates), csv_s,
bytes_written                     build_s, check_s (load) and
                                  sample_rows_per_s
pipeline.build_path_s, build_path_self_s
                                  build_s; the self time is the build_path
                                  span minus the replayed stage spans, so
                                  it carries their noise and can dip below 0
"""

from __future__ import annotations

import math
import os

import numpy as np

from pathcert import (
    WitnessNotFoundError,
    WitnessSequence,
    build_anchor_sequence,
    build_path,
    build_skeleton,
    build_smooth_path,
    build_sphere_cover,
    certify_discontinuity,
    dense_grid,
    derive_witness,
    eval_smooth_derivative_many,
    eval_smooth_many,
    field_from_expression,
    get_builtin_field,
    run_checks,
    sample_path,
    select_dominant_cone,
    select_parity,
)
from pathcert.cli import build_parser
from pathcert.generators import GeneratorSpec, generate_points
from pathcert.harness import DEFAULT_EPSILON
from pathcert.mollifier import log_grid
from pathcert.pathfile import (
    atomic_write_text,
    load_build,
    load_witness,
    probe_to_json,
    reports_to_json,
    samples_to_csv,
    save_build,
)
from pathcert.verifier import SUITE_NAMES

from workloads import OutputError

# the probe's dense grid, as certify_discontinuity samples it by default
PROBE_PER_DECADE = 1024
PROBE_PER_WINDOW = 32


def _written(tracer, path: str) -> None:
    tracer.count("bytes_written", os.path.getsize(path))


# ---- the command mirrors (op.<kind>) ------------------------------------


def run_op(tracer, op):
    """Do what ``pathcert <op.argv>`` does; returns state for run_extra."""
    args = build_parser().parse_args(list(op.argv))
    return {"build": _build, "check": _check, "sample": _sample, "probe": _probe}[op.kind](
        tracer, args)


def _build(tracer, args):
    with tracer.span("pathfile.load_witness"):
        witness = load_witness(args.witness)
    half_angle = math.radians(args.half_angle_deg)
    with tracer.span("geometry.cover"):
        cover = build_sphere_cover(witness.dimension, half_angle, seed=args.seed)
    with tracer.span("pipeline.build_path") as span:
        build = build_path(witness, k_max=args.k_max, half_angle=half_angle, seed=args.seed)
    with tracer.span("pathfile.save_build"):
        save_build(args.out, build)
    _written(tracer, args.out)
    return {"args": args, "witness": witness, "cover": cover, "build": build, "span": span}


def _suites(args) -> tuple[str, ...]:
    if args.suite == "all":
        return SUITE_NAMES
    return tuple(part.strip() for part in args.suite.split(",") if part.strip())


def _run_suites(tracer, args, build, names):
    reports = []
    for name in names:
        with tracer.span(f"verifier.{name}"):
            reports += run_checks(
                build.path, build.anchors, (name,), seed=args.seed,
                restricted=args.restricted, per_decade=args.per_decade,
                per_window=args.per_window, trials=args.trials,
            )
    return reports


def _check(tracer, args):
    with tracer.span("pathfile.load_build"):
        build = load_build(args.path)
    reports = _run_suites(tracer, args, build, _suites(args))
    with tracer.span("pathfile.save_report"):
        atomic_write_text(args.out, reports_to_json(reports))
    _written(tracer, args.out)
    return {"args": args, "build": build}


def _sample(tracer, args):
    with tracer.span("pathfile.load_build"):
        build = load_build(args.path)
    lo, hi = build.path.domain
    grid = log_grid(np.nextafter(lo, hi), hi, args.points)
    with tracer.span("mollifier.sample_path"):
        rows = sample_path(build.path, grid)
    with tracer.span("pathfile.csv"):
        text = samples_to_csv(rows, build.path.dimension)
    with tracer.span("pathfile.save_csv"):
        atomic_write_text(args.out, text)
    _written(tracer, args.out)
    return {"args": args, "build": build}


def _probe(tracer, args):
    kind, _, text = args.field.partition(":")
    if kind == "expr":
        with tracer.span("expressions.parse"):
            field = field_from_expression(text)
    else:
        field = get_builtin_field(text)
    epsilon = args.epsilon if args.epsilon is not None else DEFAULT_EPSILON
    spec = None
    fallback = False
    if args.witness:
        with tracer.span("pathfile.load_witness"):
            witness = load_witness(args.witness)
    else:
        spec = GeneratorSpec(
            kind=args.generator, dimension=field.dimension, count=args.count,
            start=args.start, stop=args.stop,
            axis=tuple(float(v) for v in args.axis.split(",")) if args.axis else None,
        )
        try:
            with tracer.span("harness.derive_witness"):
                witness = derive_witness(field, spec, epsilon=epsilon,
                                         min_count=args.min_witnesses)
        except WitnessNotFoundError:
            fallback = True
            with tracer.span("generators.generate_points"):
                witness = WitnessSequence.ingest(generate_points(spec))
    with tracer.span("harness.certify"):
        report, build = certify_discontinuity(
            field, witness, k_max=args.k_max, epsilon=epsilon, seed=args.seed,
            extra_deltas=args.tail_delta or (),
        )
    with tracer.span("pathfile.save_probe"):
        atomic_write_text(args.out, probe_to_json(report))
    _written(tracer, args.out)
    return {"args": args, "field": field, "kind": kind, "spec": spec, "fallback": fallback,
            "witness": witness, "epsilon": epsilon, "build": build}


# ---- measurements beyond the command (extra.<kind>) ---------------------


def run_extra(tracer, op, state) -> None:
    {"build": _replay, "check": _other_suites, "sample": _eval_rates,
     "probe": _probe_counts}[op.kind](tracer, state)


def _same_anchors(a, b) -> bool:
    return a.matched == b.matched and len(a.entries) == len(b.entries) and all(
        np.array_equal(x.a, y.a) and (x.t0, x.t1, x.t2) == (y.t0, y.t1, y.t2)
        for x, y in zip(a.entries, b.entries)
    )


def _replay(tracer, state) -> None:
    """The pipeline stages again, on the same input, as children of one span."""
    args, witness, build = state["args"], state["witness"], state["build"]
    points = witness.points()
    half_angle = math.radians(args.half_angle_deg)
    with tracer.span("pipeline.replay") as replay:
        with tracer.span("geometry.cover_cached"):
            cover = build_sphere_cover(witness.dimension, half_angle, seed=args.seed)
        with tracer.span("geometry.cone_select"):
            cone, captured = select_dominant_cone(points, cover)
        with tracer.span("geometry.parity"):
            parity, _ = select_parity([points[i] for i in captured])
        with tracer.span("skeleton.anchors"):
            anchors = build_anchor_sequence(witness, cone, parity, args.k_max + 1)
        with tracer.span("skeleton.skeleton"):
            skeleton = build_skeleton(anchors)
        with tracer.span("mollifier.smooth_path"):
            build_smooth_path(anchors, skeleton=skeleton)
    if not (np.array_equal(cone.axis.coords, build.cone.axis.coords)
            and parity == build.parity and _same_anchors(anchors, build.anchors)):
        raise OutputError(f"{tracer.op}: replayed stages disagree with build_path")
    stages = sum(duration(s) for s in tracer.spans if s["parent"] == replay["id"])
    tracer.count("build_path_self_s", duration(state["span"]) - stages)
    tracer.count("cover_directions", state["cover"].size)
    tracer.count("cone_tests", cover.size * len(points))
    tracer.count("cone_points", len(points))
    tracer.count("captured", len(captured))
    tracer.count("anchors_requested", args.k_max + 1)
    tracer.count("anchors_matched", len(anchors.matched))


def _other_suites(tracer, state) -> None:
    args, build = state["args"], state["build"]
    reports = _run_suites(tracer, args, build,
                          [n for n in SUITE_NAMES if n not in _suites(args)])
    failed = [r.name for r in reports if not r.passed]
    if failed:
        raise OutputError(f"{tracer.op}: suites outside the command failed: {failed}")
    grid = dense_grid(build.path, per_decade=args.per_decade, per_window=args.per_window)
    tracer.count("product_grid_rows", grid.size)


def _eval_rates(tracer, state) -> None:
    path = state["build"].path
    ts = dense_grid(path)
    with tracer.span("mollifier.values"):
        eval_smooth_many(path, ts)
    with tracer.span("mollifier.derivs"):
        eval_smooth_derivative_many(path, ts)
    lo = np.array([w.lo for w in path.windows])
    hi = np.array([w.hi for w in path.windows])
    index = np.searchsorted(lo, ts, side="right") - 1
    inside = (index >= 0) & (ts <= hi[np.clip(index, 0, None)])
    tracer.count("grid_rows", ts.size)
    tracer.count("windowed_rows", int(np.count_nonzero(inside)))


def _probe_counts(tracer, state) -> None:
    field, spec, epsilon = state["field"], state["spec"], state["epsilon"]
    if spec is not None:
        if state["fallback"]:
            values = [field(p) for p in generate_points(spec)]
            kept = sum(1 for v in values if math.isfinite(v) and abs(v) >= epsilon)
        else:
            kept = len(state["witness"].pairs)
        tracer.count("generated", spec.count)
        tracer.count("survivors", kept)
        tracer.count("fallbacks", int(state["fallback"]))
    if state["kind"] == "expr":
        path = state["build"].path
        rows = eval_smooth_many(path, dense_grid(path, PROBE_PER_DECADE, PROBE_PER_WINDOW))
        with tracer.span("expressions.field_evals"):
            for row in rows:
                field(row)
        tracer.count("field_evals", len(rows))


# ---- derived metrics ----------------------------------------------------


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_seconds(spans: list[dict]) -> dict:
    """Per span name: duration minus the durations of its direct children."""
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + duration(s)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + duration(s) - children.get(s["id"], 0.0)
    return totals


def per_layer_metrics(tracer) -> tuple[dict, dict]:
    """Every per-layer metric of one traced cycle, with units."""
    c, sec = tracer.counts, tracer.seconds
    metrics = {
        "cli.import_s": sec("cli.import"),
        "geometry.cover_s": sec("geometry.cover"),
        "geometry.cover_directions": c["cover_directions"],
        "geometry.cone_select_s": sec("geometry.cone_select"),
        "geometry.cone_tests": c["cone_tests"],
        "geometry.capture_ratio": c["captured"] / c["cone_points"],
        "geometry.parity_s": sec("geometry.parity"),
        "skeleton.anchors_s": sec("skeleton.anchors"),
        "skeleton.matched_ratio": c["anchors_matched"] / c["anchors_requested"],
        "skeleton.skeleton_s": sec("skeleton.skeleton"),
        "mollifier.smooth_path_s": sec("mollifier.smooth_path"),
        "mollifier.value_rows_per_s": c["grid_rows"] / sec("mollifier.values"),
        "mollifier.deriv_rows_per_s": c["grid_rows"] / sec("mollifier.derivs"),
        "mollifier.windowed_row_share": c["windowed_rows"] / c["grid_rows"],
        **{f"verifier.{name}_s": sec(f"verifier.{name}") for name in SUITE_NAMES},
        "verifier.product_grid_rows": c["product_grid_rows"],
        "harness.derive_witness_s": sec("harness.derive_witness"),
        "harness.survivor_ratio": c["survivors"] / c["generated"],
        "harness.certify_s": sec("harness.certify"),
        "harness.fallbacks": c.get("fallbacks", 0),
        "expressions.parse_s": sec("expressions.parse"),
        "expressions.field_evals_per_s": c["field_evals"] / sec("expressions.field_evals"),
        "pathfile.save_build_s": sec("pathfile.save_build"),
        "pathfile.load_build_s": sec("pathfile.load_build"),
        "pathfile.csv_s": sec("pathfile.csv"),
        "pathfile.bytes_written": c["bytes_written"],
        "pipeline.build_path_s": sec("pipeline.build_path"),
        "pipeline.build_path_self_s": c["build_path_self_s"],
    }
    units = {}
    for name in metrics:
        if name.endswith("rows_per_s"):
            units[name] = "rows/s"
        elif name.endswith("_per_s"):
            units[name] = "1/s"
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(("_ratio", "_share")):
            units[name] = "ratio"
        elif name.endswith("bytes_written"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    return metrics, units
