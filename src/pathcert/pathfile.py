"""File formats: witness JSON, path JSON, sample CSV, report JSON.

All floats serialize through repr (JSON) or %.17g (CSV), which round
trips float64 exactly, so a written path reloads bit for bit.  A CSV
body is one float table formatted by a single %-operation with a
"%.17g,...,%.17g\n" row template.  Writes go through a temporary file
and an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager

import numpy as np

from .errors import InputError
from .generators import GeneratorSpec, generate_points
from .geometry import ConeSpec, UnitDirection
from .mollifier import KERNEL_C, build_smooth_path
from .pipeline import PathBuild
from .skeleton import AnchorEntry, AnchorSequence, WitnessSequence


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pathcert-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def _malformed(what: str):
    """Report a missing key or a value of the wrong type or shape as InputError."""
    try:
        yield
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"{what} misses key {exc}") from exc
    except (IndexError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{what} is malformed: {exc}") from exc


def _integer(value, what: str) -> int:
    """A JSON integer; a float or a boolean is rejected, not truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputError(f"{what} must be a number, got {value!r}")
    return float(value)


def _vector(value, what: str) -> np.ndarray:
    """A JSON list of numbers; a string, boolean or list entry is rejected."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list of numbers, got {value!r}")
    return np.array([_number(v, f"{what} coordinate") for v in value], dtype=float)


# ---- witness files ------------------------------------------------------


def witness_from_dict(data: dict) -> WitnessSequence:
    """Parse {"dimension": n, "pairs": [...]} or {"dimension", "generator"}."""
    if not isinstance(data, dict):
        raise InputError("witness document must be a JSON object")
    if "dimension" not in data:
        raise InputError("witness document needs a 'dimension' key")
    dimension = data["dimension"]
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        raise InputError(f"dimension must be a positive integer, got {dimension!r}")
    if ("pairs" in data) == ("generator" in data):
        raise InputError("witness document needs exactly one of 'pairs' or 'generator'")
    if "generator" in data:
        g = data["generator"]
        if not isinstance(g, dict) or "kind" not in g:
            raise InputError("generator must be an object with a 'kind' key")
        known = {"kind", "count", "start", "stop", "axis"}
        unknown = set(g) - known
        if unknown:
            raise InputError(f"unknown generator keys: {', '.join(sorted(unknown))}")
        with _malformed("generator"):
            spec = GeneratorSpec(
                kind=g["kind"],
                dimension=dimension,
                count=_integer(g.get("count", GeneratorSpec.count), "generator count"),
                start=float(g.get("start", GeneratorSpec.start)),
                stop=float(g.get("stop", GeneratorSpec.stop)),
                axis=tuple(g["axis"]) if "axis" in g else None,
            )
        return WitnessSequence.ingest(generate_points(spec))
    pairs = data["pairs"]
    if not isinstance(pairs, list) or not pairs:
        raise InputError("'pairs' must be a non-empty list")
    points = []
    directions = []
    explicit = None
    for i, pair in enumerate(pairs):
        if not isinstance(pair, dict) or "x" not in pair:
            raise InputError(f"pair {i} must be an object with an 'x' key")
        has_y = "y" in pair
        if explicit is None:
            explicit = has_y
        elif explicit != has_y:
            raise InputError("either every pair carries 'y' or none does")
        with _malformed(f"pair {i}"):
            points.append(_vector(pair["x"], f"pair {i} x"))
            if has_y:
                directions.append(_vector(pair["y"], f"pair {i} y"))
    witness = WitnessSequence.ingest(points, directions if explicit else None)
    if witness.dimension != dimension:
        raise InputError(
            f"witness points have dimension {witness.dimension}, "
            f"but the document declares {dimension}"
        )
    return witness


def load_witness(path: str) -> WitnessSequence:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read witness file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"witness file is not valid JSON: {exc}") from exc
    return witness_from_dict(data)


# ---- path files ---------------------------------------------------------


def build_to_dict(build: PathBuild) -> dict:
    anchors = build.anchors
    return {
        "dimension": anchors.dimension,
        "k_max": build.k_max,
        "seed": build.seed,
        "half_angle": build.half_angle,
        "cover_size": build.cover_size,
        "parity": anchors.parity,
        "cone_axis": [float(v) for v in anchors.cone.axis.coords],
        "kernel_c": KERNEL_C,
        "domain": list(build.path.domain),
        "witness_scale": build.witness.scale if build.witness is not None else 1.0,
        "matched": [[int(k), int(i)] for k, i in anchors.matched],
        "anchors": [
            {
                "k": entry.k,
                "source": entry.source,
                "a": [float(v) for v in entry.a],
                "b": [float(v) for v in entry.b.coords],
                "t0": entry.t0,
                "t1": entry.t1,
                "t2": entry.t2,
            }
            for entry in anchors.entries
        ],
    }


def build_from_dict(data: dict) -> PathBuild:
    """Rebuild a path from its JSON form.

    The skeleton and windows are reconstructed from the stored anchors,
    so a reloaded path evaluates bit for bit like the original.
    """
    if not isinstance(data, dict):
        raise InputError("path document must be a JSON object")
    required = {
        "dimension",
        "k_max",
        "seed",
        "half_angle",
        "parity",
        "cone_axis",
        "domain",
        "matched",
        "anchors",
    }
    missing = required - set(data)
    if missing:
        raise InputError(f"path document misses keys: {', '.join(sorted(missing))}")
    with _malformed("path document"):
        cone = ConeSpec(UnitDirection(_vector(data["cone_axis"], "cone_axis")))
        entries = []
        for item in data["anchors"]:
            entries.append(
                AnchorEntry(
                    k=_integer(item["k"], "anchor k"),
                    a=_vector(item["a"], "anchor a"),
                    b=UnitDirection(_vector(item["b"], "anchor b")),
                    source=str(item["source"]),
                    t0=_number(item["t0"], "anchor t0"),
                    t1=_number(item["t1"], "anchor t1"),
                    t2=_number(item["t2"], "anchor t2"),
                )
            )
        anchors = AnchorSequence(
            parity=str(data["parity"]),
            cone=cone,
            entries=tuple(entries),
            matched=tuple(
                (_integer(k, "matched anchor"), _integer(i, "matched witness index"))
                for k, i in data["matched"]
            ),
        )
        build = PathBuild(
            witness=None,
            k_max=_integer(data["k_max"], "k_max"),
            half_angle=_number(data["half_angle"], "half_angle"),
            seed=_integer(data["seed"], "seed"),
            cover_size=_integer(data.get("cover_size", 0), "cover_size"),
            anchors=anchors,
            path=build_smooth_path(anchors),
        )
        if "kernel_c" in data:
            stored_kernel = _number(data["kernel_c"], "kernel_c")
            if abs(stored_kernel - KERNEL_C) > 1e-12:
                raise InputError("stored kernel constant deviates from KERNEL_C")
        domain = data["domain"]
        if not isinstance(domain, list) or len(domain) != 2:
            raise InputError(f"domain must be a list [lo, hi], got {domain!r}")
        if tuple(_number(v, "domain bound") for v in domain) != build.path.domain:
            raise InputError("stored domain deviates from the rebuilt one")
    return build


def save_build(path: str, build: PathBuild) -> None:
    atomic_write_text(path, json.dumps(build_to_dict(build), indent=2) + "\n")


def load_build(path: str) -> PathBuild:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read path file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"path file is not valid JSON: {exc}") from exc
    return build_from_dict(data)


# ---- samples and reports ------------------------------------------------


def _csv_rows(table: np.ndarray) -> str:
    """Each row of a 2-d float table as one line of %.17g values."""
    rows, cols = table.shape
    return (",".join(["%.17g"] * cols) + "\n") * rows % tuple(table.ravel().tolist())


def samples_to_csv(table: np.ndarray, dimension: int) -> str:
    """CSV of a ``sample_path`` table: a header, then one line per row."""
    header = (
        ["t"]
        + [f"s{i}" for i in range(1, dimension + 1)]
        + [f"d{i}" for i in range(1, dimension + 1)]
        + ["norm_s", "norm_ds", "product"]
    )
    return ",".join(header) + "\n" + _csv_rows(table)


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


def probe_to_json(report) -> str:
    data = {
        "field": report.field_name,
        "epsilon": report.epsilon,
        "limsup_estimate": report.limsup_estimate,
        "verdict": report.verdict,
        "matched_anchors": report.matched_count,
        "domain": [report.domain[0], report.domain[1]],
        "tail_profile": [
            {"delta": delta, "sup": sup} for delta, sup in report.tail_profile
        ],
    }
    return json.dumps(data, indent=2) + "\n"


def tail_to_csv(report) -> str:
    table = np.array(report.tail_profile, dtype=float).reshape(-1, 2)
    return "delta,sup\n" + _csv_rows(table)
