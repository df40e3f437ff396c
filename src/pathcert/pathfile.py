"""File formats: witness JSON, path JSON, sample CSV, report JSON.

All floats serialize through repr (JSON) or %.17g (CSV), which round
trips float64 exactly, so a written path reloads bit for bit.  A CSV
body is one float table formatted by a single %-operation with a
"%.17g,...,%.17g\n" row template.  Writes go through a temporary file
and an atomic rename.
"""

from __future__ import annotations

import errno
import json
import math
import os
import tempfile
from contextlib import contextmanager
from operator import itemgetter

import numpy as np

from .errors import InputError
from .generators import GeneratorSpec, generate_points
from .geometry import ConeSpec, UnitDirection, require_seed
from .mollifier import KERNEL_C, build_smooth_path
from .pipeline import MAX_K_MAX, PathBuild
from .skeleton import AnchorSequence, WitnessSequence


def atomic_write_text(path: str, text: str) -> None:
    """Write through a temporary file beside ``path`` and a rename; a file
    that cannot be written (say, in a missing directory) is an InputError
    naming it."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pathcert-")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.umask(umask := os.umask(0))  # read the umask: mkstemp made the file 0600
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise InputError(f"cannot write output file {path}: {exc.strerror or exc}") from exc
        raise


def check_writable(path: str) -> None:
    """Raise, before any work, the InputError ``atomic_write_text`` would
    raise at the end for ``path`` in a missing or read-only directory, or
    for a ``path`` that is a directory."""
    if os.path.isdir(path):
        raise InputError(f"cannot write output file {path}: {os.strerror(errno.EISDIR)}")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.access(directory, os.W_OK | os.X_OK):
        reason = errno.EACCES if os.path.isdir(directory) else errno.ENOENT
        raise InputError(f"cannot write output file {path}: {os.strerror(reason)}")


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


def _numbers(value, what: str, n: int | None = None) -> list:
    """A JSON list of numbers (of length n if given); a string, boolean or
    list entry is rejected."""
    if not isinstance(value, list) or n not in (None, len(value)):
        size = "" if n is None else f"{n} "
        raise InputError(f"{what} must be a list of {size}numbers, got {value!r}")
    for v in value:
        _number(v, f"{what} coordinate")
    return value


def _vector(value, what: str) -> np.ndarray:
    return np.array(_numbers(value, what), dtype=float)


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
    for i, pair in enumerate(pairs):
        if not isinstance(pair, dict) or "x" not in pair:
            raise InputError(f"pair {i} must be an object with an 'x' key")
        with _malformed(f"pair {i}"):
            points.append(_vector(pair["x"], f"pair {i} x"))
            if "y" in pair:
                directions.append(_vector(pair["y"], f"pair {i} y"))
    if directions and len(directions) != len(points):
        raise InputError("either every pair carries 'y' or none does")
    witness = WitnessSequence.ingest(points, directions or None)
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
    times = anchors.times.tolist()
    sources = np.where(anchors.given, "given", "filler").tolist()
    return {
        "dimension": anchors.dimension,
        "k_max": build.k_max,
        "seed": build.seed,
        "half_angle": build.half_angle,
        "cover_size": build.cover_size,
        "parity": anchors.parity,
        "cone_axis": anchors.cone.axis.coords.tolist(),
        "kernel_c": KERNEL_C,
        "domain": list(build.path.domain),
        "witness_scale": build.witness_scale,
        "matched": [[int(k), int(i)] for k, i in anchors.matched],
        "anchors": [
            {"k": k, "source": source, "a": a, "b": b, "t0": t[0], "t1": t[1], "t2": t[2]}
            for k, source, a, b, t in zip(
                range(1, len(times) + 1), sources, anchors.a.tolist(), anchors.b.tolist(), times
            )
        ],
    }


_ANCHOR_KEYS = ("a", "b", "t0", "t1", "t2")
# what build_to_dict derives from the free data, for the path and per anchor
_DERIVED_KEYS = ("dimension", "k_max", "kernel_c", "domain")
_DERIVED_ANCHOR_KEYS = ("k", "source")


def _anchor_columns(items, n: int) -> tuple:
    """The JSON anchors as the columns a, b, t0, t1, t2, after one
    type-checking pass over the items; an anchor is named by its place."""
    if not isinstance(items, list) or len(items) < 2:
        raise InputError("anchors must be a list of at least two objects")
    if len(items) > MAX_K_MAX + 1:
        raise InputError(f"a path holds at most {MAX_K_MAX + 1} anchors, got {len(items)}")
    get = itemgetter(*_ANCHOR_KEYS)
    rows = []
    for j, item in enumerate(items, start=1):
        try:
            row = get(item)
        except (KeyError, TypeError) as exc:
            keys = ", ".join(_ANCHOR_KEYS)
            raise InputError(f"anchor {j} must be an object with keys {keys}") from exc
        a, b, *times = row
        _numbers(a, f"anchor {j} a", n)
        _numbers(b, f"anchor {j} b", n)
        for key, t in zip(_ANCHOR_KEYS[2:], times):
            _number(t, f"anchor {j} {key}")
        rows.append(row)
    return tuple(zip(*rows))


def _require(ok: bool, key: str, rule: str, value) -> None:
    if not ok:
        raise InputError(f"{key} must {rule}, got {value!r}")


def _typed(value):
    """A JSON value with each entry's type attached, so that 3, 3.0 and true differ."""
    return [_typed(v) for v in value] if type(value) is list else (type(value), value)


def build_from_dict(data: dict) -> PathBuild:
    """Rebuild a path from its JSON form.

    Only the free data are read: ``cone_axis``, ``parity``, ``matched``,
    ``half_angle``, ``seed``, ``cover_size``, ``witness_scale`` and each
    anchor's a, b, t0, t1 and t2.  The skeleton and windows are rebuilt from
    the anchors, so a reloaded path evaluates bit for bit like the original.
    The derived keys must then equal what ``build_to_dict`` writes for the
    rebuilt path, and the first that differs is named.
    """
    if not isinstance(data, dict):
        raise InputError("path document must be a JSON object")
    required = ("seed", "half_angle", "parity", "cone_axis", "matched", "anchors", *_DERIVED_KEYS)
    missing = set(required) - set(data)
    if missing:
        raise InputError(f"path document misses keys: {', '.join(sorted(missing))}")
    with _malformed("path document"):
        cone = ConeSpec(UnitDirection(_vector(data["cone_axis"], "cone_axis")))
        a, b, t0, t1, t2 = _anchor_columns(data["anchors"], cone.dimension)
        anchors = AnchorSequence(
            parity=str(data["parity"]),
            cone=cone,
            a=np.array(a, dtype=float),
            b=np.array(b, dtype=float),
            times=np.column_stack([t0, t1, t2]).astype(float),
            matched=tuple(
                (_integer(k, "matched anchor"), _integer(i, "matched witness index"))
                for k, i in data["matched"]
            ),
        )
        half_angle = _number(data["half_angle"], "half_angle")
        _require(0.0 < half_angle < math.pi / 2.0, "half_angle", "lie in (0, pi/2)", half_angle)
        cover_size = _integer(data.get("cover_size", 0), "cover_size")
        _require(cover_size >= 0, "cover_size", "be a non-negative integer", cover_size)
        scale = _number(data.get("witness_scale", 1.0), "witness_scale")
        _require(0.0 < scale <= 1.0, "witness_scale", "lie in (0, 1]", scale)
        build = PathBuild(
            half_angle=half_angle,
            seed=require_seed(data["seed"]),
            cover_size=cover_size,
            anchors=anchors,
            path=build_smooth_path(anchors),
            witness_scale=scale,
        )
    written = build_to_dict(build)
    for key in _DERIVED_KEYS:
        if _typed(data[key]) != _typed(written[key]):
            raise InputError(f"{key} must be {written[key]!r}, got {data[key]!r}")
    for j, (item, want) in enumerate(zip(data["anchors"], written["anchors"]), start=1):
        for key in _DERIVED_ANCHOR_KEYS:
            if _typed(item.get(key)) != _typed(want[key]):
                raise InputError(f"anchor {j} {key} must be {want[key]!r}, got {item.get(key)!r}")
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
