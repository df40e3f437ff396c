"""File formats: witness JSON, path JSON, sample CSV, report JSON, cover JSON.

All floats serialize through repr (JSON) or %.17g (CSV), which round
trips float64 exactly, so a written path reloads bit for bit.  A CSV
body is written one block of rows at a time by ``csvtext.csv_rows``,
whose bytes are those of formatting each value with '%.17g'; it is
imported only when a CSV is written.  ``sample`` evaluates, formats and
writes one block at a time.  Witness and path files are read as UTF-8
JSON and checked against one type rule; writes go through a temporary
file and an atomic rename.
"""

from __future__ import annotations

import errno
import json
import math
import os
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import InputError
from .generators import GeneratorSpec, generate_points
from .geometry import DEFAULT_COVER_HALF_ANGLE, ConeSpec, UnitDirection, require_seed
from .mollifier import KERNEL_C, SmoothPath, build_smooth_path, sample_path
from .pipeline import MAX_K_MAX, PathBuild, check_cover
from .skeleton import AnchorSequence, WitnessSequence


def atomic_write_chunks(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks, each as it is made, through a temporary file beside
    ``path`` and a rename; a file that cannot be written (say, in a missing
    directory) is an InputError naming it, and an error while the chunks are
    made leaves no file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pathcert-")
        with os.fdopen(fd, "w") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.umask(umask := os.umask(0))  # read the umask: mkstemp made the file 0600
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise InputError(f"cannot write output file {path}: {exc.strerror or exc}") from exc
        raise


def atomic_write_text(path: str, text: str) -> None:
    """``atomic_write_chunks`` of one chunk."""
    atomic_write_chunks(path, (text,))


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


def _read_json(path: str, what: str):
    """The file at ``path`` decoded as UTF-8 and parsed as JSON; a file that
    cannot be read, is not UTF-8 JSON, nests too deep for the parser or holds
    an over-long integer is an InputError naming the file."""
    try:
        with open(path, "rb") as handle:
            return json.loads(handle.read().decode("utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {what} file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{what} file {path} is not valid JSON: {exc}") from exc


_TYPES = {"number": ({int, float}, "a number"), "integer": ({int}, "an integer")}


def _follows(values, rule: str, n: int | None = None) -> bool:
    """Whether each of ``values`` follows the type rule of every value a
    document supplies: a "number" is an int or a float, an "integer" is an
    int, and a "vector" is a list of n numbers (of any length if n is None).
    Types are matched exactly, so a bool is neither a number nor an integer."""
    if rule == "vector":
        if not {list}.issuperset(map(type, values)):
            return False
        if n is not None and not {n}.issuperset(map(len, values)):
            return False
        values, rule = chain.from_iterable(values), "number"
    return _TYPES[rule][0].issuperset(map(type, values))


def _check(value, rule: str, what: str, n: int | None = None):
    """``value`` if it follows ``rule``, else an InputError naming ``what`` or,
    in a list of the right length, its first coordinate that is not a number."""
    if _follows((value,), rule, n):
        return value
    if rule != "vector":
        raise InputError(f"{what} must be {_TYPES[rule][1]}, got {value!r}")
    if type(value) is list and n in (None, len(value)):
        bad = next(v for v in value if not _follows((v,), "number"))
        raise InputError(f"{what} coordinate must be a number, got {bad!r}")
    size = "" if n is None else f"{n} "
    raise InputError(f"{what} must be a list of {size}numbers, got {value!r}")


def _require(ok: bool, key: str, rule: str, value) -> None:
    if not ok:
        raise InputError(f"{key} must {rule}, got {value!r}")


def _check_columns(columns, rules: dict, n: int | None, name: str, first: int) -> None:
    """Check each column against the rule of its key in ``rules`` in one
    pass; only if that fails is the first breach found, row by row, and
    named "<name> <j> <key>" with rows j counted from ``first``."""
    if all(_follows(column, rule, n) for column, rule in zip(columns, rules.values())):
        return
    for j, row in enumerate(zip(*columns), first):
        for (key, rule), value in zip(rules.items(), row):
            _check(value, rule, f"{name} {j} {key}", n)


# ---- witness files ------------------------------------------------------

_GENERATOR_RULES = {"count": "integer", "start": "number", "stop": "number", "axis": "vector"}
_PAIR_RULES = {"x": "vector", "y": "vector"}


def witness_from_dict(
    data: dict, half_angle: float = DEFAULT_COVER_HALF_ANGLE
) -> WitnessSequence:
    """Parse {"dimension": n, "pairs": [...]} or {"dimension", "generator"}.

    A dimension whose cover at ``half_angle`` the build would refuse is
    refused first, before any point of that width is made.
    """
    if not isinstance(data, dict):
        raise InputError("witness document must be a JSON object")
    if "dimension" not in data:
        raise InputError("witness document needs a 'dimension' key")
    dimension = data["dimension"]
    _require(_follows((dimension,), "integer") and dimension >= 1, "dimension",
             "be a positive integer", dimension)
    check_cover(dimension, half_angle)
    if ("pairs" in data) == ("generator" in data):
        raise InputError("witness document needs exactly one of 'pairs' or 'generator'")
    if "generator" in data:
        g = data["generator"]
        if not isinstance(g, dict) or "kind" not in g:
            raise InputError("generator must be an object with a 'kind' key")
        unknown = set(g) - {"kind", *_GENERATOR_RULES}
        if unknown:
            raise InputError(f"unknown generator keys: {', '.join(sorted(unknown))}")
        given = {key: _check(g[key], rule, f"generator {key}", dimension)
                 for key, rule in _GENERATOR_RULES.items() if key in g}
        with _malformed("generator"):
            spec = GeneratorSpec(kind=g["kind"], dimension=dimension, **given)
        return WitnessSequence.ingest(generate_points(spec))
    pairs = data["pairs"]
    if not isinstance(pairs, list) or not pairs:
        raise InputError("'pairs' must be a non-empty list")
    for i, pair in enumerate(pairs):
        if not isinstance(pair, dict) or "x" not in pair:
            raise InputError(f"pair {i} must be an object with an 'x' key")
    if len({"y" in pair for pair in pairs}) > 1:
        raise InputError("either every pair carries 'y' or none does")
    columns = [[pair[key] for pair in pairs] for key in _PAIR_RULES if key in pairs[0]]
    _check_columns(columns, _PAIR_RULES, dimension, "pair", 0)
    with _malformed("pairs"):
        return WitnessSequence.ingest(*columns)


def load_witness(path: str, half_angle: float = DEFAULT_COVER_HALF_ANGLE) -> WitnessSequence:
    return witness_from_dict(_read_json(path, "witness"), half_angle)


# ---- path files ---------------------------------------------------------


# what build_to_dict derives from the free data, for the path and per anchor
_DERIVED_KEYS = ("dimension", "k_max", "kernel_c", "domain")
_DERIVED_ANCHOR_KEYS = ("k", "source")


def _derived(build: PathBuild) -> tuple[dict, dict]:
    """The values build_to_dict writes under _DERIVED_KEYS, and under
    _DERIVED_ANCHOR_KEYS as one list over the anchors."""
    anchors = build.anchors
    path = (anchors.dimension, build.k_max, KERNEL_C, list(build.path.domain))
    sources = np.where(anchors.given, "given", "filler").tolist()
    per_anchor = (list(range(1, len(sources) + 1)), sources)
    return dict(zip(_DERIVED_KEYS, path)), dict(zip(_DERIVED_ANCHOR_KEYS, per_anchor))


def build_to_dict(build: PathBuild) -> dict:
    anchors = build.anchors
    derived, per_anchor = _derived(build)
    return {
        "dimension": derived["dimension"],
        "k_max": derived["k_max"],
        "seed": build.seed,
        "half_angle": build.half_angle,
        "cover_size": build.cover_size,
        "parity": anchors.parity,
        "cone_axis": anchors.cone.axis.coords.tolist(),
        "kernel_c": derived["kernel_c"],
        "domain": derived["domain"],
        "witness_scale": build.witness_scale,
        "matched": [[int(k), int(i)] for k, i in anchors.matched],
        "anchors": [
            {"k": k, "source": source, "a": a, "b": b, "t0": t[0], "t1": t[1], "t2": t[2]}
            for k, source, a, b, t in zip(
                *per_anchor.values(), anchors.a.tolist(), anchors.b.tolist(), anchors.times.tolist()
            )
        ],
    }


_ANCHOR_RULES = {"a": "vector", "b": "vector", "t0": "number", "t1": "number", "t2": "number"}
_MATCHED_RULES = {"anchor": "integer", "witness index": "integer"}


def _anchor_columns(items, n: int) -> tuple:
    """The anchors' columns a, b, t0, t1, t2 after one type pass; an anchor is named by place."""
    if not isinstance(items, list) or len(items) < 2:
        raise InputError("anchors must be a list of at least two objects")
    if len(items) > MAX_K_MAX + 1:
        raise InputError(f"a path holds at most {MAX_K_MAX + 1} anchors, got {len(items)}")
    get = itemgetter(*_ANCHOR_RULES)
    try:
        columns = tuple(zip(*map(get, items)))
    except (KeyError, TypeError):  # name the first anchor that is not an object with the keys
        for j, item in enumerate(items, start=1):
            with _malformed(f"anchor {j}"):
                get(item)
    _check_columns(columns, _ANCHOR_RULES, n, "anchor", 1)
    return columns


def _same(got, want) -> bool:
    """Whether ``got`` equals ``want`` in value and JSON type (3, 3.0 and true differ),
    read only as deep as ``want``: a scalar or a list of scalars, as build_to_dict writes."""
    if type(want) is list:
        return type(got) is list and got == want and list(map(type, got)) == list(map(type, want))
    return type(got) is type(want) and got == want


def build_from_dict(data: dict) -> PathBuild:
    """Rebuild a path from its JSON form.

    Only the free data are read: ``cone_axis``, ``parity``, ``matched``,
    ``half_angle``, ``seed``, ``cover_size``, ``witness_scale`` and each
    anchor's a, b, t0, t1 and t2.  The skeleton and windows are rebuilt from
    the anchors, so a reloaded path evaluates bit for bit like the original.
    The derived keys must then equal what ``build_to_dict`` writes for the
    rebuilt path, and the first that differs is named, before any anchor's.
    """
    if not isinstance(data, dict):
        raise InputError("path document must be a JSON object")
    required = ("seed", "half_angle", "parity", "cone_axis", "matched", "anchors", *_DERIVED_KEYS)
    missing = set(required) - set(data)
    if missing:
        raise InputError(f"path document misses keys: {', '.join(sorted(missing))}")
    with _malformed("path document"):
        cone = ConeSpec(UnitDirection(_check(data["cone_axis"], "vector", "cone_axis")))
        a, b, t0, t1, t2 = _anchor_columns(data["anchors"], cone.dimension)
        matched = tuple((k, i) for k, i in data["matched"])
        _check_columns(tuple(zip(*matched)), _MATCHED_RULES, None, "matched entry", 1)
        anchors = AnchorSequence(
            parity=data["parity"],
            cone=cone,
            a=a,
            b=b,
            times=np.column_stack([t0, t1, t2]),
            matched=matched,
        )
        half_angle = float(_check(data["half_angle"], "number", "half_angle"))
        _require(0.0 < half_angle < math.pi / 2.0, "half_angle", "lie in (0, pi/2)", half_angle)
        cover_size = _check(data.get("cover_size", 0), "integer", "cover_size")
        _require(cover_size >= 0, "cover_size", "be a non-negative integer", cover_size)
        scale = float(_check(data.get("witness_scale", 1.0), "number", "witness_scale"))
        _require(0.0 < scale <= 1.0, "witness_scale", "lie in (0, 1]", scale)
        build = PathBuild(
            half_angle=half_angle,
            seed=require_seed(data["seed"]),
            cover_size=cover_size,
            anchors=anchors,
            path=build_smooth_path(anchors),
            witness_scale=scale,
        )
    derived, per_anchor = _derived(build)
    for key, want in derived.items():
        if not _same(data[key], want):
            raise InputError(f"{key} must be {want!r}, got {data[key]!r}")
    items = data["anchors"]
    if not all(_same([item.get(key) for item in items], want) for key, want in per_anchor.items()):
        for j, item in enumerate(items):
            for key, want in per_anchor.items():
                if not _same(item.get(key), want[j]):
                    raise InputError(
                        f"anchor {j + 1} {key} must be {want[j]!r}, got {item.get(key)!r}"
                    )
    return build


def save_build(path: str, build: PathBuild) -> None:
    atomic_write_text(path, json.dumps(build_to_dict(build), indent=2) + "\n")


def load_build(path: str) -> PathBuild:
    return build_from_dict(_read_json(path, "path"))


# ---- samples and reports ------------------------------------------------

# rows per CSV block: a 5-D block's temporaries take ~7 MB, and blocks of
# 1,024-2,048 rows wrote 16,384 rows fastest
CSV_BLOCK_ROWS = 1024


def _csv_blocks(table: np.ndarray) -> str:
    """``csvtext.csv_rows`` of the table, one block of CSV_BLOCK_ROWS rows
    at a time."""
    from .csvtext import csv_rows

    return "".join(
        csv_rows(table[start:start + CSV_BLOCK_ROWS])
        for start in range(0, len(table), CSV_BLOCK_ROWS)
    )


def _samples_header(dimension: int) -> str:
    return ",".join(
        ["t"]
        + [f"s{i}" for i in range(1, dimension + 1)]
        + [f"d{i}" for i in range(1, dimension + 1)]
        + ["norm_s", "norm_ds", "product"]
    ) + "\n"


def samples_to_csv(table: np.ndarray, dimension: int) -> str:
    """CSV of a ``sample_path`` table: a header, then one line per row."""
    return _samples_header(dimension) + _csv_blocks(table)


def sample_csv_chunks(path: SmoothPath, grid: np.ndarray) -> Iterator[str]:
    """The text of ``samples_to_csv(sample_path(path, grid), dimension)`` in
    chunks: the header, then one per CSV_BLOCK_ROWS grid points, each block
    sampled only when its chunk is asked for.  A row has the same bits
    alone or in any batch, so the chunks join to the same text."""
    from .csvtext import csv_rows

    yield _samples_header(path.dimension)
    for start in range(0, grid.size, CSV_BLOCK_ROWS):
        yield csv_rows(sample_path(path, grid[start:start + CSV_BLOCK_ROWS]))


def cover_to_json(cover) -> str:
    """The cover document, byte for byte as ``json.dumps(document, indent=2)``
    writes it, plus a newline.  json's indented output comes only from its
    pure-Python encoder, most of a high-dimensional ``cover``; here the
    directions go through one %-operation with a row template, and each
    entry, a finite float, through repr as json writes it."""
    rows, cols = cover.directions.shape
    row = "    [\n" + ",\n".join(["      %r"] * cols) + "\n    ]"
    directions = ",\n".join([row] * rows) % tuple(cover.directions.ravel().tolist())
    return (
        f'{{\n  "dimension": {cover.dimension},\n'
        f'  "half_angle_deg": {math.degrees(cover.half_angle)!r},\n'
        f'  "directions": [\n{directions}\n  ]\n}}\n'
    )


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
    return "delta,sup\n" + _csv_blocks(table)
