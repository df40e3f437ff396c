"""Rewrite tests/golden_sha256.json from the outputs of the current code.

Run by hand, and only for an intended output change:

    PYTHONPATH=src python tests/update_golden.py

The manifest holds the sha256 of every artifact ``golden_artifacts``
makes, and the Python, numpy and machine it was made on;
``test_golden.py`` rebuilds the artifacts and compares.  The script prints
each artifact it adds, removes or changes against the manifest it
replaces; list those in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
from conftest import FIXTURE_CASES, RESTRICTED_KINDS, witness_fixture

from pathcert import cli
from pathcert.harness import BUILTIN_FIELDS
from pathcert.mollifier import log_grid, sample_path
from pathcert.pathfile import build_to_dict, reports_to_json, samples_to_csv
from pathcert.pipeline import build_path
from pathcert.verifier import SUITE_NAMES, _lemma1_path_reports, lemma1_random_suite, run_checks

MANIFEST = Path(__file__).with_name("golden_sha256.json")
SAMPLE_POINTS = 64
# builds in the dimensions the conftest fixtures leave out
EXTRA_CASES = (
    *((kind, dimension, 40) for kind in ("diagonal", "ray") for dimension in (1, 4, 5)),
    ("spiral", 4, 40),
    ("spiral", 5, 40),
)


def build_info() -> dict:
    """The build whose outputs the manifest promises: report, probe and CSV
    bytes are promised only on a fixed Python/numpy/BLAS build."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def golden_artifacts(builds, directory: str):
    """Yield (name, sha256) for each golden artifact, in manifest order.

    ``builds`` maps each conftest fixture case to its build; the builds of
    EXTRA_CASES follow them.  Per build: the path JSON, a log-grid sample
    CSV of SAMPLE_POINTS rows and each check's report entry at seed 0
    (restricted for the kinds near one axis);
    lemma1 never reads the path, so it runs once, and its report on each of
    its random paths is one more artifact: their rows meet several kinks, so
    it sees the order of a kink sum's adds.  Then the probe JSON of each
    built-in field, written by the command line in ``directory``.
    """

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    yield "check lemma1", digest(reports_to_json([lemma1_random_suite(seed=0)]))
    yield "check lemma1 per path", digest(reports_to_json(_lemma1_path_reports(0)))
    checks = [name for name in SUITE_NAMES if name != "lemma1"]
    extra = {case: build_path(witness_fixture(*case[:2]), k_max=case[2]) for case in EXTRA_CASES}
    for (kind, dimension, k_max), build in {**builds, **extra}.items():
        case = f"{kind}-d{dimension}-k{k_max}"
        path = build.path
        yield f"path {case}", digest(json.dumps(build_to_dict(build), indent=2) + "\n")
        lo, hi = path.domain
        table = sample_path(path, log_grid(np.nextafter(lo, hi), hi, SAMPLE_POINTS))
        yield f"sample {case}", digest(samples_to_csv(table, path.dimension))
        reports = run_checks(
            path, build.anchors, checks, seed=0, restricted=kind in RESTRICTED_KINDS
        )
        for report in reports:
            yield f"check {report.name} {case}", digest(reports_to_json([report]))
    for name in BUILTIN_FIELDS:
        out = os.path.join(directory, f"probe-{name}.json")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["probe", "--field", name, "--out", out])
        yield f"probe {name}", digest(Path(out).read_text(encoding="utf-8"))


def manifest_changes(old: dict, new: dict) -> list[str]:
    """One line per artifact name that ``new`` adds, removes or changes
    against ``old``, in manifest order (new names first, then removed)."""
    lines = [
        f"{'changed' if name in old else 'added'}: {name}"
        for name in new
        if old.get(name) != new[name]
    ]
    return lines + [f"removed: {name}" for name in old if name not in new]


def main() -> int:
    old = json.loads(MANIFEST.read_text(encoding="utf-8"))["sha256"] if MANIFEST.exists() else {}
    builds = {
        case: build_path(witness_fixture(case[0], case[1]), k_max=case[2])
        for case in FIXTURE_CASES
    }
    with tempfile.TemporaryDirectory() as directory:
        hashes = dict(golden_artifacts(builds, directory))
    document = {"build": build_info(), "sha256": hashes}
    MANIFEST.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    changes = manifest_changes(old, hashes)
    for line in changes:
        print(line)
    print(f"wrote {len(hashes)} hashes to {MANIFEST}, {len(changes)} of them moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
