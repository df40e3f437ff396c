"""Every output keeps its bytes: path JSON, sample CSV, each check's report
entry and each built-in probe hash to the checked-in manifest.

An intended output change rewrites the manifest with
``tests/update_golden.py`` and lists the artifacts it moved in CHANGES.md.
"""

import json

import pytest
from update_golden import MANIFEST, build_info, golden_artifacts, manifest_changes


def test_outputs_keep_their_golden_sha256(builds, tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if manifest["build"] != build_info():
        pytest.skip(
            f"golden hashes were made on {manifest['build']}, not on this build {build_info()}"
        )
    want = manifest["sha256"]
    got = dict(golden_artifacts(builds, str(tmp_path)))
    assert list(got) == list(want), "the set of golden artifacts changed"
    changed = next((name for name in want if got[name] != want[name]), None)
    assert changed is None, f"{changed} changed: sha256 {got[changed]}, manifest {want[changed]}"


def test_manifest_changes_name_each_moved_artifact():
    old = {"path a": "1", "check b": "2", "probe c": "3"}
    new = {"path a": "1", "check b": "9", "sample d": "4"}
    assert manifest_changes(old, new) == ["changed: check b", "added: sample d", "removed: probe c"]
    assert manifest_changes(new, new) == []
