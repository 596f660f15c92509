"""Manifest determinism, drift detection, and churn resistance."""

import json
from pathlib import Path

from repro.audit import (
    DEFAULT_MANIFEST,
    build_manifest,
    diff_manifest,
    render_manifest,
    run_audit,
)

from .conftest import FIXTURES

REPO_ROOT = Path(__file__).resolve().parents[2]


def _context(tree):
    return run_audit([tree], suppressions="line").context


class TestDeterminism:
    def test_two_builds_render_identically(self):
        tree = FIXTURES / "rpl204_good"
        first = render_manifest(build_manifest(_context(tree)))
        second = render_manifest(build_manifest(_context(tree)))
        assert first == second

    def test_rendered_form_is_sorted_json_with_trailing_newline(self):
        manifest = build_manifest(_context(FIXTURES / "rpl204_good"))
        rendered = render_manifest(manifest)
        assert rendered.endswith("\n")
        assert rendered == json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    def test_effect_entries_carry_no_line_numbers(self):
        """Line numbers would churn the committed manifest on every
        pure-motion refactor; entries pin (kind, site, sanctioned)."""
        manifest = build_manifest(_context(FIXTURES / "rpl201_bad"))
        worker = manifest["workers"]["rpl201_bad.app._trial"]
        (effect,) = worker["effects"]
        assert set(effect) == {"kind", "site", "sanctioned"}
        assert effect["kind"] == "global-rng"
        assert effect["site"] == "rpl201_bad.helpers.jitter"


class TestShape:
    def test_workers_and_artifacts_sections(self):
        manifest = build_manifest(_context(FIXTURES / "rpl204_good"))
        assert manifest["artifacts"] == ["t1"]
        worker = manifest["workers"]["rpl204_good.work.run"]
        assert worker["role"] == "entry"
        assert worker["artifact"] == "t1"
        assert "rpl204_good.extra" in worker["modules"]
        assert "rpl204_good.extra.enrich" in worker["functions"]


class TestDrift:
    def test_matching_manifest_yields_no_diff(self, tmp_path):
        manifest = build_manifest(_context(FIXTURES / "rpl204_good"))
        committed = tmp_path / DEFAULT_MANIFEST
        committed.write_text(render_manifest(manifest), encoding="utf-8")
        assert diff_manifest(manifest, committed) is None

    def test_drift_yields_unified_diff(self, tmp_path):
        manifest = build_manifest(_context(FIXTURES / "rpl204_good"))
        committed = tmp_path / DEFAULT_MANIFEST
        stale = dict(manifest, artifacts=["t1", "ghost"])
        committed.write_text(render_manifest(stale), encoding="utf-8")
        drift = diff_manifest(manifest, committed)
        assert drift is not None
        assert "ghost" in drift
        assert "(committed)" in drift and "(derived from source)" in drift

    def test_missing_manifest_diffs_against_empty(self, tmp_path):
        manifest = build_manifest(_context(FIXTURES / "rpl204_good"))
        drift = diff_manifest(manifest, tmp_path / "absent.json")
        assert drift is not None and '"workers"' in drift


class TestCommittedManifest:
    def test_committed_manifest_is_current(self, real_tree):
        """CI's contract: AUDIT_MANIFEST.json matches the source tree."""
        report = real_tree["audit"]
        manifest = build_manifest(report.context)
        assert diff_manifest(manifest, REPO_ROOT / DEFAULT_MANIFEST) is None

    def test_committed_manifest_covers_all_artifacts(self):
        committed = json.loads(
            (REPO_ROOT / DEFAULT_MANIFEST).read_text(encoding="utf-8")
        )
        assert len(committed["artifacts"]) == 13
        entry_workers = [
            w for w in committed["workers"].values() if w["role"] == "entry"
        ]
        assert len(entry_workers) == 13
