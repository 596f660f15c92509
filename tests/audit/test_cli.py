"""CLI contract of the audit tier: exit codes, formats, manifest gating.

Drives ``repro-check`` with the other three tiers skipped; the
cross-tier behaviour of the one CLI lives in ``tests/check``.
"""

import json

import pytest

from repro.audit import AUDIT_RULES, DEFAULT_MANIFEST
from repro.check import PROGRAM_ROOTS
from repro.check import main as check_main

from .conftest import FIXTURES


def main(argv):
    """``repro-check`` restricted to the audit tier."""
    return check_main(list(argv) + ["--skip", "lint,vec,flow"])

GOOD_TREE = str(FIXTURES / "rpl204_good")


@pytest.fixture
def bad_tree(make_package):
    """A dirty tree with no ``disable-file`` headers: unlike the
    committed fixtures (which hide from the repo-wide lint), this is
    what a *real* regression looks like to the production CLI run."""
    root = make_package(
        "dirty",
        {
            "engine.py": (
                "class TrialEngine:\n"
                "    def map(self, fn, trials):\n"
                "        return [fn(t) for t in trials]\n"
            ),
            "counters.py": "import itertools\n\nIDS = itertools.count()\n",
            "store.py": (
                "from .counters import IDS\n"
                "\n"
                "\n"
                "def next_id():\n"
                "    return next(IDS)\n"
            ),
            "app.py": (
                "from .engine import TrialEngine\n"
                "from .store import next_id\n"
                "\n"
                "\n"
                "def _trial(trial):\n"
                "    return (trial, next_id())\n"
                "\n"
                "\n"
                "def run_all(trials):\n"
                "    engine = TrialEngine()\n"
                "    return engine.map(_trial, trials)\n"
            ),
        },
    )
    return str(root)


class TestExitCodes:
    def test_zero_on_clean_tree(self, capsys):
        assert main([GOOD_TREE]) == 0
        assert "clean" in capsys.readouterr().out

    def test_one_on_findings(self, bad_tree, capsys):
        assert main([bad_tree]) == 1
        assert "RPL203" in capsys.readouterr().out

    def test_two_on_unknown_rule(self, capsys):
        assert main([GOOD_TREE, "--select", "RPL999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_select_can_silence_a_bad_tree(self, bad_tree, capsys):
        assert main([bad_tree, "--select", "RPL204"]) == 0
        capsys.readouterr()


class TestDefaults:
    def test_default_audit_root_is_src(self):
        """The production audit surface is the importable source tree;
        fixtures and scripts have no importable dotted path there."""
        assert PROGRAM_ROOTS == ("src",)

    def test_default_manifest_name_pinned(self):
        assert DEFAULT_MANIFEST == "AUDIT_MANIFEST.json"


class TestJsonFormat:
    def test_same_envelope_as_repro_lint(self, bad_tree, capsys):
        assert main([bad_tree, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)["tools"]["audit"]["report"]
        assert set(payload) == {"version", "findings", "summary"}
        for finding in payload["findings"]:
            assert set(finding) == {
                "path", "line", "col", "rule", "name", "message",
            }
        assert payload["summary"]["by_rule"] == {"RPL203": 1}

    def test_json_deterministic(self, bad_tree, capsys):
        main([bad_tree, "-f", "json"])
        first = capsys.readouterr().out
        main([bad_tree, "-f", "json"])
        second = capsys.readouterr().out
        assert first == second


class TestManifestFlow:
    """The ledger lives at its fixed name in the working directory."""

    def test_write_then_check_roundtrip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / DEFAULT_MANIFEST
        assert main([GOOD_TREE, "--write-manifests"]) == 0
        assert manifest.exists()
        capsys.readouterr()
        assert main([GOOD_TREE, "--check-manifests"]) == 0
        assert "is current" in capsys.readouterr().err

    def test_check_fails_on_drift_with_diff(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / DEFAULT_MANIFEST
        main([GOOD_TREE, "--write-manifests"])
        capsys.readouterr()
        stale = json.loads(manifest.read_text(encoding="utf-8"))
        stale["artifacts"] = []
        manifest.write_text(json.dumps(stale, indent=2, sort_keys=True) + "\n")
        assert main([GOOD_TREE, "--check-manifests"]) == 1
        err = capsys.readouterr().err
        assert "manifest drift" in err and "--write-manifests" in err
        assert '-  "artifacts": [],' in err

    def test_check_fails_when_manifest_missing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([GOOD_TREE, "--check-manifests"]) == 1
        capsys.readouterr()

    def test_committed_manifest_passes_check(self, real_tree):
        """The CI gate's audit half, over the session's real-tree run."""
        from pathlib import Path

        from repro.audit import build_manifest, diff_manifest

        report = real_tree["audit"]
        assert report.ok
        repo_root = Path(__file__).resolve().parents[2]
        manifest = build_manifest(report.context)
        assert diff_manifest(manifest, repo_root / DEFAULT_MANIFEST) is None


class TestListRules:
    def test_lists_all_audit_rules_with_rationale(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in AUDIT_RULES:
            assert rule.rule_id in out
            assert rule.name in out
        assert "disable=" in out  # sanctioning syntax documented
        assert "manifest" in out
