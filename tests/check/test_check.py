"""``repro-check`` umbrella: one gate over all four analysis tiers."""

import json
from pathlib import Path

import pytest

import repro.check as check
from repro.check import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A package only the audit tier objects to: a trial worker advances an
#: ``itertools.count`` imported from another module (RPL203).
AUDIT_ONLY_DIRTY = {
    "__init__.py": "",
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
}


@pytest.fixture
def audit_only_dirty(tmp_path, monkeypatch):
    """The dirty package, with the working directory set beside it."""
    root = tmp_path / "dirty"
    root.mkdir()
    for name, source in AUDIT_ONLY_DIRTY.items():
        (root / name).write_text(source, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return "dirty"


class TestToolRegistry:
    def test_tier_order_and_manifest_surface(self):
        names = [tier.name for tier in check.TIERS]
        assert names == ["lint", "audit", "vec", "flow"]
        manifests = {
            tier.name: tier.manifest for tier in check.TIERS if tier.manifest
        }
        assert manifests == {
            "audit": "AUDIT_MANIFEST.json",
            "vec": "VEC_MANIFEST.json",
            "flow": "FLOW_MANIFEST.json",
        }


class TestArgvValidation:
    def test_unknown_skip_exits_two(self, capsys):
        assert main(["--skip", "bogus"]) == 2
        assert "unknown tier" in capsys.readouterr().err

    def test_everything_skipped_exits_two(self, capsys):
        assert main(["--skip", "lint,audit,vec,flow"]) == 2
        assert "every tier skipped" in capsys.readouterr().err


class TestMergedExecution:
    def test_exit_code_is_the_worst_tool_status(self, audit_only_dirty, capsys):
        assert main([audit_only_dirty]) == 1
        out = capsys.readouterr().out
        assert "RPL203" in out
        assert "lint=0 audit=1 vec=0 flow=0 -> exit 1" in out

    def test_check_manifests_forwards_only_to_gated_tools(
        self, audit_only_dirty, tmp_path, capsys
    ):
        assert main([audit_only_dirty, "--write-manifests"]) == 1
        written = sorted(path.name for path in tmp_path.glob("*.json"))
        assert written == [
            "AUDIT_MANIFEST.json",
            "FLOW_MANIFEST.json",
            "VEC_MANIFEST.json",
        ]
        capsys.readouterr()
        assert main([audit_only_dirty, "--check-manifests"]) == 1
        err = capsys.readouterr().err
        assert err.count("is current") == 3
        (tmp_path / "VEC_MANIFEST.json").unlink()
        assert main([audit_only_dirty, "--check-manifests", "--skip", "audit"]) == 1
        out = capsys.readouterr().out
        assert "lint=0 vec=1 flow=0 -> exit 1" in out

    def test_skip_runs_a_subset(self, audit_only_dirty, capsys):
        assert main([audit_only_dirty, "--skip", "audit,vec"]) == 0
        out = capsys.readouterr().out
        assert "lint=0 flow=0 -> exit 0" in out
        assert "== audit ==" not in out and "== vec ==" not in out

    def test_json_mode_merges_the_tool_reports(self, audit_only_dirty, capsys):
        main([audit_only_dirty, "--write-manifests"])
        capsys.readouterr()
        assert main([audit_only_dirty, "--format", "json", "--check-manifests"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout is one JSON document
        assert "is current" in captured.err
        assert payload["version"] == 1
        assert payload["status"] == 1
        assert payload["manifests_checked"] is True
        assert set(payload["tools"]) == {"lint", "audit", "vec", "flow"}
        exits = {name: tool["exit"] for name, tool in payload["tools"].items()}
        assert exits == {"lint": 0, "audit": 1, "vec": 0, "flow": 0}
        for tool in payload["tools"].values():
            assert set(tool["report"]) == {"version", "findings", "summary"}
        assert payload["tools"]["audit"]["report"]["summary"]["by_rule"] == {
            "RPL203": 1
        }


class TestAgainstRealTree:
    """One full CLI run over the repo (the CI path)."""

    def test_repo_passes_all_four_tiers_with_manifests(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(REPO_ROOT)
        status = main(["--format", "json", "--check-manifests"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 0, payload
        exits = {name: tool["exit"] for name, tool in payload["tools"].items()}
        assert exits == {"lint": 0, "audit": 0, "vec": 0, "flow": 0}
        for tool in payload["tools"].values():
            assert tool["report"] is not None
            assert tool["report"]["summary"]["findings"] == 0
