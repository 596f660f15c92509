"""CLI contract of the flow tier: exit codes, formats, the manifest gate.

Drives ``repro-check`` with the other three tiers skipped; the
cross-tier behaviour of the one CLI lives in ``tests/check``.
"""

import json

from repro.check import main as check_main
from repro.flow import build_manifest, render_manifest, run_flow

from .conftest import FIXTURES


def main(argv):
    """``repro-check`` restricted to the flow tier."""
    return check_main(list(argv) + ["--skip", "lint,audit,vec"])


class TestListRules:
    def test_catalogue_names_every_rule(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RPL401",
            "RPL402",
            "RPL403",
            "RPL404",
            "RPL405",
        ):
            assert rule_id in out
        assert "sanction" in out


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([str(FIXTURES / "rpl401_good")]) == 0
        capsys.readouterr()

    def test_findings_exit_one(self, capsys):
        assert main([str(FIXTURES / "rpl402_bad")]) == 1
        out = capsys.readouterr().out
        assert "RPL402" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["--select", "RPL777", str(FIXTURES)]) == 2
        capsys.readouterr()

    def test_missing_path_exits_two(self, capsys):
        assert main([str(FIXTURES / "no_such_tree")]) == 2
        capsys.readouterr()

    def test_select_skips_other_passes(self, capsys):
        assert main(["--select", "RPL401", str(FIXTURES / "rpl402_bad")]) == 0
        capsys.readouterr()


class TestJsonFormat:
    def test_findings_serialize(self, capsys):
        assert main(["--format", "json", str(FIXTURES / "rpl405_bad")]) == 1
        payload = json.loads(capsys.readouterr().out)["tools"]["flow"]["report"]
        rule_ids = {finding["rule"] for finding in payload["findings"]}
        assert rule_ids == {"RPL405"}
        assert payload["summary"]["by_rule"]["RPL405"] == 2


class TestManifestGate:
    def test_write_then_check_roundtrips(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        tree = str(FIXTURES / "sanctioned")
        assert main([tree, "--write-manifests"]) == 0
        assert (tmp_path / "FLOW_MANIFEST.json").exists()
        capsys.readouterr()
        assert main([tree, "--check-manifests"]) == 0
        err = capsys.readouterr().err
        assert "is current" in err

    def test_drift_fails_the_gate_with_a_diff(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        manifest = tmp_path / "FLOW_MANIFEST.json"
        tree = str(FIXTURES / "sanctioned")
        report = run_flow([tree])
        payload = build_manifest(report)
        payload["sanctioned"] = []
        manifest.write_text(render_manifest(payload), encoding="utf-8")
        assert main([tree, "--check-manifests"]) == 1
        captured = capsys.readouterr()
        assert "manifest drift" in captured.err
        assert "RPL401" in captured.err

    def test_missing_manifest_fails_the_gate(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        tree = str(FIXTURES / "sanctioned")
        assert main([tree, "--check-manifests"]) == 1
        assert "manifest drift" in capsys.readouterr().err
