"""The one analyzer CLI: the per-tier matrix and the cross-tier options.

Exit codes and the ledger round trip are pinned per tier in
``tests/{lint,audit,vec,flow}/test_cli.py``.  Here every tier runs
alone (``--skip`` the other three) through the same rule filtering,
JSON report and catalogue checks; then the options that span tiers
(``--select`` from any tier, paths overriding every tier's roots, the
merged catalogue, one JSON document on stdout).
"""

import json
from pathlib import Path

import pytest

from repro.check import TIERS, main
from repro.lint.rules import FAMILIES

from .test_check import AUDIT_ONLY_DIRTY

TESTS = Path(__file__).resolve().parents[1]
TIER_NAMES = [tier.name for tier in TIERS]
BY_NAME = {tier.name: tier for tier in TIERS}

LINT_DIRTY = (
    "import time\n"
    "import random\n"
    "\n"
    "\n"
    "def f():\n"
    "    return random.random() + time.time()\n"
)

#: tier -> (dirty fixture tree, or None to write one; a rule it fires)
CASES = {
    "lint": (None, "RPL103"),
    "audit": (None, "RPL203"),
    "vec": (TESTS / "vec" / "fixtures" / "rpl311_bad", "RPL311"),
    "flow": (TESTS / "flow" / "fixtures" / "rpl405_bad", "RPL405"),
}


def only(tier, *argv):
    """argv running ``tier`` alone."""
    others = ",".join(name for name in TIER_NAMES if name != tier)
    return [str(arg) for arg in argv] + ["--skip", others]


@pytest.fixture
def dirty(tmp_path, monkeypatch):
    """(dirty tree, fired rule) for a tier; cwd is tmp_path."""
    monkeypatch.chdir(tmp_path)

    def build(tier):
        tree, rule = CASES[tier]
        if tree is None:
            tree = tmp_path / "dirty"
            tree.mkdir()
            if tier == "lint":
                (tree / "mod.py").write_text(LINT_DIRTY)
            else:
                for name, source in AUDIT_ONLY_DIRTY.items():
                    (tree / name).write_text(source)
        return tree, rule

    return build


def json_report(capsys, tier):
    captured = capsys.readouterr()
    return json.loads(captured.out)["tools"][tier]["report"]


@pytest.mark.parametrize("tier", TIER_NAMES)
class TestEveryTier:
    def test_select_and_ignore(self, tier, dirty, capsys):
        tree, rule = dirty(tier)
        name = next(r.name for r in BY_NAME[tier].rules if r.rule_id == rule)
        assert main(only(tier, tree, "--select", name, "-f", "json")) == 1
        assert set(json_report(capsys, tier)["summary"]["by_rule"]) == {rule}
        main(only(tier, tree, "--ignore", rule, "-f", "json"))
        assert rule not in json_report(capsys, tier)["summary"]["by_rule"]

    def test_json_schema_and_determinism(self, tier, dirty, capsys):
        tree, rule = dirty(tier)
        main(only(tier, tree, "--format", "json"))
        first = capsys.readouterr().out
        main(only(tier, tree, "--format", "json"))
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert set(payload) == {"version", "status", "manifests_checked", "tools"}
        assert set(payload["tools"]) == {tier}
        report = payload["tools"][tier]["report"]
        assert set(report) == {"version", "findings", "summary"}
        for finding in report["findings"]:
            assert set(finding) == {"path", "line", "col", "rule", "name", "message"}
        keys = [(f["path"], f["line"], f["col"], f["rule"]) for f in report["findings"]]
        assert keys == sorted(keys)
        assert report["summary"]["findings"] == len(report["findings"])
        assert rule in report["summary"]["by_rule"]

    def test_catalogue(self, tier, capsys):
        rules = BY_NAME[tier].rules
        assert main(only(tier, "--list-rules")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "repro-check rules:"
        assert lines[1] == FAMILIES[rules[0].rule_id[:4]] + ":"
        body = lines[2 : 2 + 2 * len(rules)]
        assert [line.split()[:2] for line in body[::2]] == [
            [rule.rule_id, rule.name] for rule in rules
        ]
        assert [line.strip() for line in body[1::2]] == [
            rule.rationale for rule in rules
        ]
        assert lines[2 + 2 * len(rules)].strip() == BY_NAME[tier].note
        assert lines[-4] == FAMILIES["RPL9"] + ":"
        assert lines[-3].split()[:2] == ["RPL900", "parse-error"]
        assert "pseudo-rule" in lines[-3] and "Not selectable" in lines[-2]
        assert "disable=" in lines[-1]
        assert len(lines) == 2 + 2 * len(rules) + 1 + 4


class TestAcrossTiers:
    def test_select_runs_only_the_tiers_owning_the_rules(self, dirty, capsys):
        tree, _rule = dirty("audit")
        assert main([str(tree), "--select", "RPL203,wall-clock", "-f", "json"]) == 1
        tools = json.loads(capsys.readouterr().out)["tools"]
        assert set(tools) == {"lint", "audit"}
        assert tools["lint"]["report"]["summary"]["findings"] == 0

    def test_paths_override_every_tier(self, dirty, capsys):
        tree, _rule = dirty("audit")
        assert main([str(tree), "-f", "json"]) == 1
        tools = json.loads(capsys.readouterr().out)["tools"]
        files = {name: tool["report"]["summary"]["files"] for name, tool in tools.items()}
        assert files == {name: len(AUDIT_ONLY_DIRTY) for name in TIER_NAMES}

    def test_json_stdout_is_one_document(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        clean = TESTS / "vec" / "fixtures" / "rpl311_good"
        assert main([str(clean), "-f", "json", "--write-manifests"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["manifests_checked"] is False
        assert captured.err.count("repro-check: wrote") == 3

    def test_manifest_flags_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--check-manifests", "--write-manifests"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_full_catalogue_lists_every_rule_once(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for tier in TIERS:
            assert FAMILIES[tier.rules[0].rule_id[:4]] + ":" in out
            for rule in tier.rules:
                assert out.count(f"  {rule.rule_id}  ") == 1
        assert out.count("  RPL900  ") == 1
