"""Fixture-driven RPL3xx rule tests, mirroring ``tests/audit/test_rules.py``.

Each vec rule has a ``<id>_bad`` fixture tree that must fire it on
exactly the lines carrying ``# expect: <ID>`` markers, and a
``<id>_good`` tree of its closest look-alikes that must stay silent.
The RPL31x trees carry a ``netsim`` subpackage so the hot-path
classifier finds engine roots inside them.
"""

from pathlib import Path

import pytest

from repro.lint.rules import rule_by_identifier
from repro.vec import VEC_RULES, run_vec

from .conftest import FIXTURES, expected_findings

RULE_IDS = [rule.rule_id for rule in VEC_RULES]


class TestRuleRegistry:
    def test_exactly_the_rpl3xx_family(self):
        assert RULE_IDS == [
            "RPL301",
            "RPL302",
            "RPL303",
            "RPL304",
            "RPL311",
            "RPL312",
            "RPL313",
        ]

    def test_metadata_complete(self):
        for rule in VEC_RULES:
            assert rule.rule_id.startswith("RPL3")
            assert rule.name and rule.summary and rule.rationale

    def test_lookup_by_id_and_name(self):
        for rule in VEC_RULES:
            assert rule_by_identifier(rule.rule_id, VEC_RULES) is rule
            assert rule_by_identifier(rule.name, VEC_RULES) is rule

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            rule_by_identifier("RPL999", VEC_RULES)

    def test_every_rule_has_fixture_tree_pair(self):
        for rule in VEC_RULES:
            assert (FIXTURES / f"{rule.rule_id.lower()}_bad").is_dir()
            assert (FIXTURES / f"{rule.rule_id.lower()}_good").is_dir()


class TestBadTreesFire:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_exact_files_lines_and_ids(self, rule_id):
        tree = FIXTURES / f"{rule_id.lower()}_bad"
        report = run_vec([tree], suppressions="line")
        got = {
            (Path(f.path).name, f.line, f.rule_id) for f in report.findings
        }
        want = expected_findings(tree)
        assert want, f"{tree.name} must declare expectations"
        assert got == want

    def test_rpl301_names_the_dtype_and_bound(self):
        report = run_vec([FIXTURES / "rpl301_bad"], suppressions="line")
        narrow = [f for f in report.findings if "int32" in f.message]
        assert narrow
        assert any(str(2**31 - 1) in f.message for f in narrow)

    def test_rpl302_names_both_dtypes_and_the_boundary(self):
        report = run_vec([FIXTURES / "rpl302_bad"], suppressions="line")
        messages = [f.message for f in report.findings]
        assert any(
            "int64" in m and "int16" in m and "assignment" in m
            for m in messages
        )
        assert any("out=" in m for m in messages)

    def test_rpl311_findings_carry_the_hot_trace(self):
        report = run_vec([FIXTURES / "rpl311_bad"], suppressions="line")
        for finding in report.findings:
            assert "hot via" in finding.message
            assert "step" in finding.message or "run" in finding.message or (
                "_communicate" in finding.message
            )

    def test_rpl313_names_the_build_callee(self):
        report = run_vec([FIXTURES / "rpl313_bad"], suppressions="line")
        (finding,) = report.findings
        assert "_build_csr" in finding.message


class TestGoodTreesStaySilent:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_no_findings(self, rule_id):
        tree = FIXTURES / f"{rule_id.lower()}_good"
        report = run_vec([tree], suppressions="line")
        assert report.findings == [], "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}"
            for f in report.findings
        )


class TestSelection:
    def test_select_restricts_to_one_rule(self):
        tree = FIXTURES / "rpl311_bad"
        report = run_vec([tree], suppressions="line", select=["RPL301"])
        assert report.findings == []

    def test_ignore_drops_a_rule(self):
        tree = FIXTURES / "rpl311_bad"
        report = run_vec([tree], suppressions="line", ignore=["RPL311"])
        assert report.findings == []

    def test_select_by_name(self):
        tree = FIXTURES / "rpl311_bad"
        report = run_vec(
            [tree], suppressions="line", select=["hot-python-loop"]
        )
        assert {f.rule_id for f in report.findings} == {"RPL311"}


class TestSanctioning:
    def test_line_directive_moves_finding_to_the_ledger(self):
        report = run_vec([FIXTURES / "sanctioned"])
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["RPL311"]
        assert report.ok
