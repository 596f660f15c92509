"""The acceptance bar: the kernel layer passes its own vec analysis.

The vec tier of ``repro-check --check-manifests`` must exit 0 on this
tree — every
pass-1 dtype finding gets fixed (never suppressed), every standing
scalar loop in hot code carries a reasoned sanction, and the committed
``VEC_MANIFEST.json`` matches what the analyzer derives from source.
"""

import pytest

from repro.vec import build_manifest, diff_manifest
from repro.vec.rules import LOOP_RULE_IDS

from .conftest import REPO_ROOT


@pytest.fixture
def src_report(real_tree):
    """The vec report over ``src`` from the session's one analysis."""
    return real_tree["vec"]


class TestRepoSelfVec:
    def test_source_tree_is_clean(self, src_report):
        report = src_report
        assert report.findings == [], "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}"
            for f in report.findings
        )

    def test_committed_manifest_is_current(self, src_report):
        report = src_report
        drift = diff_manifest(
            build_manifest(report), REPO_ROOT / "VEC_MANIFEST.json"
        )
        assert drift is None, drift

    def test_every_suppression_is_a_sanctioned_hot_loop(self, src_report):
        report = src_report
        assert report.suppressed, "the engines keep reviewed scalar loops"
        assert {f.rule_id for f in report.suppressed} <= LOOP_RULE_IDS

    def test_hot_surface_covers_both_engines(self, src_report):
        manifest = build_manifest(src_report)
        hot = manifest["hot_functions"]
        assert any("netsim.grid" in fq and ".step" in fq for fq in hot)
        assert any(
            "GraphSimulatorVec._communicate" in fq for fq in hot
        )
        assert any("GraphSimulatorVec._comm_adopt" in fq for fq in hot)

    def test_pass1_never_needs_suppressing(self, src_report):
        """Dtype findings are bugs, not style: none may be sanctioned."""
        report = src_report
        assert not any(
            f.rule_id in ("RPL301", "RPL302", "RPL303", "RPL304")
            for f in report.suppressed
        )
