"""The acceptance bar: the kernel layer passes its own vec analysis.

``repro-vec src --check-manifest`` must exit 0 on this tree — every
pass-1 dtype finding gets fixed (never suppressed), every standing
scalar loop in hot code carries a reasoned sanction, and the committed
``VEC_MANIFEST.json`` matches what the analyzer derives from source.
"""

from repro.vec import build_manifest, diff_manifest, run_vec
from repro.vec.rules import LOOP_RULE_IDS

from .conftest import REPO_ROOT


def _src_report():
    return run_vec([REPO_ROOT / "src"])


class TestRepoSelfVec:
    def test_source_tree_is_clean(self):
        report = _src_report()
        assert report.findings == [], "\n".join(
            f"{f.location()}: {f.rule_id} {f.message}"
            for f in report.findings
        )

    def test_committed_manifest_is_current(self):
        report = _src_report()
        drift = diff_manifest(
            build_manifest(report), REPO_ROOT / "VEC_MANIFEST.json"
        )
        assert drift is None, drift

    def test_every_suppression_is_a_sanctioned_hot_loop(self):
        report = _src_report()
        assert report.suppressed, "the engines keep reviewed scalar loops"
        assert {f.rule_id for f in report.suppressed} <= LOOP_RULE_IDS

    def test_hot_surface_covers_both_engines(self):
        manifest = build_manifest(_src_report())
        hot = manifest["hot_functions"]
        assert any("netsim.grid" in fq and ".step" in fq for fq in hot)
        assert any(
            "GraphSimulatorVec._communicate" in fq for fq in hot
        )
        assert any("GraphSimulatorVec._comm_adopt" in fq for fq in hot)

    def test_pass1_never_needs_suppressing(self):
        """Dtype findings are bugs, not style: none may be sanctioned."""
        report = _src_report()
        assert not any(
            f.rule_id in ("RPL301", "RPL302", "RPL303", "RPL304")
            for f in report.suppressed
        )
