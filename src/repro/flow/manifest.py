"""The flow manifest: a committed, CI-gated cache-soundness ledger.

``FLOW_MANIFEST.json`` records the analyzer's complete account of the
cache surface: every cache boundary with its influencing parameters
(and their kinds), the parameters its key provably covers, and any
parameters sanctioned on their signature line with ``# repro-lint:
disable=RPL401 reason``; every digest-bearing spec class with its field
coverage; and the line-free sanction ledger for the whole RPL4xx
family.

``repro-check --check-manifests`` re-derives the payload from source and
fails CI with a unified diff on drift: a new result-influencing knob —
or a change to what the key covers — must land in the same commit as
the manifest update acknowledging it.  Entries are keyed line-free so
pure code motion doesn't churn the file, and the whole payload renders
deterministically (sorted keys/lists) via :mod:`repro.lint.manifest`.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..audit.session import TierReport, sanction_ledger
from ..lint.manifest import diff_manifest, render_manifest
from .rules import FLOW_RULE_IDS

__all__ = [
    "DEFAULT_MANIFEST",
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "diff_manifest",
    "render_manifest",
]

#: Default committed location, relative to the repo root.
DEFAULT_MANIFEST = "FLOW_MANIFEST.json"

#: Bump when the manifest envelope shape changes.
MANIFEST_SCHEMA_VERSION = 1


def _sanctioned_params(report: TierReport, fq: str) -> List[str]:
    """Boundary params whose RPL401 findings are line-sanctioned."""
    boundary = report.context.boundaries[fq]
    lines = {
        line: param for param, line in boundary.flow.param_lines.items()
    }
    params = set()
    for finding in report.suppressed:
        if finding.rule_id != "RPL401":
            continue
        if finding.path != boundary.record.info.path:
            continue
        param = lines.get(finding.line)
        if param is not None and param in boundary.influencing:
            params.add(param)
    return sorted(params)


def build_manifest(report: TierReport) -> Dict[str, Any]:
    """The manifest payload, pure data, deterministically ordered."""
    boundaries: Dict[str, Any] = {}
    for fq in sorted(report.context.boundaries):
        boundary = report.context.boundaries[fq]
        boundaries[fq] = {
            "influencing": {
                param: sorted(kinds)
                for param, kinds in sorted(boundary.influencing.items())
            },
            "key_params": sorted(boundary.key_params),
            "sanctioned_params": _sanctioned_params(report, fq),
        }
    digests: Dict[str, Any] = {}
    for digest_cls in report.context.digest_classes:
        digests[digest_cls.cls.fq] = {
            "complete_by_construction": digest_cls.dynamic,
            "fields": sorted(digest_cls.fields),
        }
    return {
        "version": MANIFEST_SCHEMA_VERSION,
        "cache_boundaries": boundaries,
        "digest_classes": digests,
        "sanctioned": sanction_ledger(report, FLOW_RULE_IDS),
    }
