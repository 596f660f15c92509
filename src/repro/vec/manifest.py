"""The vec manifest: a committed, CI-gated hot-path ledger.

``VEC_MANIFEST.json`` records the analyzer's complete account of the
engines' hot surface: the entry-point roots, every function in their
call closure, and every *sanctioned* scalar loop — a hot-path RPL31x
finding muted on its line with ``# repro-lint: disable=RPL31x reason``.
Sanctioned loops produce no findings but stay on the ledger, so a
reviewer sees exactly which per-node Python loops were declared
acceptable and where.

Entries are keyed line-free (rule, owning function, message) so pure
code motion doesn't churn the file, and the whole payload is rendered
deterministically (sorted keys/lists).  ``repro-check --check-manifests``
re-derives it from source and fails CI with a unified diff on drift:
new vectorization debt in a hot path — or a change to what is hot —
must land in the same commit as the manifest update acknowledging it.
"""

from __future__ import annotations

from typing import Any, Dict

from ..audit.session import TierReport, sanction_ledger
from ..lint.manifest import diff_manifest, render_manifest
from .rules import LOOP_RULE_IDS

__all__ = [
    "DEFAULT_MANIFEST",
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "diff_manifest",
    "render_manifest",
]

#: Default committed location, relative to the repo root.
DEFAULT_MANIFEST = "VEC_MANIFEST.json"

#: Bump when the manifest envelope shape changes.
MANIFEST_SCHEMA_VERSION = 1


def build_manifest(report: TierReport) -> Dict[str, Any]:
    """The manifest payload, pure data, deterministically ordered."""
    return {
        "version": MANIFEST_SCHEMA_VERSION,
        "hot_roots": sorted(fn.fq for fn in report.context.roots),
        "hot_functions": sorted(report.context.hot),
        "sanctioned_loops": sanction_ledger(report, LOOP_RULE_IDS),
    }
