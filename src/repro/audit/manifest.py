"""The audit manifest: a committed, CI-gated purity ledger.

``AUDIT_MANIFEST.json`` records, per worker, the audit's complete
account of what that worker may do: every module and function its
transitive call graph reaches, and every effect in that closure —
including *sanctioned* effects, which produce no findings but stay on
the ledger so a reviewer can see exactly which impurities were declared
intentional, where, and under which suppression.

The file is deterministically rendered (sorted keys, sorted workers,
sorted effect lists, no line numbers — so pure-motion refactors don't
churn it).  ``repro-check --check-manifests`` re-derives the manifest
from source and fails CI with a unified diff when the committed copy
has drifted: any change to a worker's effect surface must land in the
same commit as the manifest update acknowledging it.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..lint.manifest import diff_manifest, render_manifest
from .rules import AuditContext

__all__ = [
    "DEFAULT_MANIFEST",
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "diff_manifest",
    "render_manifest",
]

#: Default committed location, relative to the repo root.
DEFAULT_MANIFEST = "AUDIT_MANIFEST.json"

#: Bump when the manifest envelope shape changes.
MANIFEST_SCHEMA_VERSION = 1


def _effect_entries(context: AuditContext, worker_fq: str) -> List[Dict[str, Any]]:
    closure = context.closures[worker_fq]
    entries = {
        (traced.effect.kind, traced.effect.site, traced.effect.sanctioned)
        for traced in closure.effects
    }
    return [
        {"kind": kind, "site": site, "sanctioned": sanctioned}
        for kind, site, sanctioned in sorted(entries)
    ]


def build_manifest(context: AuditContext) -> Dict[str, Any]:
    """The manifest payload, pure data, deterministically ordered."""
    workers: Dict[str, Any] = {}
    for worker in context.workers:
        closure = context.closures[worker.fq]
        workers[worker.fq] = {
            "role": worker.role,
            "artifact": worker.artifact,
            "dispatched_from": worker.dispatch_module,
            "modules": list(closure.modules),
            "functions": list(closure.functions),
            "effects": _effect_entries(context, worker.fq),
        }
    artifacts = sorted(
        {w.artifact for w in context.workers if w.artifact is not None}
    )
    return {
        "version": MANIFEST_SCHEMA_VERSION,
        "artifacts": artifacts,
        "workers": workers,
    }
