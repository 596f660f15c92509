"""The audit tier: whole-program seed-flow & effect analysis.

The per-file linter (:mod:`repro.lint`) certifies each file in
isolation; this package certifies the *composition*: it resolves the
full intra-repo import graph, builds a symbol table and call graph
over the source tree, infers impurity effects inter-procedurally, and
holds every trial/entry worker to the purity bar the result cache and
the trial ensemble assume.  The committed ``AUDIT_MANIFEST.json`` is
the CI-gated ledger of each worker's effect surface.

Public surface::

    from repro.audit import run_audit
    report = run_audit(["src"])
    report.ok            # no unsanctioned cross-file findings
    report.findings      # RPL2xx + RPL900 findings, sorted

Command line: the audit tier of ``repro-check``.  Every whole-program
tier builds its context from one :class:`AnalysisSession` (one parse,
one call graph per flavour) and runs through :func:`run_tier`.
"""

from .callgraph import (
    CallGraph,
    CallSite,
    ClassHierarchy,
    build_call_graph,
    function_body_walk,
)
from .effects import Effect, EffectClosure, TracedEffect, direct_effects, effect_closure
from .manifest import (
    DEFAULT_MANIFEST,
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    diff_manifest,
    render_manifest,
)
from .project import ClassNode, FunctionNode, MODULE_BODY, ModuleRecord, Project
from .rules import AUDIT_RULES, AuditContext, AuditRule, build_context, run_audit
from .session import AnalysisSession, TierReport
from .workers import Worker, find_workers

__all__ = [
    "AUDIT_RULES",
    "AnalysisSession",
    "AuditContext",
    "AuditRule",
    "CallGraph",
    "CallSite",
    "ClassHierarchy",
    "ClassNode",
    "DEFAULT_MANIFEST",
    "Effect",
    "EffectClosure",
    "FunctionNode",
    "MANIFEST_SCHEMA_VERSION",
    "MODULE_BODY",
    "ModuleRecord",
    "Project",
    "TierReport",
    "TracedEffect",
    "Worker",
    "build_call_graph",
    "build_context",
    "build_manifest",
    "diff_manifest",
    "direct_effects",
    "effect_closure",
    "find_workers",
    "function_body_walk",
    "render_manifest",
    "run_audit",
]
