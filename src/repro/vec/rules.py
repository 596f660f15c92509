"""The RPL3xx rule family: numeric dtype/shape flow and hot-loop debt.

Pass 1 (RPL301-304) runs over every function in every numpy-importing
module and certifies the *numeric* layer: encodes that fit their dtype,
no silent narrowing, scatter ops on matching dtypes, validated CSR
structures.  Pass 2 (RPL311-313) runs only over the *hot* set — the
inheritance-aware call closure of the engines' ``step``/``run``/
``communicate`` entry points — and certifies the *performance* layer:
no Python-level loops over node/edge-scale data, no allocation inside
hot loops, no per-step structure rebuilds.

Findings reuse the lint engine's :class:`~repro.lint.core.Finding`
shape and suppression directives: a reviewed scalar loop is sanctioned
on its line with ``# repro-lint: disable=RPL311 <reason>`` and then
appears in the committed ``VEC_MANIFEST.json`` ledger instead of
failing the run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..audit.callgraph import ClassHierarchy, function_body_walk
from ..audit.project import MODULE_BODY, FunctionNode
from ..audit.session import (
    AnalysisSession,
    ProjectContext,
    ProjectRule,
    TierReport,
    run_tier,
    short_trace,
)
from ..lint.core import Finding
from ..lint.rules import select_rules
from .hot import hot_closure, hot_roots
from .infer import (
    FunctionFacts,
    class_attribute_facts,
    infer_function,
    module_uses_numpy,
)

__all__ = [
    "LOOP_RULE_IDS",
    "VEC_RULES",
    "VecContext",
    "VecRule",
    "build_vec_context",
    "run_vec",
]

#: Identifier words that mark a collection as node/edge-scale.
_SCALE_WORDS = frozenset(
    {
        "node",
        "nodes",
        "cell",
        "cells",
        "edge",
        "edges",
        "peer",
        "peers",
        "neighbor",
        "neighbors",
        "neighbour",
        "neighbours",
        "indices",
        "indptr",
        "offer",
        "offers",
        "partner",
        "partners",
        "holder",
        "holders",
        "height",
        "heights",
    }
)

_INDPTR_RE = re.compile(r"(^|_)indptr$")
_INDICES_RE = re.compile(r"(^|_)indices$")
_VALIDATOR_CALLS = frozenset({"numpy.diff", "numpy.all", "numpy.any"})


def _scale_name(identifier: str) -> bool:
    return any(word in _SCALE_WORDS for word in identifier.lower().split("_"))


@dataclass
class VecContext(ProjectContext):
    """Everything an RPL3xx rule may inspect."""

    hierarchy: ClassHierarchy
    #: fq -> interpreted facts, for every analyzed function.
    facts: Dict[str, FunctionFacts]
    #: hot fq -> call trace from an engine root.
    hot: Dict[str, Tuple[str, ...]]
    roots: List[FunctionNode]

    def hot_facts(self) -> List[FunctionFacts]:
        return [
            self.facts[fq] for fq in sorted(self.hot) if fq in self.facts
        ]


class VecRule(ProjectRule):
    """An RPL3xx rule: ``check`` receives a :class:`VecContext`."""


class EncodeOverflowRule(VecRule):
    rule_id = "RPL301"
    name = "overflow-encode"
    summary = "integer encode (a * K + b) carried in a sub-64-bit dtype"
    rationale = (
        "The engines pack (height, source) pairs into single integers "
        "as height * K + source; at 10^6 nodes the code exceeds int32 "
        "after ~2147 mined blocks, and overflow silently inverts the "
        "scatter-max tie-break. Encodes must be built in int64."
    )

    def check(self, context: VecContext) -> List[Finding]:
        findings: List[Finding] = []
        for facts in context.facts.values():
            record = context.record_of(facts.fn)
            for event in facts.encodes:
                bound = 2 ** (event.dtype.bits - 1) - 1
                findings.append(
                    self.finding(
                        record,
                        event.line,
                        event.col,
                        f"integer encode '{event.expr}' in "
                        f"'{facts.fn.fq}' promotes to {event.dtype.name}: "
                        f"the packed code overflows past {bound} "
                        "(node-count x height headroom); build the encode "
                        "in int64",
                    )
                )
        return findings


class SilentDowncastRule(VecRule):
    rule_id = "RPL302"
    name = "silent-downcast"
    summary = "implicit narrowing at a setitem or out= boundary"
    rationale = (
        "ndarray[...] = wider_values and out=narrower casts truncate "
        "without a warning under NumPy's unsafe setitem casting; a "
        "height that wraps in int16 corrupts fork bookkeeping silently. "
        "Narrow explicitly with .astype(...) where the loss is intended."
    )

    def check(self, context: VecContext) -> List[Finding]:
        findings: List[Finding] = []
        for facts in context.facts.values():
            record = context.record_of(facts.fn)
            for event in facts.downcasts:
                findings.append(
                    self.finding(
                        record,
                        event.line,
                        event.col,
                        f"storing {event.src.name} values into "
                        f"{event.dst.name} '{event.target}' at an "
                        f"{event.boundary} boundary in '{facts.fn.fq}' "
                        "silently truncates; widen the target or cast "
                        "explicitly with .astype",
                    )
                )
        return findings


class ScatterDtypeRule(VecRule):
    rule_id = "RPL303"
    name = "scatter-dtype-mismatch"
    summary = "np.<ufunc>.at scatter between mismatched dtypes"
    rationale = (
        "np.maximum.at(target, idx, values) casts values to the target "
        "dtype element-wise; scattering int64 offer codes into an int32 "
        "buffer reintroduces the overflow RPL301 guards against, one "
        "element at a time. Scatter buffers must match the value dtype."
    )

    @staticmethod
    def _mismatch(target, value) -> bool:
        if target is None or value is None:
            return False
        if target.family != value.family:
            return True
        return value.bits > target.bits

    def check(self, context: VecContext) -> List[Finding]:
        findings: List[Finding] = []
        for facts in context.facts.values():
            record = context.record_of(facts.fn)
            for event in facts.scatters:
                if not self._mismatch(event.target_dtype, event.value_dtype):
                    continue
                findings.append(
                    self.finding(
                        record,
                        event.line,
                        event.col,
                        f"{event.op}(...) in '{facts.fn.fq}' scatters "
                        f"{event.value_dtype.name} values into "
                        f"{event.target_dtype.name} '{event.target}'; "
                        "the element-wise cast truncates — allocate the "
                        "scatter target in the value dtype",
                    )
                )
        return findings


class UnvalidatedCsrRule(VecRule):
    rule_id = "RPL304"
    name = "unvalidated-csr"
    summary = "CSR arrays built without validation or a validating constructor"
    rationale = (
        "indptr/indices pairs encode the whole topology; a "
        "non-monotonic indptr or out-of-bounds index turns the scatter "
        "kernels into silent memory-order corruption. Construction "
        "sites must validate (monotonicity, bounds) or hand both arrays "
        "to a constructor that does."
    )

    def check(self, context: VecContext) -> List[Finding]:
        findings: List[Finding] = []
        for facts in context.facts.values():
            record = context.record_of(facts.fn)
            fn = facts.fn
            if fn.qualname == MODULE_BODY:
                continue
            constructions: List[Tuple[str, int, int]] = []
            handoff = False
            validated = False
            for node in function_body_walk(record, fn):
                if isinstance(node, ast.Assign) and isinstance(
                    node.value, (ast.Call, ast.BinOp)
                ):
                    for target in node.targets:
                        name = _terminal_name(target)
                        if name is not None and _INDPTR_RE.search(name):
                            constructions.append(
                                (name, node.lineno, node.col_offset)
                            )
                elif isinstance(node, ast.Call):
                    seen_indptr = False
                    seen_indices = False
                    for arg in list(node.args) + [
                        kw.value for kw in node.keywords
                    ]:
                        for ident in _identifiers(arg):
                            if _INDPTR_RE.search(ident):
                                seen_indptr = True
                            if _INDICES_RE.search(ident):
                                seen_indices = True
                    for kw in node.keywords:
                        if kw.arg and _INDPTR_RE.search(kw.arg):
                            seen_indptr = True
                        if kw.arg and _INDICES_RE.search(kw.arg):
                            seen_indices = True
                    if seen_indptr and seen_indices:
                        handoff = True
                    canonical = record.info.resolve(node.func)
                    if canonical in _VALIDATOR_CALLS and any(
                        _INDPTR_RE.search(ident)
                        for arg in node.args
                        for ident in _identifiers(arg)
                    ):
                        validated = True
                elif isinstance(node, (ast.Assert, ast.If)):
                    test = node.test
                    if any(
                        _INDPTR_RE.search(ident) for ident in _identifiers(test)
                    ):
                        validated = True
            if not constructions or handoff or validated:
                continue
            for name, line, col in constructions:
                findings.append(
                    self.finding(
                        record,
                        line,
                        col,
                        f"CSR array '{name}' is constructed in "
                        f"'{fn.fq}' without monotonicity/bounds "
                        "validation and never handed (together with its "
                        "indices) to a validating constructor",
                    )
                )
        return findings


class HotPythonLoopRule(VecRule):
    rule_id = "RPL311"
    name = "hot-python-loop"
    summary = "Python for/comprehension over node/edge-scale data in hot code"
    rationale = (
        "A per-node Python loop inside the step/communicate closure "
        "turns an O(steps) vectorized kernel back into O(steps x nodes) "
        "interpreter time — the exact regression the vec engines "
        "exist to remove. Sanction a reviewed, bounded loop on its "
        "line with a reason; it then lives in VEC_MANIFEST.json."
    )

    def check(self, context: VecContext) -> List[Finding]:
        findings: List[Finding] = []
        for facts in context.hot_facts():
            record = context.record_of(facts.fn)
            trace = context.hot[facts.fn.fq]
            for event in facts.loops:
                if event.items_like:
                    continue
                scale = (
                    event.fact is not None
                    or any(_scale_name(name) for name in event.range_names)
                    or (
                        not event.range_names
                        and any(_scale_name(name) for name in event.names)
                    )
                )
                if not scale:
                    continue
                findings.append(
                    self.finding(
                        record,
                        event.line,
                        event.col,
                        f"{event.kind} loop over '{event.iterable}' in hot "
                        f"function '{facts.fn.fq}' (hot via "
                        f"{short_trace(trace)}) iterates node/edge-scale "
                        "data in Python; vectorize or sanction with a "
                        "reason",
                    )
                )
        return findings


class HotLoopAllocRule(VecRule):
    rule_id = "RPL312"
    name = "hot-loop-alloc"
    summary = "array construction inside a loop in hot code"
    rationale = (
        "Allocating inside a hot loop multiplies allocator traffic by "
        "the iteration count per step; buffers used every step belong "
        "outside the loop (or in __init__), reused in place."
    )

    def check(self, context: VecContext) -> List[Finding]:
        findings: List[Finding] = []
        for facts in context.hot_facts():
            record = context.record_of(facts.fn)
            trace = context.hot[facts.fn.fq]
            for event in facts.allocs:
                findings.append(
                    self.finding(
                        record,
                        event.line,
                        event.col,
                        f"array allocation '{event.what}' inside a loop in "
                        f"hot function '{facts.fn.fq}' (hot via "
                        f"{short_trace(trace)}); hoist the buffer out of "
                        "the loop and reuse it",
                    )
                )
        return findings


class HotRebuildRule(VecRule):
    rule_id = "RPL313"
    name = "hot-rebuild"
    summary = "CSR/neighbour-structure rebuild reachable from the step loop"
    rationale = (
        "Topology structures (CSR arrays, neighbour matrices) are "
        "invariants of a run; rebuilding one inside the step closure "
        "repeats an O(edges) construction every step. Build once at "
        "__init__ and reuse."
    )

    def check(self, context: VecContext) -> List[Finding]:
        findings: List[Finding] = []
        for facts in context.hot_facts():
            record = context.record_of(facts.fn)
            trace = context.hot[facts.fn.fq]
            for event in facts.builds:
                findings.append(
                    self.finding(
                        record,
                        event.line,
                        event.col,
                        f"'{event.callee}' rebuilds a topology structure "
                        f"inside hot function '{facts.fn.fq}' (hot via "
                        f"{short_trace(trace)}); structures are run "
                        "invariants — build once outside the step loop",
                    )
                )
        return findings


def _terminal_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _identifiers(node: ast.expr) -> List[str]:
    out: List[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


VEC_RULES: List[VecRule] = sorted(
    [
        EncodeOverflowRule(),
        SilentDowncastRule(),
        ScatterDtypeRule(),
        UnvalidatedCsrRule(),
        HotPythonLoopRule(),
        HotLoopAllocRule(),
        HotRebuildRule(),
    ],
    key=lambda rule: rule.rule_id,
)

#: The manifest's ledger covers the hot-path (pass 2) family.
LOOP_RULE_IDS = frozenset({"RPL311", "RPL312", "RPL313"})


def build_vec_context(session: AnalysisSession) -> VecContext:
    """Inheritance-aware graph, hot closure, and per-function facts.

    Facts are inferred for every function in a numpy-importing module
    (pass 1's scope) plus every hot function regardless of module
    (pass 2 must see loops in engines that do their array work through
    helpers).  Module bodies are not interpreted: import-time code is
    one-shot.
    """
    project = session.project
    graph = session.call_graph(inheritance=True)
    hierarchy = ClassHierarchy(project)
    attr_facts = class_attribute_facts(project, hierarchy)
    roots = hot_roots(project)
    hot = hot_closure(graph, roots)
    facts: Dict[str, FunctionFacts] = {}
    for record in project.modules.values():
        uses_numpy = module_uses_numpy(record)
        for fn in record.functions.values():
            if fn.qualname == MODULE_BODY:
                continue
            if not uses_numpy and fn.fq not in hot:
                continue
            attrs = None
            if "." in fn.qualname:
                class_fq = f"{record.name}.{fn.qualname.split('.', 1)[0]}"
                attrs = attr_facts.get(class_fq)
            facts[fn.fq] = infer_function(record, fn, attr_facts=attrs)
    return VecContext(
        project=project,
        graph=graph,
        hierarchy=hierarchy,
        facts=facts,
        hot=hot,
        roots=roots,
    )


def run_vec(
    paths: Sequence[Union[str, Path]],
    suppressions: str = "all",
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> TierReport:
    """Load, analyze, and apply every (selected) RPL3xx rule.

    Suppression semantics follow the audit: ``"all"`` honours
    ``disable-file`` headers, ``"line"`` looks inside them (fixture
    trees); line suppressions on a finding's line move it to the
    ``suppressed`` ledger in both modes.
    """
    return run_tier(
        select_rules(VEC_RULES, select, ignore),
        build_vec_context(AnalysisSession(paths, suppressions)),
    )
