"""Inter-procedural effect inference.

Direct (per-function) impurity effects come from three detectors:

1. the per-file lint rules, re-run over each module and mapped to
   effect kinds (RPL101 -> ``global-rng``, RPL102 -> ``global-state``,
   RPL103 -> ``wall-clock``, RPL104 -> ``unordered-iter``) — so the
   audit and the linter can never disagree about what a primitive
   impurity is;
2. an I/O detector the per-file rules don't have (``filesystem``,
   ``env``, ``network``): canonical-name matching over ``open``/
   ``os``/``shutil``/``tempfile``/``socket``/``urllib``/... calls plus
   path-object read/write method names;
3. a cross-module state detector for the blind spot RPL102 cannot see
   in one file: mutating a name *imported from another module* whose
   binding there is a known-mutable (``from .registry import SHARED;
   SHARED[k] = v``) — additional ``global-state`` effects.

An effect whose line carries a ``# repro-lint: disable=`` directive
naming the matching per-file rule, the effect kind, or an RPL2xx audit
rule is *sanctioned*: declared intentional with a reason.  Sanctioned
effects never produce findings but stay in the audit manifest, which
is how the purity ledger records them.

:func:`effect_closure` then propagates effects transitively: BFS over
the call graph from a worker, collecting every reached function's
direct effects together with the call chain that reaches them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..lint.rules import rule_by_identifier
from .callgraph import CallGraph, function_body_walk
from .project import MODULE_BODY, ModuleRecord, Project

__all__ = [
    "Effect",
    "EffectClosure",
    "IMPURE_KINDS",
    "STATE_KINDS",
    "TracedEffect",
    "direct_effects",
    "effect_closure",
]

#: Per-file lint rules reused as effect primitives: rule id -> kind.
_RULE_EFFECTS = (
    ("RPL101", "global-rng"),
    ("RPL102", "global-state"),
    ("RPL103", "wall-clock"),
    ("RPL104", "unordered-iter"),
)

#: Effect kinds RPL201 (impure worker) reports.
IMPURE_KINDS = frozenset(
    {"global-rng", "wall-clock", "filesystem", "env", "network", "unordered-iter"}
)

#: Effect kinds RPL203 (reachable mutable state) reports.
STATE_KINDS = frozenset({"global-state"})

#: Canonical call prefixes that touch the filesystem / env / network.
_FS_PREFIXES = ("shutil.", "tempfile.", "glob.")
_FS_CALLS = frozenset(
    {
        "open",
        "io.open",
        "os.fdopen",
        "os.replace",
        "os.rename",
        "os.remove",
        "os.unlink",
        "os.mkdir",
        "os.makedirs",
        "os.rmdir",
        "os.listdir",
        "os.scandir",
        "os.stat",
        "os.walk",
    }
)
#: Path-object method names that read or write (receiver-agnostic: the
#: receiver of ``.read_text()`` is a path in this codebase's idiom).
_FS_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)
_ENV_CALLS = frozenset({"os.getenv", "os.putenv", "os.environ.get"})
_NET_PREFIXES = (
    "socket.",
    "urllib.",
    "http.",
    "requests.",
    "ftplib.",
    "smtplib.",
)


@dataclass(frozen=True, order=True)
class Effect:
    """One primitive impurity at a specific source location."""

    kind: str
    module: str
    function: str  # enclosing function qualname (or ``<module>``)
    line: int
    detail: str
    sanctioned: bool

    @property
    def site(self) -> str:
        """Stable location label (no line number: manifest-friendly)."""
        return f"{self.module}.{self.function}"


@dataclass(frozen=True)
class TracedEffect:
    """An effect plus the call chain that reaches it from a worker."""

    effect: Effect
    trace: Tuple[str, ...]  # fq function ids, worker first


@dataclass
class EffectClosure:
    """Everything transitively reachable from one worker."""

    worker: str
    functions: Tuple[str, ...]  # sorted reached fq ids
    modules: Tuple[str, ...]  # sorted reached module names
    effects: Tuple[TracedEffect, ...]  # sorted by effect


def _sanction_tokens(kind: str, rule_id: str) -> Set[str]:
    """Directive tokens that sanction an effect of this kind."""
    tokens = {"all", kind.lower(), "rpl201", "impure-worker", "rpl203",
              "reachable-state"}
    if rule_id:
        rule = rule_by_identifier(rule_id)
        tokens.add(rule.rule_id.lower())
        tokens.add(rule.name.lower())
    return tokens


def _is_sanctioned(
    record: ModuleRecord, line: int, kind: str, rule_id: str = ""
) -> bool:
    present = record.suppressions.lines.get(line)
    if not present:
        return False
    return bool(present & _sanction_tokens(kind, rule_id))


def _rule_effects(record: ModuleRecord) -> List[Effect]:
    effects: List[Effect] = []
    for rule_id, kind in _RULE_EFFECTS:
        rule = rule_by_identifier(rule_id)
        for finding in record.info.check(rule):
            fn = record.function_at_line(finding.line)
            effects.append(
                Effect(
                    kind=kind,
                    module=record.name,
                    function=fn.qualname,
                    line=finding.line,
                    detail=finding.message,
                    sanctioned=_is_sanctioned(record, finding.line, kind, rule_id),
                )
            )
    return effects


def _io_effect_kind(record: ModuleRecord, node: ast.AST) -> Optional[Tuple[str, str]]:
    """``(kind, detail)`` when a node is an I/O primitive, else None."""
    if isinstance(node, ast.Call):
        canonical = record.info.resolve(node.func)
        if canonical is not None:
            if canonical in _FS_CALLS or canonical.startswith(_FS_PREFIXES):
                return "filesystem", f"{canonical}() touches the filesystem"
            if canonical in _ENV_CALLS:
                return "env", f"{canonical}() reads process environment"
            if canonical.startswith(_NET_PREFIXES):
                return "network", f"{canonical}() performs network I/O"
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _FS_METHODS:
            return "filesystem", f".{func.attr}() reads/writes a file"
    elif isinstance(node, ast.Attribute):
        parts = record.info.imports.dotted_parts(node)
        if parts is not None:
            head = record.info.imports.aliases.get(parts[0], parts[0])
            dotted = ".".join([head] + parts[1:])
            if dotted == "os.environ" or dotted.startswith("os.environ."):
                return "env", "os.environ access reads process environment"
    return None


def _io_effects(record: ModuleRecord) -> List[Effect]:
    effects: List[Effect] = []
    seen: Set[Tuple[str, int, str]] = set()
    for fn in record.functions.values():
        for node in function_body_walk(record, fn):
            hit = _io_effect_kind(record, node)
            if hit is None:
                continue
            kind, detail = hit
            line = getattr(node, "lineno", fn.lineno)
            key = (kind, line, fn.qualname)
            if key in seen:
                continue
            seen.add(key)
            effects.append(
                Effect(
                    kind=kind,
                    module=record.name,
                    function=fn.qualname,
                    line=line,
                    detail=detail,
                    sanctioned=_is_sanctioned(record, line, kind),
                )
            )
    return effects


_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "popleft",
        "extendleft",
        "rotate",
        "subtract",
    }
)


def _cross_module_state_effects(
    project: Project, record: ModuleRecord
) -> List[Effect]:
    """Mutations of mutables *imported from* another project module.

    The per-file RPL102 rule only tracks module-level assignments it can
    see; ``from .registry import SHARED`` then ``SHARED[key] = value``
    is invisible to it.  Here the import map says what ``SHARED``
    canonically is, and the owning module's record says whether that
    binding is a known-mutable.
    """

    def owning_mutable(name: str) -> Optional[Tuple[str, str]]:
        target = record.info.imports.aliases.get(name)
        if target is None:
            return None
        located = project.module_of(target)
        if located is None:
            return None
        owner_name, rest = located
        if len(rest) != 1 or owner_name == record.name:
            return None
        owner = project.modules[owner_name]
        if rest[0] in owner.mutables:
            kind = owner.mutables[rest[0]][1]
            return f"{owner_name}.{rest[0]}", kind
        return None

    effects: List[Effect] = []
    for fn in record.functions.values():
        if fn.qualname == MODULE_BODY:
            continue
        for node in function_body_walk(record, fn):
            name = None
            verb = None
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id == "next"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                ):
                    name, verb = node.args[0].id, "advances"
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                    and isinstance(func.value, ast.Name)
                ):
                    name, verb = func.value.id, f".{func.attr}() mutates"
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        name, verb = target.value.id, "item-assignment mutates"
            if name is None:
                continue
            owned = owning_mutable(name)
            if owned is None:
                continue
            dotted, kind = owned
            line = getattr(node, "lineno", fn.lineno)
            effects.append(
                Effect(
                    kind="global-state",
                    module=record.name,
                    function=fn.qualname,
                    line=line,
                    detail=(
                        f"{verb} '{dotted}' ({kind}) imported from another "
                        "module; cross-module process-global mutable state "
                        "couples every consumer in the process"
                    ),
                    sanctioned=_is_sanctioned(record, line, "global-state", "RPL102"),
                )
            )
    return effects


def direct_effects(project: Project) -> Dict[str, List[Effect]]:
    """Per-function direct effects for the whole project, keyed by fq id."""
    by_function: Dict[str, List[Effect]] = {}
    for record in project.modules.values():
        collected = (
            _rule_effects(record)
            + _io_effects(record)
            + _cross_module_state_effects(project, record)
        )
        for effect in collected:
            fq = f"{effect.module}.{effect.function}"
            by_function.setdefault(fq, []).append(effect)
    for bucket in by_function.values():
        bucket.sort()
    return by_function


def effect_closure(
    graph: CallGraph,
    effects: Dict[str, List[Effect]],
    worker_fq: str,
) -> EffectClosure:
    """BFS the call graph from a worker, collecting effects + traces."""
    parents: Dict[str, Optional[str]] = {worker_fq: None}
    queue: List[str] = [worker_fq]
    while queue:
        current = queue.pop(0)
        for site in graph.callees(current):
            if site.callee not in parents:
                parents[site.callee] = current
                queue.append(site.callee)

    def trace_to(fq: str) -> Tuple[str, ...]:
        chain: List[str] = []
        cursor: Optional[str] = fq
        while cursor is not None:
            chain.append(cursor)
            cursor = parents[cursor]
        return tuple(reversed(chain))

    traced: List[TracedEffect] = []
    for fq in parents:
        for effect in effects.get(fq, []):
            traced.append(TracedEffect(effect=effect, trace=trace_to(fq)))
    traced.sort(key=lambda item: item.effect)
    modules = sorted(
        {graph.nodes[fq].module for fq in parents if fq in graph.nodes}
    )
    return EffectClosure(
        worker=worker_fq,
        functions=tuple(sorted(parents)),
        modules=tuple(modules),
        effects=tuple(traced),
    )
