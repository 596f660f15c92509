"""Inter-procedural call graph over a :class:`~repro.audit.project.Project`.

Edges are *may-call* over-approximations, built per function node:

- a call resolving to an intra-repo function adds one edge;
- instantiating an intra-repo class adds edges to **all** of its
  methods (the "class closure"): the instance escapes static tracking
  the moment it is bound, so any of its methods may run — this is what
  lets a worker that builds a generator object inherit the generator's
  entire effect surface, including the original ``MiningPool`` bug;
- ``self.method()`` inside a class resolves to the sibling method;
- every function implicitly depends on its own module's ``<module>``
  body (import-time code runs before any call), and a module body
  depends on the module bodies of everything it imports.

Calls that cannot be resolved (methods on untracked objects, stdlib,
third-party) contribute no edges; their *effects* are still seen
wherever the receiver's class was instantiated inside the project.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .project import MODULE_BODY, ClassNode, FunctionNode, ModuleRecord, Project

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassHierarchy",
    "build_call_graph",
    "function_body_walk",
]


@dataclass(frozen=True)
class CallSite:
    """One resolved call: caller function -> callee function."""

    caller: str  # fully qualified caller id
    callee: str  # fully qualified callee id
    line: int
    via: str  # human label: called name / class instantiation


class CallGraph:
    """Adjacency over fully qualified function ids."""

    def __init__(self) -> None:
        self.edges: Dict[str, List[CallSite]] = {}
        self.nodes: Dict[str, FunctionNode] = {}

    def add_node(self, fn: FunctionNode) -> None:
        self.nodes[fn.fq] = fn
        self.edges.setdefault(fn.fq, [])

    def add_edge(self, site: CallSite) -> None:
        bucket = self.edges.setdefault(site.caller, [])
        if all(
            existing.callee != site.callee or existing.line != site.line
            for existing in bucket
        ):
            bucket.append(site)

    def callees(self, fq: str) -> List[CallSite]:
        return self.edges.get(fq, [])


def function_body_walk(record: ModuleRecord, fn: FunctionNode):
    """AST nodes belonging to one function node.

    For ``<module>`` this is the import-time scope: module statements
    without descending into function/class *bodies* (those run when
    called, not at import) — but class-body statements outside methods
    (dataclass fields, table constants) do run at import and are
    included.  For a real function it is the full subtree, nested defs
    included: a nested function is part of its owner's behavior.
    """
    if fn.qualname != MODULE_BODY:
        yield from ast.walk(record.defs[fn.qualname])
        return
    stack: List[ast.AST] = list(record.info.tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    stack.append(item)
            continue
        stack.extend(ast.iter_child_nodes(node))


def _edges_for_target(
    project: Project,
    caller: FunctionNode,
    target,
    line: int,
    label: str,
) -> List[CallSite]:
    kind, symbol = target
    if kind == "function":
        return [CallSite(caller.fq, symbol.fq, line, label)]
    if kind == "class":
        cls: ClassNode = symbol
        record = project.modules[cls.module]
        sites = []
        for method in cls.methods:
            fn = record.functions.get(method)
            if fn is not None:
                sites.append(
                    CallSite(caller.fq, fn.fq, line, f"{label}() instantiation")
                )
        return sites
    return []


def _class_of_method(qualname: str) -> Optional[str]:
    if "." in qualname and qualname != MODULE_BODY:
        return qualname.split(".", 1)[0]
    return None


class ClassHierarchy:
    """Project-wide subclass/base relations over :class:`ClassNode` s.

    Base-class expressions are recorded per class as canonical dotted
    names (module import-map resolution); here they are resolved to
    project classes, giving an upward ``bases`` map and its transpose,
    a ``subclasses`` map.  Classes whose bases leave the project
    (stdlib ABCs, third-party) simply have fewer edges — resolution is
    best-effort, matching the may-call philosophy.
    """

    def __init__(self, project: Project) -> None:
        self._project = project
        #: class fq -> direct base class fqs (declaration order)
        self.bases: Dict[str, Tuple[str, ...]] = {}
        #: class fq -> sorted direct subclass fqs
        self.subclasses: Dict[str, List[str]] = {}
        for record in project.modules.values():
            for cls in record.classes.values():
                resolved: List[str] = []
                for base in cls.bases:
                    target = project.resolve_local(record, base)
                    if target is not None and target[0] == "class":
                        resolved.append(target[1].fq)
                self.bases[cls.fq] = tuple(resolved)
        for derived, base_fqs in sorted(self.bases.items()):
            for base_fq in base_fqs:
                self.subclasses.setdefault(base_fq, []).append(derived)

    def class_node(self, class_fq: str) -> Optional[ClassNode]:
        module, _, name = class_fq.rpartition(".")
        record = self._project.modules.get(module)
        if record is None:
            return None
        return record.classes.get(name)

    def ancestors(self, class_fq: str) -> List[str]:
        """``class_fq`` plus its transitive bases, nearest first (BFS)."""
        order: List[str] = []
        queue = [class_fq]
        seen: Set[str] = set()
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            order.append(current)
            queue.extend(self.bases.get(current, ()))
        return order

    def descendants(self, class_fq: str) -> List[str]:
        """Transitive subclasses of ``class_fq`` (excluding itself), sorted."""
        found: Set[str] = set()
        queue = list(self.subclasses.get(class_fq, []))
        while queue:
            current = queue.pop(0)
            if current in found:
                continue
            found.add(current)
            queue.extend(self.subclasses.get(current, []))
        return sorted(found)

    def resolve_method(self, class_fq: str, method: str) -> Optional[FunctionNode]:
        """First definition of ``method`` along the ancestor chain."""
        for ancestor in self.ancestors(class_fq):
            node = self.class_node(ancestor)
            if node is None:
                continue
            record = self._project.modules[node.module]
            fn = record.functions.get(f"{node.name}.{method}")
            if fn is not None:
                return fn
        return None

    def overriding_methods(self, class_fq: str, method: str) -> List[FunctionNode]:
        """Subclass redefinitions of ``method`` below ``class_fq``."""
        out: List[FunctionNode] = []
        for descendant in self.descendants(class_fq):
            node = self.class_node(descendant)
            if node is None:
                continue
            record = self._project.modules[node.module]
            fn = record.functions.get(f"{node.name}.{method}")
            if fn is not None:
                out.append(fn)
        return out


def build_call_graph(project: Project, inheritance: bool = False) -> CallGraph:
    """Resolve every call site in every module into the graph.

    With ``inheritance=True``, ``self.method()`` calls additionally
    resolve *upward* to the nearest base-class definition when the own
    class has no such method, and *downward* to every subclass override
    (at runtime ``self`` may be any subclass instance).  The default
    keeps the original same-class-only behavior so existing audit
    output — including ``AUDIT_MANIFEST.json`` — is unchanged; the
    vec tier's hot-path pass opts in.
    """
    hierarchy = ClassHierarchy(project) if inheritance else None
    graph = CallGraph()
    for record in project.modules.values():
        for fn in record.functions.values():
            graph.add_node(fn)
    for record in project.modules.values():
        module_body = record.functions[MODULE_BODY].fq
        for imported in project.imported_modules(record):
            graph.add_edge(
                CallSite(module_body, f"{imported}.{MODULE_BODY}", 1, "import")
            )
        for fn in record.functions.values():
            if fn.qualname != MODULE_BODY:
                # Import-time code runs before any call into the module.
                graph.add_edge(
                    CallSite(fn.fq, module_body, fn.lineno, "module import")
                )
            own_class = _class_of_method(fn.qualname)
            for node in function_body_walk(record, fn):
                if not isinstance(node, ast.Call):
                    continue
                line = getattr(node, "lineno", fn.lineno)
                func = node.func
                # self.method() within the same class
                if (
                    own_class is not None
                    and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                ):
                    sibling = record.functions.get(f"{own_class}.{func.attr}")
                    if sibling is not None:
                        graph.add_edge(
                            CallSite(fn.fq, sibling.fq, line, f"self.{func.attr}")
                        )
                    resolved_self = sibling is not None
                    if hierarchy is not None:
                        own_fq = f"{record.name}.{own_class}"
                        if sibling is None:
                            inherited = hierarchy.resolve_method(own_fq, func.attr)
                            if inherited is not None:
                                graph.add_edge(
                                    CallSite(
                                        fn.fq,
                                        inherited.fq,
                                        line,
                                        f"self.{func.attr} (inherited)",
                                    )
                                )
                                resolved_self = True
                        for override in hierarchy.overriding_methods(
                            own_fq, func.attr
                        ):
                            graph.add_edge(
                                CallSite(
                                    fn.fq,
                                    override.fq,
                                    line,
                                    f"self.{func.attr} (override)",
                                )
                            )
                            resolved_self = True
                    if resolved_self:
                        continue
                canonical = record.info.resolve(func)
                if canonical is None:
                    continue
                target = project.resolve_local(record, canonical)
                if target is None:
                    continue
                for site in _edges_for_target(project, fn, target, line, canonical):
                    graph.add_edge(site)
    return graph
