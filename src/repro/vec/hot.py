"""Hot-path classification for the vec analyzer's pass 2.

A function is *hot* when the inheritance-aware may-call graph reaches
it from an engine entry point: a ``step``/``run``/``run_until``/
``communicate``/``_communicate`` method (or module-level function) in a
simulation-engine module (``netsim`` by default).  Per-step code is the
only place a Python-level loop over node/edge-scale data turns into a
simulation-length slowdown, so the RPL31x rules fire nowhere else.

The BFS deliberately does not traverse ``<module>`` pseudo-functions:
import-time code runs once per process, not once per step, and pulling
whole modules into the hot set through the implicit import edges would
drown the signal.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Tuple

from ..audit.callgraph import CallGraph
from ..audit.project import MODULE_BODY, FunctionNode, Project

__all__ = [
    "HOT_ENTRY_METHODS",
    "HOT_MODULE_RE",
    "hot_closure",
    "hot_roots",
]

#: Method/function names that define an engine's per-step surface.
HOT_ENTRY_METHODS = frozenset(
    {"step", "run", "run_until", "communicate", "_communicate"}
)

#: Modules whose entry points count as engine roots.
HOT_MODULE_RE = re.compile(r"(^|\.)netsim(\.|$)")


def hot_roots(project: Project) -> List[FunctionNode]:
    """Engine entry points, sorted by fully qualified name."""
    roots: List[FunctionNode] = []
    for record in project.modules.values():
        if not HOT_MODULE_RE.search(record.name):
            continue
        for fn in record.functions.values():
            if fn.qualname == MODULE_BODY:
                continue
            terminal = fn.qualname.rsplit(".", 1)[-1]
            if terminal in HOT_ENTRY_METHODS:
                roots.append(fn)
    return sorted(roots, key=lambda fn: fn.fq)


def hot_closure(
    graph: CallGraph, roots: Iterable[FunctionNode]
) -> Dict[str, Tuple[str, ...]]:
    """Reachable-from-roots map: hot fq -> shortest call trace.

    The trace starts at a root and ends at the function itself; it is
    what makes a finding reviewable ("hot via step -> _communicate ->
    _comm_adopt").  Module bodies are skipped (import-time code is
    not per-step).
    """
    hot: Dict[str, Tuple[str, ...]] = {}
    queue: List[str] = []
    for root in sorted(roots, key=lambda fn: fn.fq):
        if root.fq not in hot:
            hot[root.fq] = (root.fq,)
            queue.append(root.fq)
    while queue:
        current = queue.pop(0)
        for site in sorted(
            graph.callees(current), key=lambda s: (s.callee, s.line)
        ):
            callee = site.callee
            if callee.endswith(f".{MODULE_BODY}") or callee in hot:
                continue
            hot[callee] = hot[current] + (callee,)
            queue.append(callee)
    return hot
