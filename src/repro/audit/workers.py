"""Worker discovery: which functions must be pure.

Two dispatch surfaces make a function a *worker* — the units whose
purity the trial ensemble's statistics (and the result cache's
correctness) rest on:

- **trial workers**: the callable in the worker slot of
  ``TrialEngine.map`` / ``.run`` / ``.first_match`` — shipped to worker
  processes, re-executed on retry, expected to be a pure function of
  its :class:`~repro.parallel.trials.Trial`;
- **entry workers**: the per-artifact ``run`` callables registered in
  an experiment ``REGISTRY`` dict and dispatched through
  ``run_experiment`` — their results are what the content-keyed
  :class:`~repro.parallel.cache.ResultCache` stores, so *their* effect
  closure is what the cache's code fingerprint must cover.

Both are found statically, with the same receiver heuristic the
per-file RPL105 rule uses, so the two tools agree about what counts as
an engine dispatch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..lint.rules.pickling import is_engine_receiver
from .project import MODULE_BODY, FunctionNode, Project

__all__ = ["Worker", "find_workers"]

#: Engine methods whose first argument is a worker callable.  ``run``
#: joins the RPL105 set here: the audit cares about everything the
#: engine executes, not only the unpicklable-lambda hazard.
_ENGINE_METHODS = frozenset({"map", "run", "first_match"})


@dataclass(frozen=True)
class Worker:
    """One function the audit holds to the purity bar."""

    fq: str
    node: FunctionNode
    role: str  # ``"trial"`` or ``"entry"``
    artifact: Optional[str]  # registry key when known
    dispatch_module: str  # module containing the dispatch/registration
    dispatch_line: int


def _worker_argument(node: ast.Call) -> Optional[ast.AST]:
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg == "fn":
            return keyword.value
    return None


def _find_trial_workers(project: Project) -> List[Worker]:
    workers: List[Worker] = []
    for record in project.modules.values():
        for node in ast.walk(record.info.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr in _ENGINE_METHODS
            ):
                continue
            if not is_engine_receiver(record.info, func.value):
                continue
            worker_expr = _worker_argument(node)
            if worker_expr is None:
                continue
            canonical = record.info.resolve(worker_expr)
            if canonical is None:
                continue
            target = project.resolve_local(record, canonical)
            if target is None or target[0] != "function":
                continue
            fn: FunctionNode = target[1]
            if fn.qualname == MODULE_BODY:
                continue
            workers.append(
                Worker(
                    fq=fn.fq,
                    node=fn,
                    role="trial",
                    artifact=None,
                    dispatch_module=record.name,
                    dispatch_line=node.lineno,
                )
            )
    return workers


def _find_registry_entries(project: Project) -> List[Worker]:
    workers: List[Worker] = []
    for record in project.modules.values():
        for stmt in record.info.tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            if isinstance(stmt, ast.Assign):
                targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
                value = stmt.value
            else:
                targets = [stmt.target] if isinstance(stmt.target, ast.Name) else []
                value = stmt.value
            if value is None or not isinstance(value, ast.Dict):
                continue
            if not any(t.id == "REGISTRY" for t in targets):
                continue
            for key, entry in zip(value.keys, value.values):
                if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                    continue
                canonical = record.info.resolve(entry)
                if canonical is None:
                    continue
                target = project.resolve_local(record, canonical)
                if target is None or target[0] != "function":
                    continue
                fn: FunctionNode = target[1]
                workers.append(
                    Worker(
                        fq=fn.fq,
                        node=fn,
                        role="entry",
                        artifact=key.value,
                        dispatch_module=record.name,
                        dispatch_line=entry.lineno,
                    )
                )
    return workers


def find_workers(project: Project) -> List[Worker]:
    """All workers, entry workers first, deterministically ordered.

    Trial workers inherit the artifact id of an entry worker defined in
    the same module (the experiment-module convention), so the manifest
    can group each artifact's entry and trial workers together.  A
    function dispatched from several sites appears once.
    """
    entries = _find_registry_entries(project)
    trials = _find_trial_workers(project)
    artifact_by_module: Dict[str, str] = {}
    for entry in entries:
        if entry.artifact is not None:
            artifact_by_module.setdefault(entry.node.module, entry.artifact)
    seen: Dict[str, Worker] = {}
    for worker in entries:
        seen.setdefault(worker.fq, worker)
    for worker in trials:
        labeled = Worker(
            fq=worker.fq,
            node=worker.node,
            role=worker.role,
            artifact=artifact_by_module.get(worker.node.module),
            dispatch_module=worker.dispatch_module,
            dispatch_line=worker.dispatch_line,
        )
        seen.setdefault(labeled.fq, labeled)
    return sorted(seen.values(), key=lambda w: (w.role != "entry", w.fq))
