"""One analysis session: parse once, build each call graph once.

The whole-program tiers (audit RPL2xx, vec RPL3xx, flow RPL4xx) all
start from the same :class:`~repro.audit.project.Project` and, between
them, two call-graph flavours (plain and inheritance-aware) plus one
worker list.  An :class:`AnalysisSession` builds each of those at most
once per invocation and hands them to every tier's context builder.

:func:`run_tier` is the one rule runner behind every tier: apply the
selected rules to a context, add the project's parse failures, sort,
and split the findings into reported and line-suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Collection, Dict, List, Sequence, Union

from ..lint.core import FileReport, Finding, RunReport
from .callgraph import CallGraph, build_call_graph
from .project import FunctionNode, ModuleRecord, Project
from .workers import Worker, find_workers

__all__ = [
    "AnalysisSession",
    "ProjectContext",
    "ProjectRule",
    "TierReport",
    "run_tier",
    "sanction_ledger",
    "short_trace",
]


class AnalysisSession:
    """Lazily loaded project, call graphs, and workers over ``paths``.

    ``suppressions`` follows :meth:`Project.load`: ``"all"`` honours
    ``disable-file`` headers (production), ``"line"`` looks inside
    them (fixture trees).
    """

    def __init__(
        self, paths: Sequence[Union[str, Path]], suppressions: str = "all"
    ) -> None:
        self.paths = list(paths)
        self.suppressions = suppressions
        self._graphs: Dict[bool, CallGraph] = {}

    @cached_property
    def project(self) -> Project:
        return Project.load(self.paths, suppressions=self.suppressions)

    @cached_property
    def workers(self) -> List[Worker]:
        return find_workers(self.project)

    def call_graph(self, inheritance: bool = False) -> CallGraph:
        """The plain or inheritance-aware call graph, built once each."""
        if inheritance not in self._graphs:
            self._graphs[inheritance] = build_call_graph(
                self.project, inheritance=inheritance
            )
        return self._graphs[inheritance]


@dataclass
class ProjectContext:
    """What every whole-program tier's context starts from."""

    project: Project
    graph: CallGraph

    def record_of(self, fn: FunctionNode) -> ModuleRecord:
        return self.project.modules[fn.module]


class ProjectRule:
    """Base of every whole-program rule: identity metadata + ``check``.

    The lint ``Rule`` protocol lifted to a whole project: ``check``
    receives the tier's context instead of one parsed module.
    """

    rule_id: str = ""
    name: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, context: ProjectContext) -> List[Finding]:
        raise NotImplementedError

    def finding(
        self, record: ModuleRecord, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=record.info.path,
            line=line,
            col=col,
            rule_id=self.rule_id,
            rule_name=self.name,
            message=message,
        )


@dataclass
class TierReport(RunReport):
    """Outcome of one whole-program tier: per-file findings + context.

    One ``FileReport`` per analyzed module (plus any unparseable file),
    so the lint reporters — and their pinned text/JSON schema — serve
    every tier unchanged.
    """

    context: ProjectContext


def run_tier(rules: Sequence[ProjectRule], context: ProjectContext) -> TierReport:
    """Apply ``rules`` to ``context``.

    Parse failures join the findings; a finding whose line carries a
    matching ``# repro-lint: disable=...`` directive moves to the
    ``suppressed`` ledger.
    """
    project = context.project
    raw: List[Finding] = list(project.parse_failures)
    for rule in rules:
        raw.extend(rule.check(context))
    by_path = {record.info.path: record for record in project.modules.values()}
    files = {
        path: FileReport(path=path, findings=[], suppressed=[]) for path in by_path
    }
    for finding in raw:
        record = by_path.get(finding.path)
        slot = files.setdefault(
            finding.path, FileReport(path=finding.path, findings=[], suppressed=[])
        )
        if record is not None and record.suppressions.covers(finding):
            slot.suppressed.append(finding)
        else:
            slot.findings.append(finding)
    return TierReport(files=[files[path] for path in sorted(files)], context=context)


def short_trace(trace: Sequence[str], limit: int = 4, tail: int = 1) -> str:
    """``a -> b -> ... -> z`` for a call trace longer than ``limit``."""
    chain = tuple(trace)
    if len(chain) > limit:
        chain = chain[:2] + ("...",) + chain[-tail:]
    return " -> ".join(chain)


def sanction_ledger(
    report: TierReport, rule_ids: Collection[str]
) -> List[Dict[str, str]]:
    """Line-free manifest entries for the suppressed ``rule_ids`` findings.

    Keyed by (rule, owning function, message) and sorted, so pure code
    motion does not churn a committed ledger.
    """
    project: Project = report.context.project
    entries = {
        (
            finding.rule_id,
            project.function_at(finding.path, finding.line),
            finding.message,
        )
        for finding in report.suppressed
        if finding.rule_id in rule_ids
    }
    return [
        {"rule": rule, "function": function, "detail": detail}
        for rule, function, detail in sorted(entries)
    ]
