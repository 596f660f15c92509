"""``repro-check``: the one static-analysis CLI, four tiers as rule packs.

The tiers share the RPL namespace and run in order:

- **lint** (RPL1xx): per-file determinism rules over
  ``src benchmarks tests examples``;
- **audit** (RPL2xx): whole-program purity of every trial/entry worker;
- **vec** (RPL3xx): numeric dtype flow and hot-loop debt in the engines;
- **flow** (RPL4xx): cache-key soundness.

The three whole-program tiers analyze ``src`` through one
:class:`~repro.audit.session.AnalysisSession`: the tree is parsed once,
each call-graph flavour is built once, and the lint tier checks the
``src`` modules from those same parsed trees.  The run exits with the
*worst* tier status (0 clean, 1 findings or manifest drift, 2 usage
error), so one CI job gates the whole RPL namespace.

Usage::

    repro-check                      # all four tiers, text reports
    repro-check --check-manifests    # CI gate incl. manifest drift
    repro-check --write-manifests    # regenerate the three ledgers
    repro-check --format json        # one merged JSON report
    repro-check --skip lint,vec      # run a subset of the tiers
    repro-check --select RPL401 DIR  # one rule, over DIR instead of the defaults
    repro-check --list-rules         # the rule catalogue with rationale
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .audit import manifest as audit_manifest
from .audit.rules import AUDIT_RULES, build_context
from .audit.session import AnalysisSession, run_tier
from .flow import manifest as flow_manifest
from .flow.rules import FLOW_RULES, build_flow_context
from .lint.core import PARSE_ERROR_ID, RunReport, lint_paths
from .lint.manifest import sync_manifest
from .lint.reporters import render_text, report_dict
from .lint.rules import RULES, family_of, rule_by_identifier
from .vec import manifest as vec_manifest
from .vec.rules import VEC_RULES, build_vec_context

__all__ = ["TIERS", "Tier", "main", "plan_tiers", "run_tiers"]

#: Default roots of the per-file lint tier.
LINT_ROOTS = ("src", "benchmarks", "tests", "examples")

#: Default roots of the whole-program tiers (importable source only).
PROGRAM_ROOTS = ("src",)


@dataclass(frozen=True)
class Tier:
    """One rule pack: its catalogue, context builder, and ledger."""

    name: str
    rules: Sequence[Any]
    #: Builds the tier's context from the shared session; ``None`` for
    #: the per-file lint tier.
    context: Optional[Callable[[AnalysisSession], Any]] = None
    #: Committed ledger file name, relative to the working directory.
    manifest: Optional[str] = None
    build_manifest: Optional[Callable[[Any], Dict[str, Any]]] = None
    #: Last line of the tier's ``--list-rules`` section.
    note: str = ""


TIERS: Tuple[Tier, ...] = (
    Tier(
        "lint",
        RULES,
        note=(
            "skip a fixture file with a leading `# repro-lint: "
            "disable-file <reason>` comment"
        ),
    ),
    Tier(
        "audit",
        AUDIT_RULES,
        build_context,
        audit_manifest.DEFAULT_MANIFEST,
        lambda report: audit_manifest.build_manifest(report.context),
        note=(
            "sanction a deliberate effect with `disable=<rule-or-effect-"
            "kind> <reason>`; sanctioned effects raise no findings but "
            f"stay in the audit manifest ({audit_manifest.DEFAULT_MANIFEST})"
        ),
    ),
    Tier(
        "vec",
        VEC_RULES,
        build_vec_context,
        vec_manifest.DEFAULT_MANIFEST,
        vec_manifest.build_manifest,
        note=(
            "sanctioned scalar loops raise no findings but stay in "
            f"{vec_manifest.DEFAULT_MANIFEST}"
        ),
    ),
    Tier(
        "flow",
        FLOW_RULES,
        build_flow_context,
        flow_manifest.DEFAULT_MANIFEST,
        flow_manifest.build_manifest,
        note=(
            "sanctioned exceptions raise no findings but stay in "
            f"{flow_manifest.DEFAULT_MANIFEST}"
        ),
    ),
)

_ALL_RULES = [rule for tier in TIERS for rule in tier.rules]


class UsageError(Exception):
    """A bad command line (exit 2)."""


def _split(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    names = [part.strip() for chunk in values for part in chunk.split(",")]
    return [name for name in names if name]


def plan_tiers(
    skip: Optional[Sequence[str]] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Tuple[Tier, List[Any]]]:
    """The tiers to run, in order, each with its chosen rules.

    ``select``/``ignore`` take rule IDs or names from any tier.  Under
    ``select`` a tier none of whose rules is selected does not run.
    Raises :class:`UsageError` for an unknown tier or rule, or when
    nothing is left to run.
    """
    known = [tier.name for tier in TIERS]
    unknown = [name for name in skip or () if name not in known]
    if unknown:
        raise UsageError(
            f"unknown tier(s): {', '.join(unknown)}; "
            f"known tiers: {', '.join(known)}"
        )
    try:
        selected = (
            None
            if select is None
            else [rule_by_identifier(name, _ALL_RULES) for name in select]
        )
        ignored = [rule_by_identifier(name, _ALL_RULES) for name in ignore or ()]
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    plan = []
    for tier in TIERS:
        if tier.name in (skip or ()):
            continue
        rules = [
            rule
            for rule in tier.rules
            if (selected is None or rule in selected) and rule not in ignored
        ]
        if selected is not None and not rules:
            continue
        plan.append((tier, rules))
    if not plan:
        raise UsageError("every tier skipped")
    return plan


def run_tiers(
    plan: Sequence[Tuple[Tier, List[Any]]],
    paths: Optional[Sequence[Union[str, Path]]] = None,
) -> List[Tuple[Tier, RunReport]]:
    """Run a :func:`plan_tiers` plan; ``paths`` replace every tier's roots.

    Returns each tier with its report: a ``RunReport`` for lint, a
    :class:`~repro.audit.session.TierReport` (a ``RunReport`` carrying
    the tier's context) for the others.  Without ``paths`` each tier
    analyzes its default roots.  The whole-program tiers share one
    session; the lint tier reuses that session's parsed modules when one
    of them runs.
    """
    lint_roots = list(paths or LINT_ROOTS)
    session = AnalysisSession(list(paths or PROGRAM_ROOTS))
    parsed = {}
    if any(tier.context is not None for tier, _rules in plan):
        parsed = {
            record.info.path: (record.info, record.suppressions)
            for record in session.project.modules.values()
        }
    results = []
    for tier, rules in plan:
        if tier.context is None:
            report = lint_paths(
                lint_roots, select=[rule.rule_id for rule in rules], parsed=parsed
            )
        else:
            report = run_tier(rules, tier.context(session))
        results.append((tier, report))
    return results


#: RPL900 has no rule class; the catalogue lists it like one.
_PARSE_ERROR_RULE = SimpleNamespace(
    rule_id=PARSE_ERROR_ID,
    name="parse-error",
    summary="file does not parse (pseudo-rule)",
    rationale=(
        "Reported whenever a file fails to parse as Python: a file the AST "
        "rejects can never be certified clean, so the run fails. Not "
        "selectable via --select/--ignore and not suppressible — fix the "
        "syntax error."
    ),
)


def render_catalogue(tiers: Sequence[Tier]) -> str:
    """``--list-rules``: each tier's rules with rationale, then RPL900."""
    width = max(len(rule.name) for rule in _ALL_RULES) + 2
    lines = ["repro-check rules:"]
    sections = [(tier.rules, tier.note) for tier in tiers]
    for rules, note in sections + [([_PARSE_ERROR_RULE], "")]:
        lines.append(f"{family_of(rules[0].rule_id)}:")
        for rule in rules:
            lines.append(f"  {rule.rule_id}  {rule.name:<{width}}{rule.summary}")
            lines.append(f"          {rule.rationale}")
        if note:
            lines.append(f"  {note}")
    lines.append(
        "suppress a finding on its line with `# repro-lint: "
        "disable=<ID-or-name> <reason>`"
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description=(
            "Run the static-analysis tiers (lint RPL1xx, audit RPL2xx, "
            "vec RPL3xx, flow RPL4xx) and exit with the worst tier status "
            "(see the README section 'Static analysis')."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to analyze instead of every tier's "
            f"defaults (lint: {' '.join(LINT_ROOTS)}; audit, vec, flow: "
            f"{' '.join(PROGRAM_ROOTS)})"
        ),
    )
    parser.add_argument(
        "--format",
        "-f",
        choices=("text", "json"),
        default="text",
        help="per-tier text reports, or one merged JSON report",
    )
    for flag, metavar, text in (
        ("--skip", "TIERS", "comma-separated tiers to skip (lint, audit, vec, flow)"),
        (
            "--select",
            "RULES",
            "comma-separated rule IDs/names, from any tier, to run "
            "exclusively; tiers with no selected rule do not run",
        ),
        ("--ignore", "RULES", "comma-separated rule IDs/names, from any tier, to skip"),
    ):
        parser.add_argument(flag, action="append", metavar=metavar, help=text)
    manifests = parser.add_mutually_exclusive_group()
    manifests.add_argument(
        "--check-manifests",
        action="store_true",
        help=(
            "also fail (exit 1) when a committed ledger "
            "(AUDIT_MANIFEST.json, VEC_MANIFEST.json, FLOW_MANIFEST.json) "
            "has drifted from the source"
        ),
    )
    manifests.add_argument(
        "--write-manifests",
        action="store_true",
        help="regenerate the ledgers of the tiers that run",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue of the tiers not skipped and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        skip = _split(args.skip) or []
        if args.list_rules:
            tiers = [tier for tier, _rules in plan_tiers(skip)]
            print(render_catalogue(tiers))
            return 0
        plan = plan_tiers(skip, _split(args.select), _split(args.ignore))
        missing = [path for path in args.paths if not Path(path).exists()]
        if missing:
            raise UsageError(f"no such path(s): {', '.join(missing)}")
    except UsageError as exc:
        print(f"repro-check: error: {exc}", file=sys.stderr)
        return 2

    gate = args.check_manifests or args.write_manifests
    status = 0
    tools: Dict[str, Dict[str, Any]] = {}
    for tier, report in run_tiers(plan, args.paths):
        exit_code = 0 if report.ok else 1
        if args.format == "text":
            print(f"== {tier.name} ==")
            print(render_text(report, prog=tier.name))
        if gate and tier.build_manifest is not None:
            exit_code = max(
                exit_code,
                sync_manifest(
                    tier.build_manifest(report),
                    tier.manifest,
                    write=args.write_manifests,
                ),
            )
        tools[tier.name] = {"exit": exit_code, "report": report_dict(report)}
        status = max(status, exit_code)

    if args.format == "json":
        envelope = {
            "version": 1,
            "status": status,
            "manifests_checked": bool(args.check_manifests),
            "tools": tools,
        }
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        summary = " ".join(f"{name}={tool['exit']}" for name, tool in tools.items())
        print(f"repro-check: {summary} -> exit {status}")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via the script
    sys.exit(main())
