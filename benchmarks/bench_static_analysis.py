"""Smoke benchmark: the static-analysis gate stays cheap enough for CI.

``repro-check --check-manifests`` runs on every push; the gate is only
viable while a full analysis of ``src`` finishes well inside
interactive time.  This benchmark times the layers of that analysis
separately, in the order ``repro-check`` runs them:

- ``shared``: the one parse of ``src`` into a project, both call-graph
  flavours, and worker discovery — built once and shared by every
  whole-program tier;
- ``lint``: the per-file rules over ``src`` (reusing the shared parse);
- ``audit``, ``vec``, ``flow``: each tier's own context, rules, and
  manifest derivation plus drift check.

A standalone vec or flow analysis costs ``shared`` plus its own tier,
and each of those two sums must land under a 30 s budget, so a
quadratic blow-up in the call-graph closure, the dtype interpreter, or
the influence fixpoint fails loudly here instead of slowly rotting CI.
The ``env`` block records the machine and interpreter.

Runnable from tier-1 environments without pytest::

    PYTHONPATH=src python benchmarks/bench_static_analysis.py \
        --out BENCH_static_analysis.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List, Optional

from machine import machine_facts
from repro.audit.session import AnalysisSession, run_tier
from repro.check import TIERS
from repro.lint import lint_paths
from repro.lint.manifest import diff_manifest

__all__ = ["main", "time_analyzers"]

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Wall-clock budget for one full vec analysis of ``src`` (shared
#: load and call graphs plus the vec tier).
VEC_BUDGET_SECONDS = 30.0

#: Wall-clock budget for one full flow analysis of ``src``.  Same
#: rationale: the fixpoint is quadratic-ish in call-graph size, so a
#: blow-up must fail here before it rots the CI gate.
FLOW_BUDGET_SECONDS = 30.0


def time_analyzers() -> Dict[str, Dict[str, object]]:
    """One timed pass per layer over ``src``, in ``repro-check`` order."""
    session = AnalysisSession([SRC])
    start = time.perf_counter()
    project = session.project
    session.call_graph()
    session.call_graph(inheritance=True)
    workers = session.workers
    timings: Dict[str, Dict[str, object]] = {
        "shared": {
            "seconds": time.perf_counter() - start,
            "modules": len(project.modules),
            "workers": len(workers),
        }
    }

    parsed = {
        record.info.path: (record.info, record.suppressions)
        for record in project.modules.values()
    }
    start = time.perf_counter()
    lint_report = lint_paths([SRC], parsed=parsed)
    timings["lint"] = {
        "seconds": time.perf_counter() - start,
        "findings": len(lint_report.findings),
    }

    for tier in TIERS:
        if tier.context is None:
            continue
        start = time.perf_counter()
        report = run_tier(tier.rules, tier.context(session))
        drift = diff_manifest(
            tier.build_manifest(report), REPO_ROOT / tier.manifest
        )
        timings[tier.name] = {
            "seconds": time.perf_counter() - start,
            "findings": len(report.findings),
            "sanctioned": len(report.suppressed),
            "manifest_current": drift is None,
        }
    return timings


def _standalone(timings: Dict[str, Dict[str, object]], tier: str) -> float:
    """What one tier costs alone: the shared layer plus its own."""
    return float(timings["shared"]["seconds"]) + float(timings[tier]["seconds"])


def _check_tier(tier: str, budget: float) -> None:
    timings = time_analyzers()
    seconds = _standalone(timings, tier)
    assert seconds < budget, (
        f"the {tier} analysis took {seconds:.1f}s over src; the CI gate "
        f"assumes < {budget:.0f}s"
    )
    # The smoke doubles as a gate sanity check: a clean tree and a
    # current manifest are what CI's exit-0 path depends on.
    assert timings[tier]["findings"] == 0
    assert timings[tier]["manifest_current"]


def test_vec_analysis_fits_the_ci_budget():
    _check_tier("vec", VEC_BUDGET_SECONDS)


def test_flow_analysis_fits_the_ci_budget():
    _check_tier("flow", FLOW_BUDGET_SECONDS)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Runtime smoke benchmark for the static-analysis gate."
    )
    parser.add_argument(
        "--out",
        default="BENCH_static_analysis.json",
        help="output JSON path (pytest-benchmark-compatible shape)",
    )
    args = parser.parse_args(argv)

    timings = time_analyzers()
    vec = _standalone(timings, "vec")
    flow = _standalone(timings, "flow")
    report = {
        "env": machine_facts(),
        "benchmarks": [
            {
                "name": f"{layer}[src]",
                "stats": {
                    "mean": entry["seconds"],
                    "min": entry["seconds"],
                    "max": entry["seconds"],
                    "rounds": 1,
                },
            }
            for layer, entry in sorted(timings.items())
        ],
        "extra_info": {
            "vec_budget_seconds": VEC_BUDGET_SECONDS,
            "flow_budget_seconds": FLOW_BUDGET_SECONDS,
            "vec_standalone_seconds": vec,
            "flow_standalone_seconds": flow,
            "per_layer": timings,
        },
    }
    Path(args.out).write_text(
        json.dumps(report, indent=2, sort_keys=True), encoding="utf-8"
    )
    within = vec < VEC_BUDGET_SECONDS and flow < FLOW_BUDGET_SECONDS
    layers = ", ".join(
        f"{layer} {entry['seconds']:.2f}s" for layer, entry in timings.items()
    )
    print(
        f"{layers}; vec alone {vec:.2f}s (budget {VEC_BUDGET_SECONDS:.0f}s), "
        f"flow alone {flow:.2f}s (budget {FLOW_BUDGET_SECONDS:.0f}s, "
        f"{'within' if within else 'OVER'}) (wrote {args.out})"
    )
    return 0 if within else 1


if __name__ == "__main__":
    raise SystemExit(main())
