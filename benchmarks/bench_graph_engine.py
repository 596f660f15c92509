"""Sparse graph engine performance at 10^3-10^6 nodes.

Times :class:`repro.netsim.graph.GraphSimulatorVec` on synthetic
degree-calibrated topologies (Bitcoin's 8 outbound peers plus a Pareto
tail, per the measured degree skew) over a 400-step attack scenario
and writes ``BENCH_graph.json`` — the committed perf record for the
CSR engine.  Each entry records the node count, edge count, RNG
protocol, wall time, steps/sec, the per-phase split (mine /
communicate / collect) and the communicate sub-phases (draw /
reconcile / adopt, plus queue on delayed graphs) from
:class:`repro.parallel.PhaseTimingCollector`; the document's ``env``
block records the machine and interpreter.

Tiers:

- the default sizes (10^3-10^5) run RNG protocol 1;
- the 10^6-node tier runs the production configuration
  (``rng_protocol=2`` — the versioned fast-draw stream) and is
  RAM-guarded: it is skipped, with a note, when ``/proc/meminfo``
  reports less than :data:`HUGE_MIN_AVAILABLE_GB` available.
  ``--no-huge`` skips it unconditionally.

Regression floor: ``--floor-against BENCH_graph.json`` compares each
timed tier's steps/sec against the committed record by benchmark name
and exits 3 when any falls below ``--floor-ratio`` (default 0.5) of
the committed throughput — the CI perf-smoke gate.

Standalone (the committed record uses the defaults)::

    PYTHONPATH=src python benchmarks/bench_graph_engine.py \\
        --out BENCH_graph.json

Or opt-in via pytest: ``pytest -m bench benchmarks/bench_graph_engine.py``.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List, Optional

from machine import machine_facts
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec
from repro.parallel import PhaseTimingCollector

DEFAULT_SIZES = (1_000, 10_000, 100_000)
HUGE_SIZE = 1_000_000
DEFAULT_STEPS = 400

#: The huge tier needs ~2 GB of arrays plus headroom; skip below this.
HUGE_MIN_AVAILABLE_GB = 8.0

#: Exit status of a failed --floor-against regression check.
FLOOR_EXIT = 3


def _scenario(num_nodes: int, seed: int, rng_protocol: int = 1) -> GraphConfig:
    """The Figure 7 attack scenario on a synthetic Bitcoin-like graph."""
    return GraphConfig(
        spec=GraphSpec.power_law(num_nodes, seed=seed, rng_protocol=rng_protocol),
        failure_rate=0.10,
        steps_per_block=20,
        attacker_share=0.30,
        attacker_node=7 % num_nodes,
        attack_start_step=100,
        seed=seed,
    )


def available_ram_gb() -> Optional[float]:
    """MemAvailable from /proc/meminfo in GiB (None off-Linux)."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / (1024.0 * 1024.0)
    except OSError:
        return None
    return None


def time_graph_engine(
    num_nodes: int,
    steps: int,
    seed: int,
    rng_protocol: int = 1,
) -> Dict[str, object]:
    """One timed run; returns the BENCH record for the configuration."""
    build_start = time.perf_counter()
    config = _scenario(num_nodes, seed, rng_protocol=rng_protocol)
    phases = PhaseTimingCollector()
    sim = GraphSimulatorVec(config, phase_metrics=phases)
    build_seconds = time.perf_counter() - build_start
    start = time.perf_counter()
    sim.run(steps)
    seconds = time.perf_counter() - start
    phase_seconds = {
        phase: entry["seconds"] for phase, entry in phases.summary().items()
    }
    communicate = phase_seconds.get("communicate", 0.0)
    total = sum(
        s for phase, s in phase_seconds.items() if "." not in phase
    )
    return {
        "name": f"graph-n{num_nodes}",
        "engine": "graph",
        "rng_protocol": rng_protocol,
        "nodes": num_nodes,
        "edges": config.spec.num_edges,
        "steps": steps,
        "stats": {
            "build_seconds": build_seconds,
            "wall_seconds": seconds,
            "steps_per_second": steps / seconds if seconds else 0.0,
            "communicate_share": communicate / total if total else 0.0,
        },
        "phases": phase_seconds,
        "forks_seen": len(sim.fork_births),
    }


def run_benchmarks(
    sizes: List[int],
    steps: int,
    seed: int = 0,
    huge: bool = True,
) -> Dict[str, object]:
    """Time the graph engine at every size; returns the BENCH document.

    ``huge=True`` appends the RAM-guarded 10^6 tier in its production
    configuration (RNG protocol 2).
    """
    records: List[Dict[str, object]] = []
    skipped: List[str] = []
    for num_nodes in sizes:
        records.append(time_graph_engine(num_nodes, steps, seed))
    if huge:
        ram = available_ram_gb()
        if ram is not None and ram < HUGE_MIN_AVAILABLE_GB:
            skipped.append(
                f"graph-n{HUGE_SIZE}: {ram:.1f} GiB available < "
                f"{HUGE_MIN_AVAILABLE_GB} GiB required"
            )
        else:
            records.append(
                time_graph_engine(HUGE_SIZE, steps, seed, rng_protocol=2)
            )
    document: Dict[str, object] = {
        "suite": "netsim-graph-engine",
        "scenario": "figure7-attack-synthetic",
        "steps": steps,
        "seed": seed,
        "env": machine_facts(),
        "benchmarks": records,
    }
    if skipped:
        document["skipped"] = skipped
    return document


def check_floor(
    document: Dict[str, object],
    committed: Dict[str, object],
    ratio: float,
) -> List[str]:
    """Steps/sec regressions vs. the committed record, by tier name.

    Returns one message per timed tier whose throughput fell below
    ``ratio`` times the committed value; tiers absent from either side
    are ignored (the committed record may include the huge tier that a
    small CI runner skips).
    """
    baseline = {
        record["name"]: record["stats"]["steps_per_second"]
        for record in committed.get("benchmarks", [])
    }
    failures = []
    for record in document["benchmarks"]:
        name = record["name"]
        if name not in baseline:
            continue
        got = record["stats"]["steps_per_second"]
        floor = ratio * baseline[name]
        if got < floor:
            failures.append(
                f"{name}: {got:.0f} steps/s < floor {floor:.0f} "
                f"({ratio:.2f} x committed {baseline[name]:.0f})"
            )
    return failures


def write_bench_json(document: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _render(document: Dict[str, object]) -> str:
    lines = [
        "name                       nodes      edges    wall(s)  steps/s"
        "   comm-share"
    ]
    for record in document["benchmarks"]:
        stats = record["stats"]
        lines.append(
            f"{record['name']:<24} {record['nodes']:>9} {record['edges']:>10} "
            f"{stats['wall_seconds']:>9.3f} {stats['steps_per_second']:>8.0f}   "
            f"{stats['communicate_share']:.0%}"
        )
    for note in document.get("skipped", []):
        lines.append(f"skipped: {note}")
    return "\n".join(lines)


def test_graph_engine_benchmark(benchmark, tmp_path):
    """Pytest entry: the 10^3-node tier (fast enough for -m bench)."""
    document = benchmark.pedantic(
        run_benchmarks,
        args=([1_000], DEFAULT_STEPS),
        kwargs={"huge": False},
        rounds=1,
        iterations=1,
    )
    out = tmp_path / "BENCH_graph.json"
    write_bench_json(document, str(out))
    print()
    print(_render(document))
    (record,) = document["benchmarks"]
    assert record["stats"]["wall_seconds"] > 0
    assert record["forks_seen"] >= 1
    assert {"mine", "communicate", "collect"} <= set(record["phases"])
    assert {
        "communicate.draw",
        "communicate.reconcile",
        "communicate.adopt",
    } <= set(record["phases"])
    assert {"python", "numpy", "nproc", "cpu_model", "platform"} <= set(
        document["env"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="node counts to time (default: 1000 10000 100000)",
    )
    parser.add_argument(
        "--no-huge", action="store_true",
        help=f"skip the {HUGE_SIZE}-node tier (default: run it, RAM-guarded)",
    )
    parser.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_graph.json")
    parser.add_argument(
        "--floor-against", metavar="PATH", default=None,
        help="committed BENCH json to gate steps/sec against (exit 3 on "
        "regression)",
    )
    parser.add_argument(
        "--floor-ratio", type=float, default=0.5,
        help="minimum fraction of the committed steps/sec (default: 0.5)",
    )
    args = parser.parse_args(argv)
    document = run_benchmarks(
        list(args.sizes),
        args.steps,
        args.seed,
        huge=not args.no_huge,
    )
    write_bench_json(document, args.out)
    print(_render(document))
    print(f"wrote {args.out}")
    if args.floor_against is not None:
        with open(args.floor_against, encoding="utf-8") as fh:
            committed = json.load(fh)
        failures = check_floor(document, committed, args.floor_ratio)
        for failure in failures:
            print(f"FLOOR REGRESSION {failure}")
        if failures:
            return FLOOR_EXIT
        print(f"floor check passed (ratio {args.floor_ratio})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
