"""The benchmark's workloads, driven through the program's public API.

Each workload is a closed loop from this one process: a pass starts
when the previous one returns, and sweeps use at most ``nproc`` trial
workers.  A workload has four steps:

- ``load`` reads its inputs (what ``setup_s`` times in a fresh
  interpreter);
- ``prepare`` does unmeasured reference work that the output checks
  compare against;
- ``one_pass`` runs and times one pass (traced when given a tracer);
- ``layers`` derives the per-layer metrics of a traced run.

See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tarfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec
from repro.parallel import METRICS, FailurePolicy, PhaseTimingCollector, ResultCache
from repro.scenarios import ScenarioSpec
from repro.scenarios.spec import scenario_summary_keys
from repro.sweeps import compute_frontier, load_specfile, run_sweep, sweep_seed

from harness import (
    CacheProbe,
    Tracer,
    mem_available_mb,
    median,
    percentile,
    sha256_file,
    sha256_json,
    span,
)

HERE = Path(__file__).resolve().parent

TINY_PLAN = Path("examples/sweeps/frontier_fast.json")
TINY_GOLDEN = Path("tests/sweeps/fixtures/frontier_fast_golden.json")
HEAVY_PLANS = HERE / "plans" / "heavy"
SNAPSHOT = HERE / "snapshot-97188bb.tar.gz"
EXPECTED = HERE / "expected.json"

#: Root seeds one sweep-tiny run cycles through (derived from --seed).
TINY_ROOTS = 3

#: The 10^6 tier of bench_graph_engine.py: Figure 7 attack, 400 steps,
#: seed 0.  The seed is fixed, not taken from --seed: it decides how
#: many of the 400 steps carry a propagation wavefront, and the step
#: loop's time differs by up to 40% between seeds.
GRAPH_NODES = 1_000_000
GRAPH_STEPS = 400
GRAPH_SEED = 0
#: graph-1m peaks near 280 MB; below this MemAvailable it refuses.
GRAPH_MIN_AVAILABLE_MB = 1024.0

#: Grid edge length from which ``engine="auto"`` asks for the
#: vectorized grid engine (the grid-vec family of the per-layer table).
GRID_VEC_MIN_SIZE = 50

CHECK_TIERS = ("lint", "audit", "vec", "flow")

#: Failed trials are reported (and counted), not raised.
SKIP = FailurePolicy(mode="skip")


class Refusal(Exception):
    """The workload cannot run on this machine; the message says why."""


class Run:
    """One benchmark invocation: paths, seed, trial workers, and its tally."""

    def __init__(self, root: Path, work: Path, seed: int, jobs: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.checks: List[Tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _name, ok, _d in self.checks)


def expected(workload: str) -> Dict[str, object]:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]


def family(spec: ScenarioSpec) -> str:
    """Engine family a spec asks for (by its fields, not by engine class)."""
    if spec.topology == "power_law":
        return "power-law-p2" if spec.rng_protocol == 2 else "power-law-delay"
    if spec.engine == "graph":
        return "graph-bridge"
    if spec.engine == "vec" or (
        spec.engine == "auto" and spec.size >= GRID_VEC_MIN_SIZE
    ):
        return "grid-vec"
    return "grid-scalar"


def _artifact_json(result) -> str:
    return json.dumps(result.to_artifact(), sort_keys=True)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
class _Sweep:
    """Pass plumbing and per-layer bookkeeping shared by the sweeps."""

    specs: Sequence[ScenarioSpec] = ()

    def __init__(self) -> None:
        # Filled by traced passes only.
        self.trials: List[float] = []  # worker seconds per executed trial
        self.workers: List[int] = []  # distinct worker processes per pass
        self.traced_wall = 0.0
        self.traced_passes = 0
        self.trials_failed = 0
        self.cache_bytes: List[int] = []
        self.get_s: List[float] = []
        self.put_s: List[float] = []
        self.hits = 0

    def sweep(self, run: Run, root: int, jobs: int, cache, tracer):
        """One timed ``run_sweep``; returns (wall, result, cache probe)."""
        probe = None
        if tracer is not None and cache is not None:
            probe = CacheProbe(cache, tracer)
        METRICS.reset()
        start = time.perf_counter()
        with span(tracer, "run_sweep", "parallel"):
            result = run_sweep(
                self.specs, root_seed=root, jobs=jobs,
                cache=probe or cache, policy=SKIP,
            )
        wall = time.perf_counter() - start
        run.attempted += len(result.specs)
        run.failed += result.failed
        return wall, result, probe

    def cold_pass(self, run: Run, root: int, cache_dir: Path, tracer):
        """Cold pass at ``jobs=nproc`` filling a fresh ``ResultCache``."""
        wall, result, probe = self.sweep(
            run, root, run.jobs, ResultCache(cache_dir), tracer
        )
        if tracer is not None:
            records = METRICS.records
            self.trials.extend(r.seconds for r in records)
            self.workers.append(len({r.worker for r in records}))
            self.trials_failed += METRICS.failed()
            self.traced_wall += wall
            self.traced_passes += 1
            self.cache_bytes.append(_dir_bytes(cache_dir))
            self.put_s.extend(probe.put_s)
        return wall, result, probe

    def note_gets(self, probe: Optional[CacheProbe]) -> None:
        if probe is not None:
            self.get_s.extend(probe.get_s)
            self.hits += probe.hits

    def parallel_layers(self, run: Run) -> Dict[str, float]:
        passes = self.traced_passes
        worker_s = sum(self.trials)
        capacity = run.jobs * self.traced_wall
        count = len(self.trials)
        gets_us = [s * 1e6 for s in self.get_s]
        return {
            "parallel.trials": count / passes,
            "parallel.trials_failed": self.trials_failed,
            "parallel.worker_s_sum": worker_s / passes,
            "parallel.trial_ms_p50": percentile(self.trials, 0.5) * 1e3,
            "parallel.trial_ms_max": max(self.trials, default=0.0) * 1e3,
            "parallel.workers_used": max(self.workers),
            "parallel.dispatch_overhead_ms": (
                (capacity - worker_s) / count * 1e3 if count else 0.0
            ),
            "parallel.worker_busy_frac": worker_s / capacity,
            "parallel.cache.get_us_p50": percentile(gets_us, 0.5),
            "parallel.cache.get_us_p99": percentile(gets_us, 0.99),
            "parallel.cache.put_us_p50": percentile(self.put_s, 0.5) * 1e6,
            "parallel.cache.hit_rate": self.hits / len(self.get_s),
            "parallel.cache.bytes": median(self.cache_bytes),
        }

    def scenario_layers(self, tracer: Tracer, root: int) -> Dict[str, float]:
        """Digest every spec, then build and run every spec in-process."""
        for spec in self.specs:
            with tracer.span("ScenarioSpec.digest", "scenarios"):
                spec.digest()
        digest_s = sum(tracer.durations("ScenarioSpec.digest"))
        build_s: Dict[str, List[float]] = {}
        run_s: Dict[str, float] = {}
        steps: Dict[str, int] = {}
        for spec in self.specs:
            name = family(spec)
            with tracer.span("ScenarioSpec.build", "scenarios") as built:
                sim = spec.build(sweep_seed(root, spec))
            build_s.setdefault(name, []).append(built["end"] - built["start"])
            with tracer.span("engine.run", "netsim.step") as ran:
                sim.run(spec.steps)
            run_s[name] = run_s.get(name, 0.0) + ran["end"] - ran["start"]
            steps[name] = steps.get(name, 0) + spec.steps
        out = {"scenarios.digest_us": digest_s / len(self.specs) * 1e6}
        for name, builds in build_s.items():
            out[f"scenarios.build_ms.{name}"] = sum(builds) / len(builds) * 1e3
            out[f"scenarios.steps_per_s.{name}"] = steps[name] / run_s[name]
        return out


class SweepTiny(_Sweep):
    """``frontier_fast``: 1024 specs of sub-millisecond trials.

    ``prepare`` runs the cold serial pass (``jobs=1``, no cache — the
    CLI default) once per root seed as the reference.  Each timed pass
    is a cold pass at ``jobs=nproc`` filling a fresh ``ResultCache``;
    a warm pass from that cache follows it, timed on its own.
    """

    def load(self, run: Run) -> None:
        self.plan = load_specfile(run.root / TINY_PLAN)
        self.specs = self.plan.specs
        self.golden = json.loads(
            (run.root / TINY_GOLDEN).read_text(encoding="utf-8")
        )
        self.roots = [run.seed * TINY_ROOTS + k for k in range(TINY_ROOTS)]

    def prepare(self, run: Run) -> None:
        self.reference: Dict[int, str] = {}
        self.serial_walls: List[float] = []
        self.warm_walls: List[float] = []
        for root in sorted(set(self.roots) | {self.plan.seed}):
            wall, result, _probe = self.sweep(run, root, 1, None, None)
            self.serial_walls.append(wall)
            run.check(
                f"serial sweep at root seed {root} has no failed trial",
                result.failed == 0, f"{result.failed} failed",
            )
            self.reference[root] = _artifact_json(result)
            if root == self.plan.seed:
                computed = {
                    "schema": result.to_artifact()["schema"],
                    "name": self.plan.name,
                    "root_seed": root,
                    "num_specs": len(result.specs),
                    "frontier": compute_frontier(
                        result.specs, result.summaries, self.plan.frontier
                    ),
                }
                run.check(
                    "root-seed-0 frontier equals the golden fixture",
                    json.dumps(computed, sort_keys=True)
                    == json.dumps(self.golden, sort_keys=True),
                )
                digest = sha256_json(result.to_artifact())
                run.check(
                    "root-seed-0 artifact matches the recorded digest",
                    digest == expected("sweep-tiny")["artifact_sha256"], digest,
                )

    def one_pass(self, run: Run, index: int, tracer: Optional[Tracer]) -> float:
        root = self.roots[index % len(self.roots)]
        cache_dir = run.work / f"tiny-cache-{index}"
        n = len(self.specs)
        wall, cold, _probe = self.cold_pass(run, root, cache_dir, tracer)
        cold_artifact = _artifact_json(cold)
        run.check(
            f"parallel pass {index} executed every spec",
            cold.executed == n and cold.cached == 0,
            f"executed={cold.executed} cached={cold.cached}",
        )
        run.check(
            f"parallel pass {index} summaries equal the serial ones",
            cold_artifact == self.reference[root],
        )
        warm_wall, warm, probe = self.sweep(
            run, root, run.jobs, ResultCache(cache_dir), tracer
        )
        run.check(
            f"warm pass {index} executed zero trials",
            warm.executed == 0 and warm.cached == n and METRICS.executed() == 0,
            f"executed={warm.executed} cached={warm.cached}",
        )
        run.check(
            f"warm pass {index} artifact is byte-identical to the cold one",
            _artifact_json(warm) == cold_artifact,
        )
        if tracer is None:
            self.warm_walls.append(warm_wall)
        self.note_gets(probe)
        shutil.rmtree(cache_dir, ignore_errors=True)
        return wall

    def figures(self, passes: List[float]) -> Dict[str, Tuple[float, str]]:
        n = len(self.specs)
        return {
            "serial_specs_per_s": (n / median(self.serial_walls), "specs/s"),
            "parallel_specs_per_s": (n / median(passes), "specs/s"),
            "warm_specs_per_s": (n / median(self.warm_walls), "specs/s"),
        }

    def layers(self, run: Run, tracer: Tracer) -> Dict[str, float]:
        with tracer.span("load_specfile", "sweeps"):
            load_specfile(run.root / TINY_PLAN)
        n = len(self.specs)
        out = {
            "sweeps.plan_load_s": tracer.durations("load_specfile")[0],
            "sweeps.serial_specs_per_s": n / median(self.serial_walls),
            "sweeps.warm_specs_per_s": n / median(self.warm_walls),
        }
        out.update(self.parallel_layers(run))
        out["parallel.trial_ms_p99"] = percentile(self.trials, 0.99) * 1e3
        out.update(self.scenario_layers(tracer, self.roots[0]))
        return out


class SweepHeavy(_Sweep):
    """A few dozen long specs (0.1-1.5 s each) at ``jobs=nproc``."""

    def load(self, run: Run) -> None:
        self.paths = sorted(HEAVY_PLANS.glob("*.json"))
        specs: List[ScenarioSpec] = []
        for path in self.paths:
            specs.extend(load_specfile(path).specs)
        self.specs = tuple(specs)
        self.root = run.seed

    def prepare(self, run: Run) -> None:
        """Serial reference summaries for the first spec of each family."""
        self.spot: Dict[int, Dict[str, object]] = {}
        seen = set()
        for position, spec in enumerate(self.specs):
            if family(spec) in seen:
                continue
            seen.add(family(spec))
            result = run_sweep([spec], root_seed=self.root, jobs=1, policy=SKIP)
            self.spot[position] = result.summaries[0]
        self.first: Optional[str] = None

    def one_pass(self, run: Run, index: int, tracer: Optional[Tracer]) -> float:
        cache_dir = run.work / f"heavy-cache-{index}"
        wall, result, probe = self.cold_pass(run, self.root, cache_dir, tracer)
        self.note_gets(probe)
        shutil.rmtree(cache_dir, ignore_errors=True)
        run.check(
            f"heavy pass {index} has no failed trial",
            result.failed == 0, f"{result.failed} failed",
        )
        if result.failed:
            return wall
        keys = set(scenario_summary_keys())
        sound = all(
            set(summary) == keys
            and summary["spec_digest"] == spec.digest()
            and summary["seed"] == sweep_seed(self.root, spec)
            and summary["steps"] == spec.steps
            and 0.0 <= summary["peak_attacker_fraction"] <= 1.0
            and 0.0 <= summary["final_main_fraction"] <= 1.0
            for spec, summary in zip(result.specs, result.summaries)
        )
        run.check(f"heavy pass {index} summaries are well formed", sound)
        run.check(
            f"heavy pass {index} matches serial runs of one spec per family",
            all(result.summaries[i] == s for i, s in self.spot.items()),
        )
        digest = sha256_json(list(result.summaries))
        if self.first is None:
            self.first = digest
        run.check(
            f"heavy pass {index} repeats the run's first pass",
            digest == self.first, digest,
        )
        recorded = expected("sweep-heavy")
        if self.root == recorded["root_seed"]:
            run.check(
                "heavy summaries digest matches the recorded default-seed value",
                digest == recorded["summaries_sha256"], digest,
            )
        return wall

    def figures(self, passes: List[float]) -> Dict[str, Tuple[float, str]]:
        return {
            "parallel_specs_per_s": (len(self.specs) / median(passes), "specs/s")
        }

    def layers(self, run: Run, tracer: Tracer) -> Dict[str, float]:
        with tracer.span("load_specfile", "sweeps"):
            for path in self.paths:
                load_specfile(path)
        out = {"sweeps.plan_load_s": tracer.durations("load_specfile")[0]}
        out.update(self.parallel_layers(run))
        out.update(self.scenario_layers(tracer, self.root))
        return out


# ----------------------------------------------------------------------
# graph-1m
# ----------------------------------------------------------------------
def _graph_config(spec: GraphSpec, seed: int) -> GraphConfig:
    """The Figure 7 attack on a synthetic Bitcoin-like graph."""
    return GraphConfig(
        spec=spec,
        failure_rate=0.10,
        steps_per_block=20,
        attacker_share=0.30,
        attacker_node=7,
        attack_start_step=100,
        seed=seed,
    )


def _graph_digest(sim) -> str:
    heights = np.asarray(sim.heights, dtype=np.int64)
    return sha256_json(
        {
            "fractions": sorted(sim.fork_fractions().items()),
            "heights": sha256_json(heights.tolist()),
        }
    )


class Graph1M:
    """Build a 10^6-node power-law graph, then run 400 attack steps."""

    def load(self, run: Run) -> None:
        available = mem_available_mb()
        if available is not None and available < GRAPH_MIN_AVAILABLE_MB:
            raise Refusal(
                f"graph-1m needs {GRAPH_MIN_AVAILABLE_MB:.0f} MiB of "
                f"MemAvailable and this machine has {available:.0f} MiB"
            )

    def prepare(self, run: Run) -> None:
        self.digest = expected("graph-1m")["sha256"]
        self.layer_values: Dict[str, float] = {}

    def one_pass(self, run: Run, index: int, tracer: Optional[Tracer]) -> float:
        run.attempted += 1
        phases = PhaseTimingCollector() if tracer else None
        start = time.perf_counter()
        with span(tracer, "GraphSpec.power_law", "netsim.build") as build:
            spec = GraphSpec.power_law(GRAPH_NODES, seed=GRAPH_SEED, rng_protocol=2)
        config = _graph_config(spec, GRAPH_SEED)
        with span(tracer, "GraphSimulatorVec", "netsim.build") as engine:
            sim = GraphSimulatorVec(config, phase_metrics=phases)
        with span(tracer, "GraphSimulatorVec.run", "netsim.step") as steps:
            sim.run(GRAPH_STEPS)
        wall = time.perf_counter() - start
        fractions = sim.fork_fractions()
        run.check(
            f"graph pass {index} fork fractions sum to one",
            abs(sum(fractions.values()) - 1.0) < 1e-9, str(fractions),
        )
        run.check(
            f"graph pass {index} ran {GRAPH_STEPS} steps on {GRAPH_NODES} nodes",
            sim.step_count == GRAPH_STEPS and len(sim.heights) == GRAPH_NODES,
        )
        digest = _graph_digest(sim)
        run.check(
            f"graph pass {index} fork fractions and heights match the record",
            digest == self.digest, digest,
        )
        if tracer is not None:
            graph = config.spec
            csr = graph.indptr.nbytes + graph.indices.nbytes
            if graph.edge_delays is not None:
                csr += graph.edge_delays.nbytes
            run_s = steps["end"] - steps["start"]
            values = {
                "netsim.build.power_law_s": build["end"] - build["start"],
                "netsim.build.engine_s": engine["end"] - engine["start"],
                "netsim.steps_per_s": GRAPH_STEPS / run_s,
                "netsim.csr_bytes": csr,
                "netsim.nodes": graph.num_nodes,
                "netsim.edges": graph.num_edges,
            }
            for phase, metric in (
                ("mine", "netsim.step.mine_s"),
                ("communicate.draw", "netsim.step.communicate.draw_s"),
                ("communicate.reconcile", "netsim.step.communicate.reconcile_s"),
                ("communicate.adopt", "netsim.step.communicate.adopt_s"),
                ("communicate.queue", "netsim.step.communicate.queue_s"),
                ("collect", "netsim.step.collect_s"),
            ):
                values[metric] = phases.seconds(phase)
            self.layer_values = values
        del sim
        return wall

    def figures(self, passes: List[float]) -> Dict[str, Tuple[float, str]]:
        return {"graph_run_s": (median(passes), "s")}

    def layers(self, run: Run, tracer: Tracer) -> Dict[str, float]:
        return dict(self.layer_values)


# ----------------------------------------------------------------------
# static-check
# ----------------------------------------------------------------------
class StaticCheck:
    """``repro-check --format json`` over a frozen source snapshot.

    Not listed in ``BENCHMARK.json``: its time follows the host's load
    more than any other workload's (see README.md), so it would gate
    changes on the host rather than on the program.
    """

    def load(self, run: Run) -> None:
        self.snapshot = run.work / "snapshot"

    def prepare(self, run: Run) -> None:
        recorded = expected("static-check")
        digest = sha256_file(SNAPSHOT)
        if digest != recorded["snapshot_sha256"]:
            raise Refusal(f"{SNAPSHOT.name} is not the recorded snapshot")
        self.snapshot.mkdir(parents=True)
        with tarfile.open(SNAPSHOT, "r:gz") as archive:
            archive.extractall(self.snapshot, filter="data")
        self.tier_values: Dict[str, float] = {}

    def _check(self, run: Run, skip: Sequence[str]) -> Tuple[float, int, str]:
        argv = [sys.executable, "-m", "repro.check", "--format", "json"]
        if skip:
            argv += ["--skip", ",".join(skip)]
        # A fixed hash seed keeps set and dict orders, and so the
        # analyzers' work, the same from run to run.
        env = dict(
            os.environ, PYTHONPATH=str(run.root / "src"), PYTHONHASHSEED="0"
        )
        start = time.perf_counter()
        done = subprocess.run(
            argv, cwd=str(self.snapshot), env=env,
            capture_output=True, text=True, timeout=170,
        )
        return time.perf_counter() - start, done.returncode, done.stdout

    def one_pass(self, run: Run, index: int, tracer: Optional[Tracer]) -> float:
        if tracer is None:
            wall, code, stdout = self._check(run, ())
            self._judge(run, index, code, stdout, CHECK_TIERS)
            return wall
        wall = 0.0
        files = findings = 0
        for tier in CHECK_TIERS:
            others = [t for t in CHECK_TIERS if t != tier]
            with tracer.span(f"repro.check.main[{tier}]", "check"):
                seconds, code, stdout = self._check(run, others)
            wall += seconds
            report = self._judge(run, index, code, stdout, (tier,))
            self.tier_values[f"check.{tier}_s"] = seconds
            if report is not None:
                summary = report["tools"][tier]["report"]["summary"]
                files += summary["files"]
                findings += summary["findings"]
        self.tier_values["check.files"] = files
        self.tier_values["check.findings"] = findings
        return wall

    def _judge(self, run, index, code, stdout, tiers) -> Optional[dict]:
        """Count one ``repro-check``; its report when every check holds.

        Exit 2 is a usage error; a crash exits 1 like findings do, but
        leaves no JSON report, so both count as failed operations.
        """
        run.attempted += 1
        report = None
        if code in (0, 1):
            try:
                report = json.loads(stdout)
            except ValueError:
                pass
        tools = report.get("tools", {}) if isinstance(report, dict) else {}
        ok = sorted(tools) == sorted(tiers) and all(
            isinstance(tools[t].get("report"), dict) for t in tiers
        )
        run.failed += report is None
        run.check(
            f"repro-check pass {index} exited {code} with a JSON report "
            f"naming tiers {','.join(tiers)}",
            ok,
        )
        return report if ok else None

    def figures(self, passes: List[float]) -> Dict[str, Tuple[float, str]]:
        return {"check_s": (median(passes), "s")}

    def layers(self, run: Run, tracer: Tracer) -> Dict[str, float]:
        return dict(self.tier_values)


WORKLOADS = {
    "sweep-tiny": SweepTiny,
    "sweep-heavy": SweepHeavy,
    "graph-1m": Graph1M,
    "static-check": StaticCheck,
}
