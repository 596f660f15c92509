"""The repository benchmark: one command for every workload.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-heavy --seed 1 --seconds 15 --trace 0

It builds nothing: the program is imported from ``src/`` of the same
checkout.  Human-readable figures come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer one with
``--trace 1``.  The workloads, metrics and layers are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import (
    Tracer, environment, median, peak_rss_mb, timed_passes, usable_cpus,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Output left behind by runs (results and traces); work dirs inside
#: it are removed when a run ends.
OUT = ROOT / ".perfbench"

#: Fresh interpreters timed per run for ``setup_s`` (the median counts).
SETUP_PROBES = 5


def _import_workloads():
    """Import the benchmark's workloads and, through them, the program."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
        import workloads
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported repro from outside {src}")
    return workloads


def _setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that only load the inputs."""
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--setup-probe",
    ]
    walls = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.Popen(argv, cwd=str(ROOT), stdout=subprocess.DEVNULL)
        # wait() with a timeout polls for the exit at up to 50 ms steps,
        # which rounds each probe up to the next step; without one it
        # returns as the probe exits, and the watchdog bounds the wait.
        watchdog = threading.Timer(60, probe.kill)
        watchdog.start()
        try:
            code = probe.wait()
        finally:
            watchdog.cancel()
        walls.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
    return median(walls)


def _metrics(declared, values):
    """Declared metrics in BENCHMARK.json order; undeclared ones are a bug."""
    names = {m["name"] for m in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        help="a workload of BENCHMARK.json, or static-check (see README.md)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only import the program and load the workload's inputs "
        "(what setup_s times)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    wl = _import_workloads()
    if args.workload not in wl.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"known: {', '.join(wl.WORKLOADS)}"
        )

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = OUT / f"work-{os.getpid()}"
    run = wl.Run(ROOT, work, args.seed, usable_cpus())
    workload = wl.WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.load(run)
        return 0

    env = environment(ROOT)
    print("environment " + json.dumps(env, sort_keys=True))
    tracer = None
    try:
        workload.load(run)
        setup = None if args.trace else _setup_seconds(args.workload, args.seed)
        work.mkdir(parents=True)
        workload.prepare(run)
        passes = timed_passes(
            args.seconds, lambda i: workload.one_pass(run, i, None)
        )
        if args.trace:
            tracer = Tracer(args.workload, run_id)
            traced = timed_passes(
                args.seconds,
                lambda i: workload.one_pass(run, len(passes) + i, tracer),
            )
            layers = workload.layers(run, tracer)
            layers["trace.overhead_frac"] = median(traced) / median(passes) - 1.0
            layers["trace.spans"] = len(tracer.spans)
            for layer, seconds in tracer.self_seconds().items():
                layers[f"trace.self_s.{layer}"] = seconds
    except wl.Refusal as exc:
        print(f"perfbench: {args.workload} refused: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    figures = workload.figures(passes)
    values = {"pass_s": median(passes), "peak_rss_mb": peak_rss_mb()}
    if setup is not None:
        values["setup_s"] = setup
        figures["setup_s"] = (setup, "s")
    figures["peak_rss_mb"] = (values["peak_rss_mb"], "MB")
    figures["error_rate"] = (run.failed / run.attempted, "fraction")
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes, "
        f"pass_s median {median(passes):.4f} s "
        f"(min {min(passes):.4f}, max {max(passes):.4f})"
    )
    for name, (value, unit) in figures.items():
        print(f"  {name} = {value:.6g} {unit}")
    failed_checks = [c for c in run.checks if not c[1]]
    print(f"  checks: {len(run.checks) - len(failed_checks)} passed, "
          f"{len(failed_checks)} failed")
    for name, _ok, detail in failed_checks:
        print(f"  FAILED CHECK {name} {detail}".rstrip())

    if args.trace:
        metrics = _metrics(bench["per_layer"], layers)
        tracer.write_jsonl(OUT / "traces" / f"{run_id}.jsonl")
        for name, entry in metrics.items():
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = _metrics(bench["end_to_end"], values)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = dict(
        result, workload=args.workload, seed=args.seed, trace=args.trace,
        environment=env, passes=passes,
        figures={k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        checks=[{"name": n, "ok": ok, "detail": d} for n, ok, d in run.checks],
    )
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{run_id}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
