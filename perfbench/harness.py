"""Measurement plumbing shared by the benchmark workloads.

Everything here observes the program from outside: spans are recorded
around calls into its public functions, the cache probe wraps the
``ResultCache`` handed to ``run_sweep``, and memory and machine facts
come from the operating system.  Nothing here feeds a simulation, so
the clock reads below cannot change any output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(share * len(ordered))))
    return float(ordered[rank - 1])


def sha256_json(value: object) -> str:
    """Digest of ``value``'s canonical JSON form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def timed_passes(
    seconds: float, run_pass: Callable[[int], float], min_passes: int = 2
) -> List[float]:
    """Closed loop: run passes back to back until ``seconds`` elapse.

    ``run_pass(i)`` performs pass ``i`` and returns its own measured
    wall time.  Each pass starts only after the previous one returned,
    and at least ``min_passes`` run, so a pass longer than ``seconds``
    is still reported as a median of two.
    """
    walls: List[float] = []
    start = time.perf_counter()
    while True:
        walls.append(run_pass(len(walls)))
        if len(walls) >= min_passes and time.perf_counter() - start >= seconds:
            return walls


def peak_rss_mb() -> float:
    """Max resident set of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def mem_available_mb() -> Optional[float]:
    """``MemAvailable`` from ``/proc/meminfo`` in MiB (None off Linux)."""
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def usable_cpus() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (checkout has no git metadata)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root),
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git rev-parse failed)"
    return done.stdout.strip()


def environment(root: Path) -> Dict[str, object]:
    """Machine and interpreter facts recorded with every result."""
    import numpy

    available = mem_available_mb()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": usable_cpus(),
        "cpu_model": _cpu_model(),
        "mem_available_mb": round(available, 1) if available else None,
        "git_commit": _git_commit(root),
    }


class Tracer:
    """In-memory span recorder for one traced benchmark run.

    A span is ``{id, name, layer, parent, workload, run, start, end}``
    with times in seconds from the tracer's creation.  Spans nest by
    call order (the benchmark drives every layer from one thread), so
    a span's parent is whichever span was open when it started.
    """

    def __init__(self, workload: str, run_id: str) -> None:
        self.workload = workload
        self.run_id = run_id
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Dict[str, object]]:
        record: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "run": self.run_id,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter() - self._origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        """Durations of every closed span called ``name``."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and "end" in s
        ]

    def self_seconds(self) -> Dict[str, float]:
        """Per layer: span time not covered by the span's children."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        totals: Dict[str, float] = {}
        for s, child_time in zip(self.spans, covered):
            own = (s["end"] - s["start"]) - child_time
            totals[s["layer"]] = totals.get(s["layer"], 0.0) + own
        return totals

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s, sort_keys=True) + "\n")


def span(tracer: Optional["Tracer"], name: str, layer: str):
    """``tracer.span(name, layer)``, or a no-op on untraced runs."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, layer)


class CacheProbe:
    """Timing proxy for the ``ResultCache`` passed as ``run_sweep(cache=...)``.

    Forwards ``get`` and ``put`` (the two calls the sweep driver makes),
    records one ``parallel.cache`` span around each, and keeps their
    durations and the number of hits.
    """

    def __init__(self, cache, tracer: Tracer) -> None:
        self._cache = cache
        self._tracer = tracer
        self.get_s: List[float] = []
        self.put_s: List[float] = []
        self.hits = 0

    def get(self, experiment_id, config, seed):
        with self._tracer.span("ResultCache.get", "parallel.cache") as record:
            value = self._cache.get(experiment_id, config, seed)
        self.get_s.append(record["end"] - record["start"])
        self.hits += value is not None
        return value

    def put(self, experiment_id, config, seed, payload):
        with self._tracer.span("ResultCache.put", "parallel.cache") as record:
            path = self._cache.put(experiment_id, config, seed, payload)
        self.put_s.append(record["end"] - record["start"])
        return path
