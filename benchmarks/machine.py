"""Machine and interpreter facts recorded in every engine BENCH record.

A throughput number is only comparable with one measured on the same
hardware and interpreter, so the engine benchmarks write these facts
into the ``env`` block of the JSON they produce.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> Dict[str, object]:
    """Python, NumPy, usable CPUs (what ``nproc`` prints), CPU model, platform."""
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }
