"""Shared manifest drift-gate machinery for every analyzer tier.

Each whole-program tier (audit, vec, flow) commits a deterministic JSON
ledger of its account of the source — sanctioned effects, hot paths,
key-material exceptions — and ``repro-check`` gates CI on it:
``--check-manifests`` re-derives each payload from source and fails
with a unified diff when a committed copy has drifted.  Rendering,
diffing, and writing are identical across tiers, so they live here
once; each tier keeps only its own ``build_manifest`` (what goes *in*
the ledger is tier-specific).
"""

from __future__ import annotations

import difflib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Union

__all__ = ["diff_manifest", "render_manifest", "sync_manifest"]


def render_manifest(manifest: Dict[str, Any]) -> str:
    """Byte-stable serialization (what gets committed)."""
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def diff_manifest(
    manifest: Dict[str, Any], path: Union[str, Path]
) -> Optional[str]:
    """Unified diff committed-vs-derived, or None when they match.

    A missing committed manifest diffs against the empty file, so the
    first ``--check-manifests`` run tells the operator exactly what to
    commit rather than crashing.
    """
    manifest_path = Path(path)
    expected = render_manifest(manifest)
    actual = (
        manifest_path.read_text(encoding="utf-8")
        if manifest_path.exists()
        else ""
    )
    if actual == expected:
        return None
    return "".join(
        difflib.unified_diff(
            actual.splitlines(keepends=True),
            expected.splitlines(keepends=True),
            fromfile=f"{manifest_path} (committed)",
            tofile=f"{manifest_path} (derived from source)",
        )
    )


def sync_manifest(
    manifest: Dict[str, Any], path: Union[str, Path], write: bool
) -> int:
    """Write ``manifest`` to ``path``, or check it there; the gate status.

    Status lines and any drift diff go to stderr, so a JSON report on
    stdout stays one parseable document.  Returns 1 on drift, else 0.
    """
    if write:
        Path(path).write_text(render_manifest(manifest), encoding="utf-8")
        print(f"repro-check: wrote {path}", file=sys.stderr)
        return 0
    drift = diff_manifest(manifest, path)
    if drift is None:
        print(f"repro-check: manifest {path} is current", file=sys.stderr)
        return 0
    print(
        f"repro-check: manifest drift — {path} no longer matches the "
        "analyzed source; regenerate with --write-manifests and commit "
        "the result",
        file=sys.stderr,
    )
    sys.stderr.write(drift)
    return 1
