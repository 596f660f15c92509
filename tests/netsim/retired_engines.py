"""Frozen trajectories of the retired vectorized grid engine and scatter kernel.

Two engines used to cross-check the graph engine live:

- the vectorized grid engine, which the grid bridge
  (:meth:`GraphSpec.from_grid` + :func:`graph_config_from_grid`)
  replayed bit for bit over 8 seeds;
- the allocating scatter-max reconcile kernel, which the edge kernel
  matched bit for bit on delayed-edge and partition-mask configs
  across 16 seeds each, a calibrated-delay config and a protocol-2
  config.

Both were removed in favour of the graph engine's single edge kernel.
Before removal their observations on exactly those configs were
captured into ``fixtures/retired_engines.json`` (the grid engine's
nested rows flattened row-major, which is the bridge's node order),
and the cross-check tests now compare the graph engine against that
capture.  The fixture is the retired engines' truth: never regenerate
it from current code.  (The five ``graph_scenarios`` configs need no
entry here — ``golden_graph.json`` already pins them.)
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.netsim.graph import GraphConfig, GraphSpec
from repro.netsim.grid import GridConfig
from repro.netsim.latency import BITCOIN_PROPAGATION_2019

from .graph_scenarios import state_digest

FIXTURE = Path(__file__).parent / "fixtures" / "retired_engines.json"

#: Steps at which the grid-engine runs were observed (chunks 50, 100,
#: 150, 100) and the scatter-kernel runs (chunks of 30).
GRID_CHECKPOINTS: Tuple[int, ...] = (50, 150, 300, 400)
KERNEL_CHECKPOINTS: Tuple[int, ...] = (30, 60, 90, 120)


def grid_config(seed: int, size: int = 15) -> GridConfig:
    return GridConfig(
        size=size,
        seed=seed,
        failure_rate=0.10,
        steps_per_block=20,
        attacker_share=0.30,
        attacker_cell=(7 % size, 7 % size),
        attack_start_step=100,
    )


def delayed_config(seed: int) -> GraphConfig:
    return GraphConfig(
        spec=GraphSpec.synthetic(96, max_delay=3, seed=17),
        seed=seed,
        failure_rate=0.12,
        steps_per_block=10,
        attacker_share=0.35,
        attacker_node=2,
        attack_start_step=40,
        natural_fork_rate=0.15,
    )


def partitioned_config(seed: int) -> GraphConfig:
    spec = GraphSpec.synthetic(96, seed=23)
    mask = np.arange(spec.num_nodes) % 2 == 0
    return GraphConfig(
        spec=spec.partitioned(mask),
        seed=seed,
        failure_rate=0.10,
        steps_per_block=12,
        attacker_share=0.40,
        attacker_node=1,
        attack_start_step=30,
        natural_fork_rate=0.10,
    )


def calibrated_config() -> GraphConfig:
    spec = GraphSpec.power_law(
        128, seed=3, delay_model=BITCOIN_PROPAGATION_2019, tick_seconds=1.0
    )
    return dataclasses.replace(delayed_config(4), spec=spec)


def protocol2_config() -> GraphConfig:
    spec = GraphSpec.power_law(128, max_delay=2, seed=6, rng_protocol=2)
    return dataclasses.replace(delayed_config(8), spec=spec)


def kernel_configs() -> Dict[str, GraphConfig]:
    """Every scatter-kernel config the fixture pins, by fixture key."""
    configs = {}
    for seed in range(16):
        configs[f"delayed_edges[{seed}]"] = delayed_config(seed)
        configs[f"partition_mask[{seed}]"] = partitioned_config(seed)
    configs["calibrated"] = calibrated_config()
    configs["protocol2"] = protocol2_config()
    return configs


def observe(sim) -> Dict:
    """Everything the retired cross-checks compared, JSON-comparable."""
    return {
        "step": sim.step_count,
        "state_sha256": state_digest(sim),
        "fork_fractions": sim.fork_fractions(),
        "fork_births": dict(sim.fork_births),
        "fork_deaths": dict(sim.fork_deaths),
        "fork_lifetimes_blocks": sim.fork_lifetimes_in_blocks(),
        "synced_fraction": sim.synced_fraction(),
        "attacker_fraction": sim.attacker_fraction(),
    }


def trajectory(sim, checkpoints: Tuple[int, ...]) -> List[Dict]:
    """Run ``sim`` through ``checkpoints``, observing at each one."""
    observed = []
    for step in checkpoints:
        sim.run(step - sim.step_count)
        observed.append(observe(sim))
    return observed


def load() -> Dict[str, Dict[str, List[Dict]]]:
    return json.loads(FIXTURE.read_text())
