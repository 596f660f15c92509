"""Sparse graph engine: grid-bridge bit-identity, determinism, engine
selection, and statistical equivalence with the scalar reference.

The contract has two tiers:

- **Exact**: a grid bridged through :meth:`GraphSpec.from_grid` pins
  ``rng_stream="grid.vec"`` and replays the draw sequence of the
  retired vectorized grid engine bit-for-bit — every observation
  matches that engine's frozen trajectories
  (``fixtures/retired_engines.json``, see ``retired_engines.py``),
  per seed.
- **Statistical**: on its native ``"graph.vec"`` stream the engine is
  *not* draw-compatible with the bridge, but it simulates the same
  physics — fork-B peak capture, final chain-A recovery, and
  natural-fork lifetimes agree in distribution over 48 seeds with the
  bridged grid.
"""

from __future__ import annotations

import dataclasses
import random
import statistics

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.netsim.graph import (
    GraphConfig,
    GraphSimulatorVec,
    GraphSpec,
    graph_config_from_grid,
)
from repro.netsim.grid import ENGINES, GridConfig, GridSimulator, make_simulator
from repro.parallel import Trial, TrialEngine
from repro.parallel.metrics import PhaseTimingCollector
from repro.topology.topology import Topology

from . import retired_engines


def _grid_config(seed: int, size: int = 15) -> GridConfig:
    return retired_engines.grid_config(seed, size)


def _native_config(seed: int, size: int = 15) -> GraphConfig:
    """Grid topology on the engine's native ``graph.vec`` stream."""
    spec = dataclasses.replace(
        GraphSpec.from_grid(size), rng_stream="graph.vec", grid_size=None
    )
    bridged = graph_config_from_grid(_grid_config(seed, size))
    return dataclasses.replace(bridged, spec=spec)


def _graph_trial(trial: Trial):
    """Module-level (hence picklable) trial: one sparse-engine run."""
    sim = GraphSimulatorVec(
        graph_config_from_grid(_grid_config(trial.seed, trial.param("size")))
    )
    sim.run(300)
    snap = sim.snapshot()
    return {
        "labels": snap.labels,
        "heights": snap.heights,
        "fractions": sorted(sim.fork_fractions().items()),
        "births": sorted(sim.fork_births.items()),
    }


def _shuffled_topology(order_seed: int) -> Topology:
    """The same 12-AS topology, registered in a shuffled order."""
    entries = [(65000 + i, 10 + 3 * i) for i in range(12)]
    random.Random(order_seed).shuffle(entries)
    topology = Topology()
    node_id = 0
    for asn, hosted in entries:
        topology.add_organization(f"org{asn}", f"Org {asn}", "US")
        topology.add_as(asn, f"AS{asn}", f"org{asn}", "US", num_prefixes=2)
        for _ in range(hosted):
            topology.host_node(node_id, asn)
            node_id += 1
    return topology


class TestGridBridgeBitIdentity:
    """`from_grid` + `graph_config_from_grid` replay the retired vec engine."""

    FROZEN = retired_engines.load()["grid_vec"]

    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_trajectory(self, seed):
        graph = GraphSimulatorVec(graph_config_from_grid(_grid_config(seed)))
        observed = retired_engines.trajectory(
            graph, retired_engines.GRID_CHECKPOINTS
        )
        assert observed == self.FROZEN[str(seed)]

    def test_bridge_spec_matches_neighbor_matrix(self):
        """Bridge rows list the scalar engine's Moore neighbours in order."""
        spec = GraphSpec.from_grid(9)
        moore = np.array(GridSimulator._build_neighbors(9))
        assert spec.regular_degree == 8
        assert spec.rng_stream == "grid.vec"
        assert spec.grid_size == 9
        assert np.array_equal(spec.indices, moore.reshape(-1))
        assert np.array_equal(np.diff(spec.indptr), np.full(81, 8))


class TestGraphDeterminism:
    def test_same_seed_same_trajectory(self):
        runs = []
        for _ in range(2):
            sim = GraphSimulatorVec(_native_config(seed=5))
            states = []
            for _ in range(8):
                sim.run(50)
                states.append((sim.snapshot(), sorted(sim.fork_fractions().items())))
            runs.append(states)
        assert runs[0] == runs[1]

    def test_different_seeds_diverge(self):
        a = GraphSimulatorVec(_native_config(seed=1))
        b = GraphSimulatorVec(_native_config(seed=2))
        a.run(300)
        b.run(300)
        assert a.snapshot() != b.snapshot()

    def test_jobs4_equals_serial(self):
        """Seed-equivalence: worker fan-out never perturbs graph results."""
        trials = [
            Trial("graph-vec", index, 100 + index, (("size", 12),))
            for index in range(6)
        ]
        serial = TrialEngine(jobs=1).map(_graph_trial, trials)
        parallel = TrialEngine(jobs=4).map(_graph_trial, trials)
        assert serial == parallel

    def test_shuffled_registry_yields_identical_csr(self):
        """AS-graph construction is ordering-stable (sorted node ids).

        Registries are dict-backed, so insertion order varies with the
        call site; the CSR arrays must not (the RPL104 rule for
        iteration order, applied to topology adapters).
        """
        baseline = GraphSpec.from_topology(
            _shuffled_topology(0), peers_per_node=3, seed=2
        )
        for order_seed in (1, 17, 99):
            shuffled = GraphSpec.from_topology(
                _shuffled_topology(order_seed), peers_per_node=3, seed=2
            )
            assert np.array_equal(shuffled.indptr, baseline.indptr)
            assert np.array_equal(shuffled.indices, baseline.indices)
            assert shuffled.node_ids == baseline.node_ids

    def test_phase_metrics_attribute_all_three_phases(self):
        collector = PhaseTimingCollector()
        sim = GraphSimulatorVec(_native_config(seed=3), phase_metrics=collector)
        sim.run(40)
        # Communicate sub-phases are recorded as the kernel runs (so
        # they appear first), then the step-level phases.
        assert collector.phases == (
            "communicate.draw",
            "communicate.reconcile",
            "communicate.adopt",
            "mine",
            "communicate",
            "collect",
        )
        for phase in collector.phases:
            assert collector.calls(phase) == 40
        # The sub-phases partition the communicate phase's wall time.
        sub_total = sum(
            collector.seconds(p)
            for p in collector.phases
            if p.startswith("communicate.")
        )
        assert sub_total <= collector.seconds("communicate")


class TestEngineSelection:
    def test_grid_config_with_graph_engine_bridges(self):
        sim = make_simulator(_grid_config(seed=0), engine="graph")
        assert isinstance(sim, GraphSimulatorVec)
        assert sim.spec.rng_stream == "grid.vec"

    @pytest.mark.parametrize("engine", ["auto", "scalar", "vec"])
    def test_grid_delay_model_needs_graph_engine(self, engine):
        """Only ``engine="graph"`` carries delays, even though ``vec``
        (and ``auto`` at this size) now run the same engine class."""
        with pytest.raises(ConfigurationError):
            make_simulator(
                GridConfig(size=60), engine=engine, delay_model="calibrated"
            )

    def test_grid_delay_model_on_graph_engine(self):
        sim = make_simulator(
            GridConfig(size=8), engine="graph", delay_model="calibrated"
        )
        assert sim.spec.edge_delays is not None

    def test_graph_config_auto_selects_graph_engine(self):
        """A graph input can never silently fall back to a grid engine."""
        sim = make_simulator(_native_config(seed=0))
        assert isinstance(sim, GraphSimulatorVec)

    @pytest.mark.parametrize("engine", ["scalar", "vec"])
    def test_graph_config_rejects_grid_engines(self, engine):
        with pytest.raises(ConfigurationError):
            make_simulator(_native_config(seed=0), engine=engine)

    @pytest.mark.parametrize("engine", ["cuda", "warp", ""])
    def test_unknown_engines_raise_for_both_config_kinds(self, engine):
        with pytest.raises(ConfigurationError):
            make_simulator(_grid_config(seed=0), engine=engine)
        with pytest.raises(ConfigurationError):
            make_simulator(_native_config(seed=0), engine=engine)

    def test_engine_catalogue_includes_graph(self):
        assert "graph" in ENGINES


class TestCrossEngineStatisticalEquivalence:
    """Native-stream graph runs match the bridged grid's physics.

    The native ``"graph.vec"`` stream draws a different sequence than
    the bridge's ``"grid.vec"``, so individual runs differ — but over
    48 seeds the fork-B peak capture, final chain-A recovery, and
    natural-fork lifetimes must agree in distribution (the bridge's own
    equivalence with the scalar reference is pinned by
    ``test_grid_vec.py``, closing the scalar ≈ vec ≈ graph chain).
    """

    SEEDS = range(48)

    @classmethod
    def _ensemble(cls, build):
        peaks, finals, lifetimes = [], [], []
        for seed in cls.SEEDS:
            sim = build(seed)
            peak = 0.0
            for _ in range(40):
                sim.run(10)
                peak = max(peak, sim.attacker_fraction())
            peaks.append(peak)
            finals.append(sim.fork_fractions().get("A", 0.0))
            lifetimes.extend(sim.fork_lifetimes_in_blocks().values())
        return peaks, finals, lifetimes

    def test_distributions_agree(self):
        s_peaks, s_finals, s_lifetimes = self._ensemble(
            lambda seed: make_simulator(_grid_config(seed), engine="vec")
        )
        g_peaks, g_finals, g_lifetimes = self._ensemble(
            lambda seed: GraphSimulatorVec(_native_config(seed))
        )

        # Fork-B peak capture: a 30% attacker seizes most of a small,
        # under-synchronized network in both engines, to similar extents.
        assert abs(statistics.mean(s_peaks) - statistics.mean(g_peaks)) < 0.15
        assert statistics.mean(s_peaks) > 0.3
        assert statistics.mean(g_peaks) > 0.3

        # Final chain-A recovery: the honest majority wins back most of
        # the network by the horizon in both engines.
        assert abs(statistics.mean(s_finals) - statistics.mean(g_finals)) < 0.15
        assert statistics.mean(s_finals) > 0.5
        assert statistics.mean(g_finals) > 0.5

        # Natural-fork lifetimes: short-lived in both engines — the
        # paper's "within two or three block intervals" (§IV-B).
        for lifetimes in (s_lifetimes, g_lifetimes):
            if lifetimes:
                assert statistics.mean(lifetimes) <= 4.0
