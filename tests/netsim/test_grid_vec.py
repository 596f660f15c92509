"""Vectorized grid runs: determinism, engine selection, and statistical
equivalence with the scalar reference engine.

``engine="vec"`` runs a grid on the graph engine through the grid
bridge, which follows its own documented RNG protocol (the
``"grid.vec"`` NumPy stream), so it is *not* draw-compatible with
``GridSimulator`` — the contract is instead:

- deterministic per seed: identical snapshots for identical configs,
  regardless of worker count (seed-equivalence);
- the same observation invariants as the scalar engine, in flat node
  order;
- the same physics: fork-B peak capture, final chain-A recovery, and
  natural-fork lifetimes agree in distribution over many seeds.
"""

from __future__ import annotations

import statistics

import pytest

from repro.errors import ConfigurationError
from repro.netsim.graph import GraphSimulatorVec
from repro.netsim.grid import (
    ENGINES,
    GridConfig,
    GridSimulator,
    VEC_SIZE_THRESHOLD,
    make_simulator,
)
from repro.parallel import Trial, TrialEngine


def _attack_config(seed: int, size: int = 15) -> GridConfig:
    return GridConfig(
        size=size,
        seed=seed,
        failure_rate=0.10,
        steps_per_block=20,
        attacker_share=0.30,
        attacker_cell=(7 % size, 7 % size),
        attack_start_step=100,
    )


def _vec(config: GridConfig):
    return make_simulator(config, engine="vec")


def _vec_trial(trial: Trial):
    """Module-level (hence picklable) trial: one vectorized run."""
    sim = _vec(_attack_config(trial.seed, trial.param("size")))
    sim.run(300)
    snap = sim.snapshot()
    return {
        "labels": snap.labels,
        "heights": snap.heights,
        "fractions": sorted(sim.fork_fractions().items()),
        "births": sorted(sim.fork_births.items()),
    }


class TestVecDeterminism:
    def test_same_seed_same_trajectory(self):
        runs = []
        for _ in range(2):
            sim = _vec(_attack_config(seed=5))
            states = []
            for _ in range(8):
                sim.run(50)
                states.append((sim.snapshot(), sorted(sim.fork_fractions().items())))
            runs.append(states)
        assert runs[0] == runs[1]

    def test_different_seeds_diverge(self):
        a = _vec(_attack_config(seed=1))
        b = _vec(_attack_config(seed=2))
        a.run(300)
        b.run(300)
        assert a.snapshot() != b.snapshot()

    def test_jobs4_equals_serial(self):
        """Seed-equivalence: worker fan-out never perturbs vec results."""
        trials = [
            Trial("grid-vec", index, 100 + index, (("size", 12),))
            for index in range(6)
        ]
        serial = TrialEngine(jobs=1).map(_vec_trial, trials)
        parallel = TrialEngine(jobs=4).map(_vec_trial, trials)
        assert serial == parallel


class TestVecApiParity:
    def test_observation_api_matches_scalar(self):
        config = _attack_config(seed=3)
        for engine in ("scalar", "vec"):
            sim = make_simulator(config, engine=engine)
            sim.run(250)
            assert sim.step_count == 250
            fractions = sim.fork_fractions()
            assert sum(fractions.values()) == pytest.approx(1.0)
            assert 0.0 < sim.synced_fraction() <= 1.0
            assert 0.0 <= sim.attacker_fraction() <= 1.0
            assert sim.snapshot().fork_fractions() == fractions

    def test_attacker_cell_stays_pinned(self):
        config = _attack_config(seed=7, size=10)
        sim = _vec(config)
        sim.run(600)
        assert sim.attacker_fork is not None
        row, col = config.attacker_cell
        assert sim.labels[row * config.size + col] == sim.attacker_fork.label

    def test_no_attack_stays_honest(self):
        sim = _vec(GridConfig(size=10, seed=1, attacker_share=0.0, steps_per_block=20))
        sim.run(400)
        assert sim.attacker_fork is None
        assert sim.attacker_fraction() == 0.0
        assert sim.fork_fractions().get("A", 0.0) >= 0.9


class TestEngineSelection:
    def test_auto_uses_scalar_below_threshold(self):
        sim = make_simulator(GridConfig(size=VEC_SIZE_THRESHOLD - 1))
        assert isinstance(sim, GridSimulator)

    def test_auto_uses_vec_at_threshold(self):
        sim = make_simulator(GridConfig(size=VEC_SIZE_THRESHOLD))
        assert isinstance(sim, GraphSimulatorVec)
        assert sim.spec.grid_size == VEC_SIZE_THRESHOLD

    def test_explicit_engines(self):
        config = GridConfig(size=60)
        assert isinstance(make_simulator(config, engine="scalar"), GridSimulator)
        sim = make_simulator(GridConfig(size=8), engine="vec")
        assert isinstance(sim, GraphSimulatorVec)
        assert sim.spec.grid_size == 8

    def test_unknown_engine_raises(self):
        with pytest.raises(ConfigurationError):
            make_simulator(GridConfig(size=10), engine="cuda")

    def test_engine_catalogue(self):
        assert ENGINES == ("auto", "scalar", "vec", "graph")


class TestCrossEngineStatisticalEquivalence:
    """The scalar and vectorized engines simulate the same physics.

    Their streams differ (documented protocols), and the scalar engine
    reconciles sequentially within a step while the vectorized engine
    reconciles synchronously, so individual runs differ — but fork-B
    peak capture, final chain-A recovery, and natural-fork lifetimes
    must agree in distribution over many seeds.
    """

    SEEDS = range(32)

    @staticmethod
    def _ensemble(engine):
        peaks, finals, lifetimes = [], [], []
        for seed in TestCrossEngineStatisticalEquivalence.SEEDS:
            sim = make_simulator(_attack_config(seed), engine=engine)
            peak = 0.0
            for _ in range(40):
                sim.run(10)
                peak = max(peak, sim.attacker_fraction())
            peaks.append(peak)
            finals.append(sim.fork_fractions().get("A", 0.0))
            lifetimes.extend(sim.fork_lifetimes_in_blocks().values())
        return peaks, finals, lifetimes

    def test_distributions_agree(self):
        s_peaks, s_finals, s_lifetimes = self._ensemble("scalar")
        v_peaks, v_finals, v_lifetimes = self._ensemble("vec")

        # Fork-B peak capture: a 30% attacker seizes most of a small,
        # under-synchronized grid in both engines, to similar extents.
        assert abs(statistics.mean(s_peaks) - statistics.mean(v_peaks)) < 0.15
        assert statistics.mean(s_peaks) > 0.3
        assert statistics.mean(v_peaks) > 0.3

        # Final chain-A recovery: the honest majority wins back most of
        # the grid by the horizon in both engines.
        assert abs(statistics.mean(s_finals) - statistics.mean(v_finals)) < 0.15
        assert statistics.mean(s_finals) > 0.5
        assert statistics.mean(v_finals) > 0.5

        # Natural-fork lifetimes: short-lived in both engines — the
        # paper's "within two or three block intervals" (§IV-B).
        for lifetimes in (s_lifetimes, v_lifetimes):
            if lifetimes:
                assert statistics.mean(lifetimes) <= 4.0
