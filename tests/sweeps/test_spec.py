"""ScenarioSpec: validation, canonical form, and digest stability.

The digest is the sweep cache key's content half, so its invariants
are pinned hard: schedule normalization is order- and
duplicate-insensitive (Hypothesis), the dict round trip is lossless,
and any single-field change moves the digest (the cache-collision
regression lives in ``test_driver.py``).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.scenarios import (
    SCENARIO_TOPOLOGIES,
    ScenarioSpec,
    run_scenario,
    scenario_summary_keys,
)

GRID = dict(topology="grid", size=3, steps=6, steps_per_block=3, sample_every=3)
GRAPH = dict(
    topology="power_law",
    num_nodes=16,
    steps=6,
    steps_per_block=3,
    sample_every=3,
)


schedule_entries = st.tuples(
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=0.0, max_value=0.9).map(lambda v: round(v, 6)),
)


class TestNormalization:
    @settings(max_examples=50, deadline=None)
    @given(
        entries=st.lists(schedule_entries, max_size=6, unique_by=lambda e: e[0]),
        shuffle_seed=st.randoms(use_true_random=False),
    )
    def test_schedule_order_never_changes_the_digest(
        self, entries, shuffle_seed
    ):
        shuffled = list(entries)
        shuffle_seed.shuffle(shuffled)
        a = ScenarioSpec(hash_schedule=tuple(entries), **GRID)
        b = ScenarioSpec(hash_schedule=tuple(shuffled), **GRID)
        assert a == b
        assert a.digest() == b.digest()

    def test_duplicate_schedule_entries_collapse(self):
        a = ScenarioSpec(failure_schedule=((3, 0.2), (3, 0.2)), **GRID)
        b = ScenarioSpec(failure_schedule=((3, 0.2),), **GRID)
        assert a.digest() == b.digest()

    def test_partition_windows_sorted(self):
        spec = ScenarioSpec(
            partitions=((8, 12, 0.25), (2, 6, 0.5)),
            **GRAPH,
        )
        assert spec.partitions == ((2, 6, 0.5), (8, 12, 0.25))

    def test_conflicting_schedule_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(hash_schedule=((3, 0.2), (3, 0.4)), **GRID)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "kwargs",
        [
            GRID,
            GRAPH,
            dict(GRAPH, partitions=[[2, 4, 0.25]], engine="graph"),
            dict(GRID, hash_schedule=[[2, 0.45]], failure_schedule=[[3, 0.2]]),
            dict(GRAPH, unreachable_fraction=0.25),
        ],
    )
    def test_dict_round_trip_preserves_digest(self, kwargs):
        spec = ScenarioSpec.from_dict(dict(kwargs))
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(dict(GRID, warp_factor=9))

    def test_every_field_change_moves_the_digest(self):
        base = ScenarioSpec(**GRAPH)
        tweaks = {
            "num_nodes": 17,
            "base_degree": 5,
            "tail_alpha": 2.5,
            "steps": 7,
            "steps_per_block": 4,
            "failure_rate": 0.2,
            "natural_fork_rate": 0.05,
            "attacker_share": 0.4,
            "attacker_node": 1,
            "attack_start_step": 2,
            "sample_every": 2,
            "rng_protocol": 2,
            "engine": "graph",
            "unreachable_fraction": 0.1,
            "hash_schedule": ((2, 0.45),),
            "failure_schedule": ((2, 0.2),),
            "partitions": ((2, 4, 0.25),),
        }
        digests = {base.digest()}
        for name, value in tweaks.items():
            spec = dataclasses.replace(base, **{name: value})
            digests.add(spec.digest())
        assert len(digests) == len(tweaks) + 1


class TestValidation:
    def test_topologies_constant(self):
        assert SCENARIO_TOPOLOGIES == ("grid", "power_law")

    def test_grid_rejects_num_nodes(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(topology="grid", size=3, num_nodes=9)

    def test_power_law_rejects_size(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(topology="power_law", num_nodes=16, size=4)

    def test_partitions_need_graph_semantics(self):
        """Grid specs off ``engine="graph"`` reject partitions and delay
        models, also at sizes where ``vec``/``auto`` run the graph
        engine."""
        for size in (3, 50):
            for engine in ("auto", "scalar", "vec"):
                grid = dict(GRID, size=size, engine=engine)
                with pytest.raises(ConfigurationError):
                    ScenarioSpec(partitions=((2, 4, 0.25),), **grid)
                with pytest.raises(ConfigurationError):
                    ScenarioSpec(delay_model="calibrated", **grid)

    def test_unreachable_needs_power_law(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(unreachable_fraction=0.2, **GRID)

    def test_delay_model_and_max_delay_exclusive(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(delay_model="calibrated", max_delay=3, **GRAPH)

    def test_attacker_node_bounds(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(attacker_node=16, **GRAPH)


class TestRunScenario:
    @pytest.mark.parametrize("kwargs", [GRID, GRAPH])
    def test_deterministic_and_schema_stable(self, kwargs):
        spec = ScenarioSpec(**kwargs)
        first = run_scenario(spec, seed=7)
        second = run_scenario(spec, seed=7)
        assert first == second
        assert tuple(first) == scenario_summary_keys()
        assert first["spec_digest"] == spec.digest()

    def test_timeline_events_counted(self):
        spec = ScenarioSpec(
            hash_schedule=((2, 0.45),),
            partitions=((2, 4, 0.25),),
            engine="graph",
            **GRAPH,
        )
        summary = run_scenario(spec, seed=3)
        # hash change at 2 (merged), partition on at 2 / off at 4.
        assert summary["timeline_events"] == 2

    def test_seed_changes_trajectory_not_schema(self):
        spec = ScenarioSpec(**GRID)
        a = run_scenario(spec, seed=1)
        b = run_scenario(spec, seed=2)
        assert tuple(a) == tuple(b)
        assert a["seed"] != b["seed"]
