"""PhaseTimingCollector: per-phase wall-time attribution for the grid
engines (mine / communicate / collect)."""

from __future__ import annotations

import pytest

from repro.netsim.grid import GridConfig, GridSimulator, make_simulator
from repro.parallel import PhaseTimingCollector


class TestPhaseTimingCollector:
    def test_accumulates_per_phase(self):
        collector = PhaseTimingCollector()
        collector.add("mine", 0.5)
        collector.add("communicate", 1.0)
        collector.add("mine", 0.25)
        assert collector.seconds("mine") == pytest.approx(0.75)
        assert collector.seconds("communicate") == pytest.approx(1.0)
        assert collector.calls("mine") == 2
        assert collector.calls("communicate") == 1
        assert collector.total_seconds() == pytest.approx(1.75)
        assert collector.phases == ("mine", "communicate")

    def test_summary_shares_sum_to_one(self):
        collector = PhaseTimingCollector()
        collector.add("a", 3.0)
        collector.add("b", 1.0)
        summary = collector.summary()
        assert summary["a"]["share"] == pytest.approx(0.75)
        assert summary["b"]["share"] == pytest.approx(0.25)
        assert sum(entry["share"] for entry in summary.values()) == pytest.approx(1.0)

    def test_empty_collector(self):
        collector = PhaseTimingCollector()
        assert collector.total_seconds() == 0.0
        assert collector.seconds("anything") == 0.0
        assert collector.calls("anything") == 0
        assert collector.summary() == {}
        assert collector.phases == ()

    def test_reset(self):
        collector = PhaseTimingCollector()
        collector.add("mine", 1.0)
        collector.reset()
        assert collector.total_seconds() == 0.0
        assert collector.phases == ()


class TestGridEnginePhaseTiming:
    @pytest.mark.parametrize("engine", ["scalar", "vec"])
    def test_engines_record_three_phases_per_step(self, engine):
        collector = PhaseTimingCollector()
        sim = make_simulator(
            GridConfig(size=8, seed=2), engine=engine, phase_metrics=collector
        )
        sim.run(25)
        # The vectorized engine also reports communicate.* sub-phases.
        step_phases = {p for p in collector.phases if "." not in p}
        assert step_phases == {"mine", "communicate", "collect"}
        for phase in ("mine", "communicate", "collect"):
            assert collector.calls(phase) == 25
            assert collector.seconds(phase) >= 0.0
        assert collector.total_seconds() > 0.0

    def test_make_simulator_forwards_collector(self):
        collector = PhaseTimingCollector()
        sim = make_simulator(
            GridConfig(size=8, seed=2), engine="scalar", phase_metrics=collector
        )
        sim.run(5)
        assert collector.calls("communicate") == 5

    def test_untimed_engine_records_nothing(self):
        sim = GridSimulator(GridConfig(size=8, seed=2))
        sim.run(5)  # no collector attached; just must not fail
        assert sim.step_count == 5
