"""Property-based tests on sparse-graph engine invariants.

Hypothesis draws arbitrary CSR topologies (irregular degrees, self
loops, degree-0 sinks, optional per-edge delays) and checks the
invariants the golden suite can't: fork fractions partition the node
set, heights are bounded by fork tips and monotone per node, the
reconcile is idempotent on a quiesced graph, partition masks conserve
node counts and cut exactly the crossing edges, and every run is
deterministic per config.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.netsim.graph import GraphConfig, GraphSimulatorVec, GraphSpec


@st.composite
def graph_specs(draw):
    num_nodes = draw(st.integers(min_value=4, max_value=32))
    adjacency = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=num_nodes - 1),
                min_size=0,
                max_size=4,
            ),
            min_size=num_nodes,
            max_size=num_nodes,
        )
    )
    indices = [target for row in adjacency for target in row]
    indptr = [0]
    for row in adjacency:
        indptr.append(indptr[-1] + len(row))
    edge_delays = None
    if indices and draw(st.booleans()):
        edge_delays = draw(
            st.lists(
                st.integers(min_value=0, max_value=3),
                min_size=len(indices),
                max_size=len(indices),
            )
        )
    return GraphSpec(indptr=indptr, indices=indices, edge_delays=edge_delays)


@st.composite
def graph_configs(draw):
    spec = draw(graph_specs())
    return GraphConfig(
        spec=spec,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        failure_rate=draw(st.floats(min_value=0.0, max_value=0.3)),
        steps_per_block=draw(st.integers(min_value=5, max_value=30)),
        attacker_share=draw(st.sampled_from([0.0, 0.2, 0.3])),
        attacker_node=draw(st.integers(min_value=0, max_value=spec.num_nodes - 1)),
        attack_start_step=draw(st.integers(min_value=0, max_value=50)),
    )


class TestGraphInvariants:
    @given(config=graph_configs(), steps=st.integers(min_value=1, max_value=120))
    @settings(max_examples=25, deadline=None)
    def test_fractions_partition_the_nodes(self, config, steps):
        sim = GraphSimulatorVec(config)
        sim.run(steps)
        fractions = sim.fork_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert all(0.0 < f <= 1.0 for f in fractions.values())

    @given(config=graph_configs(), steps=st.integers(min_value=1, max_value=120))
    @settings(max_examples=25, deadline=None)
    def test_heights_never_exceed_fork_tips(self, config, steps):
        sim = GraphSimulatorVec(config)
        sim.run(steps)
        for label, height in zip(sim.labels, sim.heights):
            fork = sim.fork_of(label)
            assert 0 <= height <= fork.tip_height

    @given(config=graph_configs())
    @settings(max_examples=20, deadline=None)
    def test_heights_monotone_per_node(self, config):
        """Longest-chain adoption never lowers any node's height."""
        sim = GraphSimulatorVec(config)
        previous = sim.heights
        for _ in range(6):
            sim.run(20)
            current = sim.heights
            assert all(c >= p for c, p in zip(current, previous))
            previous = current

    @given(config=graph_configs())
    @settings(max_examples=20, deadline=None)
    def test_reconcile_idempotent_on_quiesced_graph(self, config):
        """Communication alone never changes a uniform-state graph.

        At construction every node sits at genesis (fork A, height 0),
        so every offer ties with the receiver's own state and the
        height-then-lowest-source tie-break must adopt nothing — even
        through delayed offers maturing on later calls.
        """
        sim = GraphSimulatorVec(config)
        before = (sim.labels, sim.heights)
        for _ in range(5):
            # One communicate per step, as step() guarantees — delayed
            # offers sent on earlier calls mature on later ones.
            sim.step_count += 1
            sim._communicate()
        assert (sim.labels, sim.heights) == before

    @given(spec=graph_specs(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_partition_mask_conserves_nodes_and_cuts_only_crossings(
        self, spec, data
    ):
        mask = np.array(
            data.draw(
                st.lists(
                    st.booleans(),
                    min_size=spec.num_nodes,
                    max_size=spec.num_nodes,
                )
            )
        )
        cut = spec.partitioned(mask)
        assert cut.num_nodes == spec.num_nodes
        src = np.repeat(np.arange(spec.num_nodes), spec.degrees)
        crossing = int((mask[src] != mask[spec.indices]).sum())
        assert cut.num_edges == spec.num_edges - crossing
        cut_src = np.repeat(np.arange(cut.num_nodes), cut.degrees)
        assert bool(np.all(mask[cut_src] == mask[cut.indices]))

    @given(config=graph_configs(), steps=st.integers(min_value=10, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_determinism(self, config, steps):
        a = GraphSimulatorVec(config)
        b = GraphSimulatorVec(config)
        a.run(steps)
        b.run(steps)
        assert a.snapshot() == b.snapshot()


class TestSpecValidation:
    def test_indptr_must_span_indices(self):
        with pytest.raises(ConfigurationError):
            GraphSpec(indptr=[0, 2], indices=[0])

    def test_indptr_must_be_monotone(self):
        with pytest.raises(ConfigurationError):
            GraphSpec(indptr=[0, 2, 1, 3], indices=[0, 1, 2])

    def test_destinations_must_be_in_range(self):
        with pytest.raises(ConfigurationError):
            GraphSpec(indptr=[0, 1, 2], indices=[0, 5])

    def test_delays_must_match_edges(self):
        with pytest.raises(ConfigurationError):
            GraphSpec(indptr=[0, 1, 2], indices=[1, 0], edge_delays=[1])

    def test_negative_delays_rejected(self):
        with pytest.raises(ConfigurationError):
            GraphSpec(indptr=[0, 1, 2], indices=[1, 0], edge_delays=[0, -1])

    def test_attacker_node_must_be_inside_graph(self):
        spec = GraphSpec(indptr=[0, 1, 2], indices=[1, 0])
        with pytest.raises(ConfigurationError):
            GraphConfig(spec=spec, attacker_node=2)

    def test_mask_length_enforced(self):
        spec = GraphSpec(indptr=[0, 1, 2], indices=[1, 0])
        with pytest.raises(ConfigurationError):
            spec.partitioned([True])


class TestOfferHeadroomGuard:
    """The dtype-headroom guard on the offer encoding (RPL301's fix).

    The encode ``(height << offer_source_bits(N)) | (N - 1 - source)``
    is carried in ``OFFER_DTYPE``; construction must refuse any node
    count whose supported height bound falls below
    ``OFFER_HEIGHT_HEADROOM``.  int64 cannot be exhausted by an
    allocatable graph, so the boundary is exercised by narrowing
    ``OFFER_DTYPE`` to int32 in the ``graph`` module (the guard reads
    it at construction time).
    """

    @staticmethod
    def _ring_spec(num_nodes: int):
        indptr = np.arange(num_nodes + 1, dtype=np.int64)
        indices = (np.arange(num_nodes, dtype=np.int64) + 1) % num_nodes
        return GraphSpec(indptr=indptr, indices=indices)

    def test_height_bound_formula(self):
        from repro.netsim.graph import offer_height_bound, offer_source_bits

        max_code = np.iinfo(np.int64).max
        n = 1_000_000
        bits = offer_source_bits(n)
        bound = offer_height_bound(n)
        # Every source fits under the bound; one more height overflows.
        assert (bound << bits) | (n - 1) <= max_code
        assert (bound + 1) << bits > max_code

    def test_source_bits_cover_every_source(self):
        from repro.netsim.graph import offer_source_bits

        for n in (2, 3, 8, 9, 1 << 10, (1 << 10) + 1, 1_000_000):
            bits = offer_source_bits(n)
            assert n - 1 <= (1 << bits) - 1  # reversed source fits
            assert n - 1 > (1 << (bits - 1)) - 1 or n <= 2  # and is tight

    def test_shift_encode_orders_like_multiply_encode(self):
        """The shift code is order-isomorphic to the historical
        multiply code, so the max-reduce picks identical winners."""
        from repro.netsim.graph import offer_source_bits

        n = 37
        bits = offer_source_bits(n)
        heights = np.repeat(np.arange(5), n)
        sources = np.tile(np.arange(n), 5)
        shift = (heights << bits) | (n - 1 - sources)
        multiply = heights * n + (n - 1 - sources)
        assert np.array_equal(np.argsort(shift), np.argsort(multiply))

    def test_int64_accepts_million_node_graphs(self):
        from repro.netsim.graph import OFFER_HEIGHT_HEADROOM, offer_height_bound

        assert offer_height_bound(1_000_000) >= OFFER_HEIGHT_HEADROOM

    def test_guard_fires_at_the_boundary(self, monkeypatch):
        import repro.netsim.graph as graph_mod

        monkeypatch.setattr(graph_mod, "OFFER_DTYPE", np.int32)
        max_code = np.iinfo(np.int32).max
        # Largest node count whose height bound still meets the
        # headroom: source bits up to 10 leave 2^(31-10) - 1 heights,
        # so the largest admissible count is the full 2^10 source space.
        largest_ok = 1 << 10
        assert graph_mod.offer_height_bound(largest_ok) >= (
            graph_mod.OFFER_HEIGHT_HEADROOM
        )
        self._ring_spec(largest_ok)  # constructs
        with pytest.raises(ConfigurationError) as excinfo:
            self._ring_spec(largest_ok * 2)
        message = str(excinfo.value)
        assert str(largest_ok * 2) in message  # node count named
        assert "height" in message  # height bound named
        assert max_code >> graph_mod.offer_source_bits(largest_ok) >= (
            graph_mod.OFFER_HEIGHT_HEADROOM
        )

    def test_guard_message_names_the_bound(self, monkeypatch):
        import repro.netsim.graph as graph_mod

        monkeypatch.setattr(graph_mod, "OFFER_DTYPE", np.int32)
        num_nodes = 1 << 16
        with pytest.raises(ConfigurationError) as excinfo:
            self._ring_spec(num_nodes)
        assert str(graph_mod.offer_height_bound(num_nodes)) in str(
            excinfo.value
        )
