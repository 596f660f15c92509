"""Shared fixtures for the test suite.

Heavyweight artifacts (the paper-scale topology, full-day series) are
session-scoped so the suite stays fast; anything a test mutates is
function-scoped.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from repro.blockchain.block import genesis_block
from repro.netsim.latency import ConstantLatency
from repro.netsim.network import Network, NetworkConfig
from repro.topology.builder import build_paper_topology
from repro.topology.topology import Topology


REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def real_tree():
    """Every analyzer tier over the real tree, run once per session.

    Maps tier name (``lint``, ``audit``, ``vec``, ``flow``) to that
    tier's report from the production ``repro-check`` plan over the
    repo's default roots: one parse and one call graph shared by every
    self-clean and committed-manifest test.  Read-only.
    """
    from repro.check import plan_tiers, run_tiers

    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        return {tier.name: report for tier, report in run_tiers(plan_tiers())}
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="session")
def paper_topology():
    """The full 13,635-node paper-calibrated topology (read-only)."""
    return build_paper_topology(seed=7)


@pytest.fixture(scope="session")
def small_topology():
    """A 20%-scale calibrated topology (read-only)."""
    return build_paper_topology(seed=7, scale=0.2)


@pytest.fixture()
def tiny_topology():
    """A hand-built 3-org / 4-AS topology with hosted nodes (mutable)."""
    topo = Topology()
    topo.add_organization("alpha", "Alpha Hosting", "DE")
    topo.add_organization("beta", "Beta Cloud", "US")
    topo.add_organization("gamma", "Gamma ISP", "CN")
    topo.add_as(100, "AS100", "alpha", "DE", num_prefixes=4)
    topo.add_as(200, "AS200", "beta", "US", num_prefixes=6)
    topo.add_as(201, "AS201", "beta", "US", num_prefixes=2)
    topo.add_as(300, "AS300", "gamma", "CN", num_prefixes=3)
    node_id = 0
    for asn, count in ((100, 12), (200, 8), (201, 4), (300, 6)):
        pool = topo.pool(asn)
        for i in range(count):
            topo.host_node(node_id, asn, prefix=pool.prefixes[i % len(pool.prefixes)])
            node_id += 1
    return topo


@pytest.fixture()
def small_network():
    """A 60-node network with one honest pool, deterministic latency."""
    net = Network(
        NetworkConfig(num_nodes=60, seed=5, failure_rate=0.05),
        latency=ConstantLatency(0.2),
    )
    net.add_pool("honest", 0.7, node_id=0)
    return net


@pytest.fixture()
def rng():
    return random.Random(1234)


@pytest.fixture()
def genesis():
    return genesis_block()
