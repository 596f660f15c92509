"""Event-driven Bitcoin P2P network simulator.

This package models the live network the paper measured and attacked:

- :mod:`repro.netsim.events` — the discrete-event kernel;
- :mod:`repro.netsim.messages` — inv / getdata / block / tx / addr
  protocol messages (paper §IV-A lists the same set Bitnodes uses);
- :mod:`repro.netsim.latency` — link-delay models, including the
  diffusion model (independent exponential delays) Bitcoin switched to
  in 2015 and the legacy trickle model (§V-B);
- :mod:`repro.netsim.node` — full-node behaviour: 8 outbound peers,
  inventory-based relay, validation, communication failures;
- :mod:`repro.netsim.miner` — miners/pools and stratum servers;
- :mod:`repro.netsim.network` — assembly, partitions, attack hooks;
- :mod:`repro.netsim.grid` — the paper's grid simulator (Figure 7);
- :mod:`repro.netsim.graph` — the sparse CSR engine for arbitrary
  topologies (AS-level graphs, synthetic power-law networks);
- :mod:`repro.netsim.metrics` — per-node lag sampling for Figure 6.
"""

from .churn import ChurnConfig, ChurnProcess
from .events import EventQueue, Simulator
from .graph import (
    GraphConfig,
    GraphSimulatorVec,
    GraphSnapshot,
    GraphSpec,
    graph_config_from_grid,
    hijack_partition_mask,
)
from .grid import (
    ENGINES,
    GridConfig,
    GridSimulator,
    GridSnapshot,
    VEC_SIZE_THRESHOLD,
    make_simulator,
    span_ratio_delay,
)
from .latency import (
    BITCOIN_PROPAGATION_2019,
    DELAY_MODELS,
    ConstantLatency,
    DiffusionLatency,
    EmpiricalLatency,
    LatencyModel,
    UniformLatency,
    quantize_ticks,
)
from .messages import AddrMsg, BlockMsg, GetDataMsg, GetTipMsg, InvMsg, Message, TipMsg, TxMsg
from .miner import Miner, MiningPool, StratumServer
from .network import Network, NetworkConfig
from .node import FullNode, NodeConfig, NodeStats
from .timeline import Timeline, TimelineEvent

__all__ = [
    "ChurnConfig",
    "ChurnProcess",
    "EventQueue",
    "Simulator",
    "ENGINES",
    "GraphConfig",
    "GraphSimulatorVec",
    "GraphSnapshot",
    "GraphSpec",
    "graph_config_from_grid",
    "hijack_partition_mask",
    "GridSimulator",
    "GridConfig",
    "GridSnapshot",
    "VEC_SIZE_THRESHOLD",
    "make_simulator",
    "span_ratio_delay",
    "BITCOIN_PROPAGATION_2019",
    "DELAY_MODELS",
    "ConstantLatency",
    "DiffusionLatency",
    "EmpiricalLatency",
    "LatencyModel",
    "UniformLatency",
    "quantize_ticks",
    "AddrMsg",
    "BlockMsg",
    "GetDataMsg",
    "GetTipMsg",
    "InvMsg",
    "Message",
    "TipMsg",
    "TxMsg",
    "Miner",
    "MiningPool",
    "StratumServer",
    "Network",
    "NetworkConfig",
    "FullNode",
    "NodeConfig",
    "NodeStats",
    "Timeline",
    "TimelineEvent",
]
