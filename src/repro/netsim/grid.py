"""The paper's grid-based temporal-attack simulator (Figure 7).

The original study built this model in R (§V-B, "Simulation and Attack
Validation"); this is a faithful Python reimplementation of every
mechanic the paper describes:

- nodes on a square grid (size 25 shown in the figures, 100 = the full
  10,000-node network), each with the default 8 peers (the Moore
  neighbourhood, wrapping at the edges);
- per-step peer communication with a ~10% failure rate: "each time
  step represents one peer-to-peer communication attempt for each
  node";
- every node maintains a 64-bit MD5 hash-linked chain "as an internal
  error check" — adoption verifies linkage before switching;
- block production is Bernoulli per step with the honest network and
  the attacker splitting the hash rate (default 70/30);
- honest miners extend the chain view of a *random node*, so natural
  forks emerge whenever the network is out of sync, and are resolved
  by the longest-chain rule "within two or three block intervals";
- the attacker seeds its fork at a chosen cell (the paper's node
  [7,7]) and pins that node to the counterfeit chain;
- the span-ratio law ``T_delay = T_block / (R_span * sqrt(N))`` links
  the per-step delay to network-wide synchronization; R_span = 2.0 is
  the paper's synchronization target.

Two engines implement the model:

- :class:`GridSimulator` — the scalar reference engine.  Per-cell
  Python loops drive communication, but all *accounting* (per-label
  live-cell counts, the honest-cell index, the max-height histogram)
  is maintained incrementally, so no observation or mining decision
  ever rescans the grid.  Its random draws come from the stdlib
  ``"grid"`` stream and are bit-identical to the original
  implementation: published figure7 outputs do not move.
- :class:`~repro.netsim.graph.GraphSimulatorVec` — the vectorized
  graph engine, with one reconcile kernel.  A grid config reaches it
  through :func:`~repro.netsim.graph.graph_config_from_grid`, which
  emits the Moore neighbourhood as CSR adjacency and pins the
  ``"grid.vec"`` NumPy stream and the grid's row/column seed-cell
  draws (see the graph module for the vectorized RNG protocol).  Its
  stream differs from the scalar engine's, and it reconciles all
  contacts of a step synchronously against the step's starting state
  (ties toward the lowest source cell) where the scalar engine
  reconciles pairs in cell order, so the two agree statistically
  (pinned by the cross-engine equivalence tests), not
  sample-by-sample.

:func:`make_simulator` selects the engine: ``"scalar"``; ``"vec"`` and
``"graph"``, which both run a grid on the graph engine; or ``"auto"``
(the default), vectorized from :data:`VEC_SIZE_THRESHOLD` (size 50,
2,500 nodes) upward, where the kernel dominates Python overhead, and
scalar below, keeping published small-grid artifacts bit-identical.
Grid-shaped ``labels``/``heights`` views and :class:`GridSnapshot`
come only from the scalar engine; vectorized runs observe in flat
node order.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..errors import ConfigurationError, SimulationError
from ..rng import RngStreams
from ..types import BITCOIN_BLOCK_INTERVAL, Seconds
from .timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..parallel.metrics import PhaseTimingCollector

__all__ = [
    "ENGINES",
    "GridConfig",
    "GridSnapshot",
    "GridSimulator",
    "ForkChain",
    "VEC_SIZE_THRESHOLD",
    "make_simulator",
    "span_ratio_delay",
]


def span_ratio_delay(
    num_nodes: int,
    span_ratio: float = 2.0,
    block_interval: Seconds = BITCOIN_BLOCK_INTERVAL,
) -> Seconds:
    """Maximum per-hop delay that keeps ``num_nodes`` synchronized.

    The paper's non-dimensional law: information must cross the network
    diameter ``R_span`` times per block interval; on a square grid the
    diameter is ~sqrt(N), hence ``T_delay = T_block / (R_span * sqrt(N))``.
    For N = 10,000 and R_span = 2.0 this gives the paper's 3-second
    per-communication interval.
    """
    if num_nodes < 1:
        raise ConfigurationError("num_nodes must be positive", num=num_nodes)
    if span_ratio <= 0:
        raise ConfigurationError("span_ratio must be positive", ratio=span_ratio)
    return block_interval / (span_ratio * math.sqrt(num_nodes))


@dataclass
class ForkChain:
    """One branch of the global block tree, as a hash-linked label chain.

    Fork ``A`` is the honest main chain from genesis; every divergence
    creates a new labelled fork with a ``parent`` and ``branch_height``
    (the last height shared with the parent).
    """

    label: str
    parent: Optional["ForkChain"]
    branch_height: int
    hashes: List[str] = field(default_factory=list)  # heights branch_height+1..
    counterfeit: bool = False
    # Ancestor hashes at heights <= branch_height are immutable once the
    # branch exists (parents only append), so resolutions are memoized:
    # repeated linkage checks stay O(1) instead of re-walking the parent
    # chain on every call.
    _ancestor_cache: Dict[int, str] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def tip_height(self) -> int:
        return self.branch_height + len(self.hashes)

    def tip_hash(self) -> str:
        return self.hash_at(self.tip_height)

    def hash_at(self, height: int) -> str:
        """Hash of this branch's block at ``height`` (follows parents)."""
        if height <= self.branch_height:
            if self.parent is None:
                if height == 0:
                    return "genesis"
                raise SimulationError("height below genesis", height=height)
            cached = self._ancestor_cache.get(height)
            if cached is None:
                cached = self.parent.hash_at(height)
                self._ancestor_cache[height] = cached
            return cached
        index = height - self.branch_height - 1
        if index >= len(self.hashes):
            raise SimulationError(
                "height above tip", height=height, tip=self.tip_height
            )
        return self.hashes[index]

    def extend(self) -> str:
        """Mine one block on this fork; returns the new block hash.

        The new hash links to the previous one with a 64-bit MD5
        digest, matching the paper's internal error check.
        """
        prev = self.tip_hash()
        payload = f"{prev}|{self.label}|{self.tip_height + 1}"
        new_hash = hashlib.md5(payload.encode("utf-8")).hexdigest()[:16]
        self.hashes.append(new_hash)
        return new_hash

    def shares_prefix_with(self, other: "ForkChain", height: int) -> bool:
        """Linkage check: do both branches agree at ``height``?"""
        try:
            return self.hash_at(height) == other.hash_at(height)
        except SimulationError:
            return False


@dataclass(frozen=True)
class GridConfig:
    """Parameters of the grid simulation.

    Attributes:
        size: Grid edge length (25 in the paper's figures; 100 = full
            network scale).
        failure_rate: Per-communication failure probability (~0.1).
        steps_per_block: Communication steps per expected block
            interval.  With the span-ratio law this is
            ``R_span * size`` (diameter crossings per block).
        attacker_share: Attacker's fraction of total hash rate (0.30 in
            Figure 7; 0 disables the attack).
        attacker_cell: Grid cell where the counterfeit fork is seeded
            (the paper's fork B emerges at node [7,7]).
        attack_start_step: Step at which the attacker begins.
        natural_fork_rate: Fraction of honest blocks mined by a
            poorly-synchronized miner on a stale view, creating the
            natural forks the paper observes resolving within 2-3
            block intervals.
        seed: Root seed.
    """

    size: int = 25
    failure_rate: float = 0.10
    steps_per_block: int = 50
    attacker_share: float = 0.30
    attacker_cell: Tuple[int, int] = (7, 7)
    attack_start_step: int = 0
    natural_fork_rate: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ConfigurationError("grid size must be >= 2", size=self.size)
        if not 0.0 <= self.failure_rate < 1.0:
            raise ConfigurationError("failure_rate in [0,1)")
        if self.steps_per_block < 1:
            raise ConfigurationError("steps_per_block must be >= 1")
        if not 0.0 <= self.attacker_share < 1.0:
            raise ConfigurationError("attacker_share in [0,1)")
        if not 0.0 <= self.natural_fork_rate <= 1.0:
            raise ConfigurationError("natural_fork_rate in [0,1]")
        row, col = self.attacker_cell
        if not (0 <= row < self.size and 0 <= col < self.size):
            raise ConfigurationError("attacker_cell outside grid")

    @property
    def num_nodes(self) -> int:
        return self.size * self.size

    @property
    def span_ratio(self) -> float:
        """Implied span ratio of this configuration.

        ``steps_per_block`` steps cross the diameter (≈ size hops)
        ``steps_per_block / size`` times per block interval.
        """
        return self.steps_per_block / self.size


@dataclass(frozen=True)
class GridSnapshot:
    """State of the grid at one step: fork label and height per cell."""

    step: int
    labels: Tuple[Tuple[str, ...], ...]
    heights: Tuple[Tuple[int, ...], ...]

    def fork_fractions(self) -> Dict[str, float]:
        """Fraction of nodes on each fork — Figure 7's colour shares."""
        counts: Dict[str, int] = {}
        for row in self.labels:
            for label in row:
                counts[label] = counts.get(label, 0) + 1
        total = sum(counts.values())
        return {label: count / total for label, count in counts.items()}

    def render(self) -> str:
        """ASCII rendering (one letter per cell) for logs and examples."""
        return "\n".join("".join(row) for row in self.labels)


class _GridEngineBase:
    """Shared mechanics of the scalar grid engine and the graph engine.

    Mining decisions, fork bookkeeping (branching, label recycling,
    births/deaths), and the per-step phase structure are engine
    independent; subclasses provide cell storage, the communication
    kernel, and the incremental indices behind the observation API.
    """

    #: Labels assigned to successive natural forks (A is the main chain).
    _LABELS = "ACDEFGHIJKLMNOPQRSTUVWXYZ"

    #: Cells at which a freshly-mined honest block surfaces (the mining
    #: pool's own nodes), so the honest chain re-enters a captured grid
    #: from several points at once.
    HONEST_SEED_CELLS = 3

    def __init__(
        self,
        config: GridConfig,
        phase_metrics: Optional["PhaseTimingCollector"] = None,
    ) -> None:
        self.config = config
        self.streams = RngStreams(config.seed)
        self.main = ForkChain(label="A", parent=None, branch_height=0)
        self.forks: Dict[str, ForkChain] = {"A": self.main}
        self._label_cursor = 1  # next natural-fork label index
        self.step_count = 0
        self.attacker_fork: Optional[ForkChain] = None
        self.fork_births: Dict[str, int] = {"A": 0}
        self.fork_deaths: Dict[str, int] = {}
        self._phase_metrics = phase_metrics
        self._attacker_idx = self._attacker_index(config)
        self._timeline: Optional[Timeline] = None
        self._timeline_cursor = 0
        #: Steps at which timeline events fired (exactly-once audit trail).
        self.timeline_fired: List[int] = []
        self._on_fork_registered(self.main)

    # ------------------------------------------------------------------
    def fork_of(self, label: str) -> ForkChain:
        try:
            return self.forks[label]
        except KeyError:
            raise SimulationError("unknown fork", label=label) from None

    # ------------------------------------------------------------------
    # One simulation step
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance one communication step: mining, then gossip.

        Timeline events attached via :meth:`attach_timeline` fire at
        the top of their step, before the mining phase, so a
        changepoint at step ``s`` governs step ``s``'s block production
        and gossip.
        """
        self.step_count += 1
        if self._timeline is not None:
            self._advance_timeline()
        metrics = self._phase_metrics
        if metrics is None:
            self._maybe_mine()
            self._communicate()
            self._collect_dead_forks()
            return
        start = time.perf_counter()
        self._maybe_mine()
        after_mine = time.perf_counter()
        self._communicate()
        after_comm = time.perf_counter()
        self._collect_dead_forks()
        after_collect = time.perf_counter()
        metrics.add("mine", after_mine - start)
        metrics.add("communicate", after_comm - after_mine)
        metrics.add("collect", after_collect - after_comm)

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    # ------------------------------------------------------------------
    # Timelines (tick-boundary parameter changes)
    # ------------------------------------------------------------------
    def attach_timeline(self, timeline: Timeline) -> None:
        """Install a :class:`~repro.netsim.timeline.Timeline`.

        Must happen before the first step; step-0 events apply to the
        initial state immediately.  Each event fires exactly once, at
        the tick boundary of its step (see :meth:`step`).
        """
        if self.step_count != 0:
            raise SimulationError(
                "timeline must attach before the first step",
                step=self.step_count,
            )
        if self._timeline is not None:
            raise SimulationError("a timeline is already attached")
        self._timeline = timeline
        self._timeline_cursor = 0
        self._advance_timeline()

    def _advance_timeline(self) -> None:
        """Fire every event due at or before the current step, once."""
        events = self._timeline.events
        cursor = self._timeline_cursor
        while cursor < len(events) and events[cursor].step <= self.step_count:
            self._apply_timeline_event(events[cursor])
            self.timeline_fired.append(self.step_count)
            cursor += 1
        self._timeline_cursor = cursor

    def _apply_timeline_event(self, event) -> None:
        updates = {}
        if event.attacker_share is not None:
            updates["attacker_share"] = event.attacker_share
        if event.failure_rate is not None:
            updates["failure_rate"] = event.failure_rate
        if updates:
            old = self.config
            # replace() re-runs __post_init__, so the new regime is
            # validated exactly like a constructor-time config.
            self.config = replace(old, **updates)
            self._on_config_replaced(old, self.config)
        if event.partition_fraction is not None:
            self._apply_partition_fraction(event.partition_fraction)

    def _on_config_replaced(self, old, new) -> None:
        """Hook: derived per-config state must refresh here."""

    def _apply_partition_fraction(self, fraction: float) -> None:
        raise ConfigurationError(
            "partition timeline events require the graph engine",
            engine=type(self).__name__,
        )

    def _maybe_mine(self) -> None:
        p_block = 1.0 / self.config.steps_per_block
        attack_live = (
            self.config.attacker_share > 0.0
            and self.step_count >= self.config.attack_start_step
        )
        honest_share = 1.0 - (self.config.attacker_share if attack_live else 0.0)
        if self._rng.random() < p_block * honest_share:
            self._mine_honest()
        if attack_live and self._rng.random() < p_block * self.config.attacker_share:
            self._mine_attacker()

    def _best_honest_fork(self) -> ForkChain:
        """The longest non-counterfeit branch in the registry."""
        candidates = [f for f in self.forks.values() if not f.counterfeit]
        return max(candidates, key=lambda f: (f.tip_height, f.label == "A"))

    def _mine_honest(self) -> None:
        """An honest miner finds a block.

        Honest miners never build on the counterfeit branch — they keep
        mining the honest chain even while victim nodes' *views* are
        captured, which is why "the longer chain A overwhelms fork B"
        in the paper's panels despite B's transient leads.  With
        probability ``1 - natural_fork_rate`` the block extends the
        best honest branch; otherwise a poorly-synchronized miner
        builds on a random honest cell's stale view, creating the
        natural forks C, D, ... of Figure 7(c).

        The new tip is deposited at a grid cell (the miner's own node):
        the best-placed holder of that branch, or a random cell if the
        counterfeit fork displaced every holder — from where gossip
        spreads it back out.
        """
        honest_count = self._honest_count()
        if honest_count and self._rng.random() < self.config.natural_fork_rate:
            idx = self._honest_cell_at(self._rand_below(honest_count))
            fork = self.fork_of(self._label_at(idx))
            height = self._height_at(idx)
            if height == fork.tip_height:
                fork.extend()
            else:
                fork = self._branch(fork, height, counterfeit=False)
                fork.extend()
            self._set_cell(idx, fork.label, fork.tip_height)
            return
        fork = self._best_honest_fork()
        fork.extend()
        # The winning pool's block surfaces at several well-connected
        # nodes at once (the pool's own full nodes): best-placed holders
        # of the honest branch, topped up with random cells when the
        # counterfeit fork displaced the holders.
        seeds = self._holder_cells(fork)
        guard = 0
        while len(seeds) < self.HONEST_SEED_CELLS and guard < 100:
            guard += 1
            idx = self._random_seed_cell()
            if idx != self._attacker_idx and idx not in seeds:
                seeds.append(idx)
        for idx in seeds:
            # Longest-chain rule: a node already ahead of the new tip
            # (e.g. captured by a longer counterfeit branch) does not
            # reorg down to it; the block still extends the registry's
            # honest branch and seeds once that branch catches up.
            if fork.tip_height > self._height_at(idx):
                self._set_cell(idx, fork.label, fork.tip_height)

    def _mine_attacker(self) -> None:
        """The attacker extends its counterfeit fork at its cell."""
        idx = self._attacker_idx
        if self.attacker_fork is None:
            base_fork = self.fork_of(self._label_at(idx))
            self.attacker_fork = self._branch(
                base_fork, self._height_at(idx), counterfeit=True, label="B"
            )
        self.attacker_fork.extend()
        self._set_cell(idx, self.attacker_fork.label, self.attacker_fork.tip_height)

    def _branch(
        self,
        parent: ForkChain,
        branch_height: int,
        counterfeit: bool,
        label: Optional[str] = None,
    ) -> ForkChain:
        if label is None:
            if self._label_cursor >= len(self._LABELS):
                # Recycle: forks are short-lived; reuse dead labels.
                live = self._live_labels()
                dead = [l for l in self.fork_deaths if l not in live]
                if not dead:
                    raise SimulationError("fork label space exhausted")
                label = dead[0]
                del self.forks[label]
                del self.fork_deaths[label]
            else:
                label = self._LABELS[self._label_cursor]
                self._label_cursor += 1
        fork = ForkChain(
            label=label,
            parent=parent,
            branch_height=branch_height,
            # Branches of a counterfeit chain stay counterfeit: their
            # history still contains the attacker's blocks.
            counterfeit=counterfeit or parent.counterfeit,
        )
        self.forks[label] = fork
        self.fork_births[label] = self.step_count
        self._on_fork_registered(fork)
        return fork

    def _collect_dead_forks(self) -> None:
        # Only forks that are not the main chain, not the attacker's,
        # and not already dead can die this step; when no such fork is
        # registered (the common steady state) the holder census is
        # skipped entirely — the census marks nothing in that case, so
        # skipping it is observationally identical.
        attacker_label = (
            self.attacker_fork.label if self.attacker_fork is not None else None
        )
        if all(
            label == "A" or label == attacker_label or label in self.fork_deaths
            for label in self.forks
        ):
            return
        live = self._live_labels()
        if attacker_label is not None:
            live.add(attacker_label)
        for label in list(self.forks):
            if label == "A":
                continue
            if label not in live and label not in self.fork_deaths:
                self.fork_deaths[label] = self.step_count

    # ------------------------------------------------------------------
    # Engine hooks (cell storage and incremental indices)
    # ------------------------------------------------------------------
    def _attacker_index(self, config) -> int:
        """Flat cell index of the attacker (grid configs carry a cell)."""
        row, col = config.attacker_cell
        return row * config.size + col

    def _random_seed_cell(self) -> int:
        """Draw one candidate honest-seed cell.

        Grid engines draw a row and a column separately — the original
        two-draw protocol, load-bearing for golden trajectories.
        """
        size = self.config.size
        row = self._rand_below(size)
        col = self._rand_below(size)
        return row * size + col

    def _on_fork_registered(self, fork: ForkChain) -> None:
        """Called whenever a fork enters the registry (including genesis)."""

    def _rand_below(self, upper: int) -> int:
        raise NotImplementedError

    def _label_at(self, idx: int) -> str:
        raise NotImplementedError

    def _height_at(self, idx: int) -> int:
        raise NotImplementedError

    def _set_cell(self, idx: int, label: str, height: int) -> None:
        raise NotImplementedError

    def _honest_count(self) -> int:
        raise NotImplementedError

    def _honest_cell_at(self, k: int) -> int:
        raise NotImplementedError

    def _holder_cells(self, fork: ForkChain) -> List[int]:
        raise NotImplementedError

    def _communicate(self) -> None:
        raise NotImplementedError

    def _live_labels(self) -> Set[str]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def attacker_fraction(self) -> float:
        """Fraction of nodes currently on the counterfeit fork."""
        if self.attacker_fork is None:
            return 0.0
        return self.fork_fractions().get(self.attacker_fork.label, 0.0)

    def fork_lifetimes_in_blocks(self) -> Dict[str, float]:
        """Lifetime of each dead fork in block intervals.

        Validation target: natural forks resolve within ~2-3 block
        intervals (§IV-B).
        """
        return {
            label: (self.fork_deaths[label] - self.fork_births[label])
            / self.config.steps_per_block
            for label in self.fork_deaths
            if label in self.fork_births
        }


class GridSimulator(_GridEngineBase):
    """Step-driven grid network with fork propagation and an attacker.

    The scalar reference engine.  Draws come from the stdlib ``"grid"``
    stream in the exact order of the original implementation, so runs
    are bit-identical to the pre-optimization engine (pinned by the
    golden-trajectory tests).  All observation queries are answered
    from incrementally maintained indices:

    - ``_label_cells``: label -> set of cells currently on that fork
      (fork fractions, live labels, and holder selection without grid
      scans);
    - ``_counterfeit_cells``: cells whose fork is counterfeit (the
      honest-cell index: count and k-th-cell queries in O(#captured));
    - ``_height_counts`` / ``_max_height``: histogram of cell heights
      (synced fraction in O(1), max maintained under the rare height
      decreases when a counterfeit region is reclaimed).
    """

    def __init__(
        self,
        config: GridConfig,
        phase_metrics: Optional["PhaseTimingCollector"] = None,
    ) -> None:
        super().__init__(config, phase_metrics)
        self._rng = self.streams.stream("grid")
        num_nodes = config.num_nodes
        # Flat row-major cell state: index = row * size + col.
        self._labels: List[str] = ["A"] * num_nodes
        self._heights: List[int] = [0] * num_nodes
        self._label_cells: Dict[str, Set[int]] = {"A": set(range(num_nodes))}
        self._counterfeit_cells: Set[int] = set()
        self._height_counts: Dict[int, int] = {0: num_nodes}
        self._max_height = 0
        self._neighbors = self._build_neighbors(config.size)

    # ------------------------------------------------------------------
    @staticmethod
    def _build_neighbors(size: int) -> List[List[int]]:
        """Moore neighbourhood (8 peers) with toroidal wrapping.

        Flat: entry ``row * size + col`` lists the 8 neighbour indices,
        in the same (dr, dc) enumeration order as always — the order is
        load-bearing, ``randrange(8)`` indexes into it.
        """
        neighbors: List[List[int]] = []
        for r in range(size):
            for c in range(size):
                cell_neighbors = []
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        if dr == 0 and dc == 0:
                            continue
                        cell_neighbors.append(
                            ((r + dr) % size) * size + ((c + dc) % size)
                        )
                neighbors.append(cell_neighbors)
        return neighbors

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def _rand_below(self, upper: int) -> int:
        return self._rng.randrange(upper)

    def _label_at(self, idx: int) -> str:
        return self._labels[idx]

    def _height_at(self, idx: int) -> int:
        return self._heights[idx]

    def _set_cell(self, idx: int, label: str, height: int) -> None:
        old_label = self._labels[idx]
        if label != old_label:
            self._labels[idx] = label
            cells = self._label_cells
            cells[old_label].discard(idx)
            holder = cells.get(label)
            if holder is None:
                cells[label] = {idx}
            else:
                holder.add(idx)
            if self.forks[label].counterfeit:
                self._counterfeit_cells.add(idx)
            else:
                self._counterfeit_cells.discard(idx)
        old_height = self._heights[idx]
        if height != old_height:
            self._heights[idx] = height
            counts = self._height_counts
            remaining = counts[old_height] - 1
            if remaining:
                counts[old_height] = remaining
            else:
                del counts[old_height]
            counts[height] = counts.get(height, 0) + 1
            if height > self._max_height:
                self._max_height = height
            elif old_height == self._max_height and old_height not in counts:
                peak = self._max_height - 1
                while peak not in counts:
                    peak -= 1
                self._max_height = peak

    def _honest_count(self) -> int:
        """Number of non-counterfeit cells excluding the attacker's."""
        excluded = len(self._counterfeit_cells)
        if self._attacker_idx not in self._counterfeit_cells:
            excluded += 1
        return self.config.num_nodes - excluded

    def _honest_cell_at(self, k: int) -> int:
        """The k-th honest cell in row-major order, via the exclusion set."""
        idx = k
        for excluded in sorted(  # repro-lint: disable=RPL311 scalar reference engine; exclusion set is attacker-sized, not node-sized
            self._counterfeit_cells | {self._attacker_idx}
        ):
            if excluded <= idx:
                idx += 1
            else:
                break
        return idx

    def _holder_cells(self, fork: ForkChain) -> List[int]:
        """Best-placed holders of ``fork``: top cells by height, ties in
        row-major order (the original stable-sort tie-break)."""
        cells = self._label_cells.get(fork.label)
        if not cells:
            return []
        heights = self._heights
        attacker_idx = self._attacker_idx
        return heapq.nsmallest(
            self.HONEST_SEED_CELLS,
            (idx for idx in cells if idx != attacker_idx),  # repro-lint: disable=RPL311 scalar reference engine; nsmallest keeps a 3-element heap
            key=lambda idx: (-heights[idx], idx),
        )

    def _communicate(self) -> None:
        """Each node attempts one peer communication (paper semantics).

        The node contacts one random neighbour; with probability
        ``failure_rate`` the attempt fails.  Otherwise the pair compare
        chains and the shorter side adopts the longer one's view after
        the MD5-linkage check.  The attacker's cell never abandons the
        counterfeit fork.
        """
        failure = self.config.failure_rate
        rng_random = self._rng.random
        rng_randrange = self._rng.randrange
        neighbors = self._neighbors
        heights = self._heights
        labels = self._labels
        set_cell = self._set_cell
        attacker_idx = self._attacker_idx if self.attacker_fork is not None else -1
        for idx in range(self.config.num_nodes):  # repro-lint: disable=RPL311 the scalar reference engine is per-node by definition; the graph engine is the vectorized path
            if failure and rng_random() < failure:
                continue
            other = neighbors[idx][rng_randrange(8)]
            height_a = heights[idx]
            height_b = heights[other]
            if height_a == height_b:
                continue
            winner, loser = (idx, other) if height_a > height_b else (other, idx)
            if loser == attacker_idx:
                continue  # pinned: the attacker never reorgs away
            set_cell(loser, labels[winner], heights[winner])

    def _live_labels(self) -> Set[str]:
        return {label for label, cells in self._label_cells.items() if cells}

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def labels(self) -> List[List[str]]:
        """Per-cell fork labels as nested rows (observation view)."""
        size = self.config.size
        flat = self._labels
        return [flat[r * size : (r + 1) * size] for r in range(size)]

    @property
    def heights(self) -> List[List[int]]:
        """Per-cell chain heights as nested rows (observation view)."""
        size = self.config.size
        flat = self._heights
        return [flat[r * size : (r + 1) * size] for r in range(size)]

    def snapshot(self) -> GridSnapshot:
        return GridSnapshot(
            step=self.step_count,
            labels=tuple(tuple(row) for row in self.labels),
            heights=tuple(tuple(row) for row in self.heights),
        )

    def fork_fractions(self) -> Dict[str, float]:
        total = self.config.num_nodes
        return {
            label: len(cells) / total
            for label, cells in self._label_cells.items()
            if cells
        }

    def synced_fraction(self) -> float:
        """Fraction of nodes at the global maximum height."""
        return self._height_counts[self._max_height] / self.config.num_nodes


#: Grid edge length from which ``engine="auto"`` switches to the
#: vectorized engine (2,500 nodes; below this the scalar engine is
#: competitive and keeps published outputs bit-identical).
VEC_SIZE_THRESHOLD = 50

#: Accepted ``engine=`` values.
ENGINES = ("auto", "scalar", "vec", "graph")


def make_simulator(
    config,
    engine: str = "auto",
    phase_metrics: Optional["PhaseTimingCollector"] = None,
    delay_model=None,
) -> _GridEngineBase:
    """Build the simulation engine for ``config``.

    ``config`` is a :class:`GridConfig` or a
    :class:`~repro.netsim.graph.GraphConfig`.  ``engine``:
    ``"scalar"`` (the bit-identical reference), ``"vec"`` or
    ``"graph"`` (the CSR graph engine; a grid config is bridged via
    :func:`~repro.netsim.graph.graph_config_from_grid`), or ``"auto"``
    — for grid configs, vectorized from :data:`VEC_SIZE_THRESHOLD`
    upward and scalar below; for graph configs, always the graph
    engine (graph topologies have no scalar fallback, so ``"auto"``
    can never silently degrade them).

    ``delay_model`` (an :class:`~repro.netsim.latency.EmpiricalLatency`
    or a name from :data:`~repro.netsim.latency.DELAY_MODELS`) draws
    calibrated per-edge propagation delays through
    :meth:`~repro.netsim.graph.GraphSpec.with_delay_model`, quantized
    to the span-ratio tick.  Only ``engine="graph"`` (or a graph
    config) carries per-edge delays, so a delay model with any other
    grid engine is a configuration error rather than a silent no-op.
    """
    import dataclasses

    from .graph import GraphConfig, GraphSimulatorVec, graph_config_from_grid
    from .latency import DELAY_MODELS

    if engine not in ENGINES:
        raise ConfigurationError(
            "unknown grid engine", engine=engine, choices=ENGINES
        )
    if isinstance(delay_model, str):
        if delay_model not in DELAY_MODELS:
            raise ConfigurationError(
                "unknown delay model",
                delay_model=delay_model,
                choices=tuple(sorted(DELAY_MODELS)),
            )
        delay_model = DELAY_MODELS[delay_model]
    if isinstance(config, GraphConfig):
        if engine not in ("auto", "graph"):
            raise ConfigurationError(
                "graph configs require the graph engine",
                engine=engine,
                choices=("auto", "graph"),
            )
    else:
        if delay_model is not None and engine != "graph":
            raise ConfigurationError(
                "delay models require the graph engine", engine=engine
            )
        if engine == "auto":
            engine = "vec" if config.size >= VEC_SIZE_THRESHOLD else "scalar"
        if engine == "scalar":
            return GridSimulator(config, phase_metrics=phase_metrics)
        config = graph_config_from_grid(config)
    if delay_model is not None:
        config = dataclasses.replace(
            config, spec=config.spec.with_delay_model(delay_model)
        )
    return GraphSimulatorVec(config, phase_metrics=phase_metrics)
