"""Link-latency models.

Three models matter to the paper:

- **Diffusion** (:class:`DiffusionLatency`): since 2015 Bitcoin relays
  with *independent exponential delays* per link.  The paper's timing
  analysis (Table VI) models attacker connection times the same way,
  "as used in prior work by Fanti et al." (§V-B, eq. 1).
- **Trickle** (legacy): the pre-2015 gossip relayed to one peer per
  trickle interval; we model its effect as a quantized delay.  Kept for
  the D1 ablation comparing partition windows under each regime.
- **Empirical** (:class:`EmpiricalLatency`): an inverse-CDF sampler
  over *measured* propagation-delay percentiles.
  :data:`BITCOIN_PROPAGATION_2019` pins the block-propagation
  distribution of the paper's era, as measured by the Bitcoin P2P
  vivisection campaigns (Ben Mariem et al.) on top of the
  Decker–Wattenhofer methodology; under the Nakamoto latency–security
  framing (Li–Guo–Ren) this distribution *is* the Δ that trades
  confirmation latency against safety.  The graph engine consumes it
  through :meth:`~repro.netsim.graph.GraphSpec.with_delay_model`,
  which quantizes each sampled delay to whole simulation ticks.

Latency models are callables ``(src, dst, rng) -> seconds`` so nodes
remain agnostic about the distribution in force.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Protocol, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..types import Seconds

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "DiffusionLatency",
    "TrickleLatency",
    "EmpiricalLatency",
    "BITCOIN_PROPAGATION_2019",
    "DELAY_MODELS",
    "quantize_ticks",
]


def quantize_ticks(seconds: Seconds, tick_seconds: Seconds) -> int:
    """Quantize a delay to whole simulation ticks.

    The rule — shared by the scalar and the vectorized sampling paths —
    is *nearest tick, ties to even* (so 1.5 ticks → 2, 2.5 ticks → 2),
    never below zero.  A delay under half a tick therefore rounds to 0:
    the contact lands in the same step, exactly the zero-delay
    semantics of an undelayed run.
    """
    if tick_seconds <= 0:
        raise ConfigurationError(
            "tick_seconds must be positive", tick=tick_seconds
        )
    if seconds < 0:
        raise ConfigurationError("seconds must be non-negative", seconds=seconds)
    return int(np.rint(seconds / tick_seconds))


class LatencyModel(Protocol):
    """Anything that produces a link delay for a (src, dst) pair."""

    def delay(self, src: int, dst: int, rng: random.Random) -> Seconds:
        """Sample the one-way delay in seconds."""
        ...


@dataclass(frozen=True)
class ConstantLatency:
    """Fixed delay on every link (the 'perfect network' baseline)."""

    seconds: Seconds = 0.1

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ConfigurationError("latency must be non-negative")

    def delay(self, src: int, dst: int, rng: random.Random) -> Seconds:
        return self.seconds


@dataclass(frozen=True)
class UniformLatency:
    """Uniform delay in [low, high] — crude but useful in tests."""

    low: Seconds = 0.05
    high: Seconds = 0.5

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ConfigurationError("need 0 <= low <= high", low=self.low, high=self.high)

    def delay(self, src: int, dst: int, rng: random.Random) -> Seconds:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class DiffusionLatency:
    """Independent exponential delays (post-2015 Bitcoin relay).

    ``rate`` is the λ of the paper's eq. (1): the per-link delay is
    Exp(λ), mean 1/λ seconds.  Table VI sweeps λ from 0.4 to 0.9.
    """

    rate: float = 0.8

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError("rate must be positive", rate=self.rate)

    def delay(self, src: int, dst: int, rng: random.Random) -> Seconds:
        return rng.expovariate(self.rate)

    @property
    def mean(self) -> Seconds:
        return 1.0 / self.rate


@dataclass(frozen=True)
class TrickleLatency:
    """Legacy trickle spreading, approximated as quantized delays.

    Pre-2015 nodes forwarded queued announcements to one random peer
    every trickle interval, so the effective per-link delay is a random
    number of whole intervals: ``interval * Geometric(p)`` with ``p``
    the per-round selection probability (~1/peers).
    """

    interval: Seconds = 0.1
    peers: int = 8

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError("interval must be positive")
        if self.peers < 1:
            raise ConfigurationError("peers must be >= 1")

    def delay(self, src: int, dst: int, rng: random.Random) -> Seconds:
        rounds = 1
        p = 1.0 / self.peers
        while rng.random() > p:
            rounds += 1
            if rounds > 100 * self.peers:  # numerical guard
                break
        return rounds * self.interval


@dataclass(frozen=True)
class EmpiricalLatency:
    """Inverse-CDF sampler fit to measured delay percentiles.

    ``percentiles`` is the calibration table: ``(quantile, seconds)``
    anchor points of the measured cumulative distribution, quantiles
    strictly increasing in ``[0, 1]`` and delays non-decreasing.  A
    sample draws ``u ~ U[0, 1)`` and linearly interpolates the inverse
    CDF between anchors; ``u`` outside the anchored quantile range
    clamps to the first/last anchor (NumPy ``interp`` semantics), so
    the tails are flat beyond the published percentiles rather than
    extrapolated.

    The model serves both delay APIs: the scalar
    :class:`LatencyModel` protocol (``delay(src, dst, rng)``) for the
    event-driven simulator, and :meth:`sample_edge_ticks` — the
    vectorized per-edge path the graph engine's
    :meth:`~repro.netsim.graph.GraphSpec.with_delay_model` consumes,
    quantized by :func:`quantize_ticks`.
    """

    percentiles: Tuple[Tuple[float, Seconds], ...]

    def __post_init__(self) -> None:
        if len(self.percentiles) < 2:
            raise ConfigurationError(
                "at least two percentile anchors required",
                anchors=len(self.percentiles),
            )
        quantiles = [q for q, _ in self.percentiles]
        delays = [s for _, s in self.percentiles]
        if any(not 0.0 <= q <= 1.0 for q in quantiles):
            raise ConfigurationError(
                "quantiles must lie in [0, 1]", quantiles=tuple(quantiles)
            )
        if any(b <= a for a, b in zip(quantiles, quantiles[1:])):
            raise ConfigurationError(
                "quantiles must be strictly increasing",
                quantiles=tuple(quantiles),
            )
        if delays[0] < 0 or any(b < a for a, b in zip(delays, delays[1:])):
            raise ConfigurationError(
                "delays must be non-negative and non-decreasing",
                delays=tuple(delays),
            )

    def sample(self, u: float) -> Seconds:
        """Inverse CDF at ``u``: the delay whose quantile is ``u``."""
        quantiles = [q for q, _ in self.percentiles]
        delays = [s for _, s in self.percentiles]
        return float(np.interp(u, quantiles, delays))

    def delay(self, src: int, dst: int, rng: random.Random) -> Seconds:
        return self.sample(rng.random())

    def sample_edge_ticks(
        self,
        rng: np.random.Generator,
        size: int,
        tick_seconds: Seconds,
        max_ticks: Optional[int] = None,
    ) -> np.ndarray:
        """Vectorized per-edge delay draw, quantized to ticks.

        Draws ``size`` uniforms from ``rng``, maps them through the
        inverse CDF, and quantizes with the :func:`quantize_ticks`
        rule (nearest tick, ties to even).  ``max_ticks`` optionally
        caps the tail, bounding the delay queue.
        """
        if tick_seconds <= 0:
            raise ConfigurationError(
                "tick_seconds must be positive", tick=tick_seconds
            )
        if max_ticks is not None and max_ticks < 0:
            raise ConfigurationError(
                "max_ticks must be non-negative", max_ticks=max_ticks
            )
        quantiles = np.array([q for q, _ in self.percentiles])
        delays = np.array([s for _, s in self.percentiles])
        seconds = np.interp(rng.random(size), quantiles, delays)
        ticks = np.rint(seconds / tick_seconds).astype(np.int64)
        if max_ticks is not None:
            np.minimum(ticks, max_ticks, out=ticks)
        return ticks

    @property
    def median(self) -> Seconds:
        """The interpolated 50th-percentile delay."""
        return self.sample(0.5)


#: Block-propagation delay distribution of the paper's era, anchored
#: to the published measurement campaigns: the Bitcoin P2P vivisection
#: study (Ben Mariem et al.) reports a median of ~1.3 s for a block to
#: reach half the reachable network with a long measured tail (90th
#: percentile ~4 s, 99th ~9 s), consistent with the long-running
#: Decker–Wattenhofer-methodology propagation monitors.  These anchors
#: are the source percentiles EXPERIMENTS.md documents; under the
#: Li–Guo–Ren latency–security trade-off this distribution is the
#: network delay bound Δ.
BITCOIN_PROPAGATION_2019 = EmpiricalLatency(
    percentiles=(
        (0.10, 0.35),
        (0.25, 0.70),
        (0.50, 1.30),
        (0.75, 2.60),
        (0.90, 4.20),
        (0.99, 9.40),
    )
)

#: Named delay models selectable from the CLI (``--delay-model``);
#: names are stable identifiers that survive pickling across trial
#: workers, unlike the model objects themselves.
DELAY_MODELS = {
    "calibrated": BITCOIN_PROPAGATION_2019,
}
