"""Tick-boundary timelines: engine parameters that change mid-run.

The scenario layer describes attacks as *schedules* — an attacker
hash-rate ramp, a failure-rate (churn) regime, a BGP-hijack partition
window — while the propagation engines expose a single static config.
This module is the bridge: a :class:`Timeline` is a normalized sequence
of :class:`TimelineEvent` changepoints that an engine applies at tick
boundaries, exactly once each, before the step's mining phase (see
``_GridEngineBase.attach_timeline``).

Normalization is deterministic and input-order independent: events are
sorted by step, same-step events are merged field-wise, and two events
that disagree about the same field at the same step are a
:class:`~repro.errors.ConfigurationError` rather than a silent
last-wins.  That property (``Timeline(shuffled(events)) ==
Timeline(events)``) is pinned under Hypothesis, because sweep specs
hash their schedules into cache keys — normalization ambiguity would
either split identical scenarios across keys or collide distinct ones.

Partition windows compile through :meth:`Timeline.from_schedules`: a
``(start, end, fraction)`` window becomes a set-event at ``start`` and
a clear-event at ``end``.  When one window ends exactly where another
begins, the start wins (the new partition replaces the old one at that
boundary); two *different* starts at one step still conflict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = ["Timeline", "TimelineEvent"]

#: Fields an event may change (also the merge surface).
_EVENT_FIELDS = ("attacker_share", "failure_rate", "partition_fraction")


@dataclass(frozen=True)
class TimelineEvent:
    """One tick-boundary changepoint.

    Attributes:
        step: Simulation step at which the change takes effect (the
            event applies before that step's mining phase; step 0
            events apply to the initial state at attach time).
        attacker_share: New attacker hash-rate fraction, or ``None``
            to leave it unchanged.
        failure_rate: New per-communication failure probability, or
            ``None``.
        partition_fraction: New partition size as a node fraction
            (``0.0`` clears the partition, restoring the full edge
            set), or ``None``.  Only the graph engine carries dynamic
            partitions; the scalar grid engine rejects such events.
    """

    step: int
    attacker_share: Optional[float] = None
    failure_rate: Optional[float] = None
    partition_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ConfigurationError("event step must be >= 0", step=self.step)
        if self.attacker_share is not None and not (
            0.0 <= self.attacker_share < 1.0
        ):
            raise ConfigurationError(
                "attacker_share in [0,1)", share=self.attacker_share
            )
        if self.failure_rate is not None and not (
            0.0 <= self.failure_rate < 1.0
        ):
            raise ConfigurationError(
                "failure_rate in [0,1)", rate=self.failure_rate
            )
        if self.partition_fraction is not None and not (
            0.0 <= self.partition_fraction < 1.0
        ):
            raise ConfigurationError(
                "partition_fraction in [0,1)", fraction=self.partition_fraction
            )
        if all(getattr(self, name) is None for name in _EVENT_FIELDS):
            raise ConfigurationError("event changes nothing", step=self.step)


class Timeline:
    """A normalized, immutable sequence of tick-boundary events.

    Construction accepts events in any order; the normalized form is
    sorted by step with same-step events merged field-wise.  Equality
    and hashing follow the normalized form, so two differently-written
    but equivalent timelines compare equal.
    """

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[TimelineEvent] = ()) -> None:
        merged: Dict[int, Dict[str, float]] = {}
        for event in events:
            fields = merged.setdefault(event.step, {})
            for name in _EVENT_FIELDS:
                value = getattr(event, name)
                if value is None:
                    continue
                if name in fields and fields[name] != value:
                    raise ConfigurationError(
                        "conflicting timeline events at one step",
                        step=event.step,
                        field=name,
                        values=(fields[name], value),
                    )
                fields[name] = value
        self._events: Tuple[TimelineEvent, ...] = tuple(
            TimelineEvent(step=step, **merged[step]) for step in sorted(merged)
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_schedules(
        cls,
        hash_schedule: Sequence[Tuple[int, float]] = (),
        failure_schedule: Sequence[Tuple[int, float]] = (),
        partitions: Sequence[Tuple[int, int, float]] = (),
    ) -> "Timeline":
        """Compile piecewise schedules and partition windows.

        ``hash_schedule`` / ``failure_schedule`` are ``(step, value)``
        changepoints (any order; duplicate steps must agree).
        ``partitions`` are ``(start, end, fraction)`` windows with
        ``start < end``; the partition is live for steps ``start``
        through ``end - 1``.  A window starting exactly where another
        ends replaces it at that boundary step.
        """
        events = [
            TimelineEvent(step=step, attacker_share=share)
            for step, share in hash_schedule
        ]
        events.extend(
            TimelineEvent(step=step, failure_rate=rate)
            for step, rate in failure_schedule
        )
        starts: Dict[int, float] = {}
        ends: Dict[int, float] = {}
        for start, end, fraction in partitions:
            if start < 0 or end <= start:
                raise ConfigurationError(
                    "partition window needs 0 <= start < end",
                    start=start,
                    end=end,
                )
            if not 0.0 < fraction < 1.0:
                raise ConfigurationError(
                    "partition fraction in (0,1)", fraction=fraction
                )
            if start in starts and starts[start] != fraction:
                raise ConfigurationError(
                    "conflicting partition windows start at one step",
                    step=start,
                    values=(starts[start], fraction),
                )
            starts[start] = fraction
            ends.setdefault(end, 0.0)
        for step in sorted(starts):
            events.append(
                TimelineEvent(step=step, partition_fraction=starts[step])
            )
        for step in sorted(ends):
            if step in starts:
                continue  # a new window takes over at this boundary
            events.append(TimelineEvent(step=step, partition_fraction=0.0))
        return cls(events)

    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[TimelineEvent, ...]:
        return self._events

    @property
    def needs_partitions(self) -> bool:
        """Whether any event carries a partition change (graph-only)."""
        return any(e.partition_fraction is not None for e in self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timeline):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeline({list(self._events)!r})"
