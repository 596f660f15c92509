"""The pool executor waits on completions, never on a fixed poll interval.

``time.sleep`` is made to raise for the duration of each test, so any
sleep on the parent's dispatch path fails the batch outright.  This pins
the event-driven dispatch without a wall-clock threshold.
"""

from __future__ import annotations

import pytest

from repro.parallel import TrialEngine, TrialMetricsCollector, make_trials

TRIALS = 64


def index_payload(trial):
    return trial.index


def _no_sleep(seconds):
    raise AssertionError(f"the executor slept {seconds}s")


@pytest.mark.parametrize("jobs", [2, 4])
def test_batch_completes_without_sleeping(monkeypatch, jobs):
    monkeypatch.setattr("repro.parallel.faults.time.sleep", _no_sleep)
    engine = TrialEngine(jobs=jobs, collector=TrialMetricsCollector())
    payloads = engine.map(index_payload, make_trials("no-poll", 0, count=TRIALS))
    assert payloads == list(range(TRIALS))
