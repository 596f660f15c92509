"""Fault-injection suite: the engine survives crashes, hangs, and bad
payloads without losing determinism.

The acceptance bar (ISSUE 4): with faults injected on <= 30% of trials
and a retry budget of 2, a ``jobs=4`` run completes with payloads
byte-identical to an undisturbed serial run — retries reuse the trial's
seed, so recovery is invisible in the results.  Each fault mode is also
driven to *final* failure to pin the structured attribution
(``TrialFailure`` kind, attempts, and the reproducing
``(experiment_id, index, seed)`` in the raised error).
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import time

import pytest

from repro.errors import ConfigurationError
from repro.parallel import (
    ExcessiveFailuresError,
    FailurePolicy,
    FaultPlan,
    InjectedFault,
    TrialEngine,
    TrialExecutionError,
    TrialMetricsCollector,
    inject,
    make_trials,
)
from repro.parallel import faults
from repro.parallel.faults import CRASH_EXIT_CODE

EXPERIMENT = "faultsuite"
TRIAL_COUNT = 12

#: Hang trials sleep this long; the reaping tests use a much shorter
#: per-trial timeout, so a hang always presents as a hung worker.
HANG_SECONDS = 8.0
TRIAL_TIMEOUT = 2.0


def seeded_payload(trial):
    """Deterministic payload drawn entirely from the trial's seed."""
    rng = random.Random(trial.seed)
    return {
        "index": trial.index,
        "seed": trial.seed,
        "draws": [rng.random() for _ in range(4)],
    }


def _trials():
    return make_trials(EXPERIMENT, 0, count=TRIAL_COUNT)


#: Worker time of one :func:`slow_payload` trial — long enough that a
#: queue of them outlasts ``WINDOW_TIMEOUT``, short against it per trial.
SLOW_SECONDS = 0.25
WINDOW_TIMEOUT = 1.0


def slow_payload(trial):
    """:func:`seeded_payload` after a fixed stretch of worker time."""
    time.sleep(SLOW_SECONDS)
    return seeded_payload(trial)


def logged_payload(trial):
    """:func:`seeded_payload`, noting each run in the file its params name."""
    with open(dict(trial.params)["log"], "a") as log:
        log.write(f"{trial.index}\n")
    return seeded_payload(trial)


class _DieOnUnpickle:
    """Kills the worker that unpickles it, before it can announce the trial."""

    def __reduce__(self):
        return (os._exit, (CRASH_EXIT_CODE,))


def _serial(fn, trials):
    return TrialEngine(jobs=1, collector=TrialMetricsCollector()).map(fn, trials)


def _bytes(payloads):
    return json.dumps(payloads, sort_keys=True).encode("utf-8")


@pytest.fixture(scope="module")
def baseline():
    """Undisturbed serial payloads — the byte-identity reference."""
    return TrialEngine(jobs=1, collector=TrialMetricsCollector()).map(
        seeded_payload, _trials()
    )


class TestFailurePolicyValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            FailurePolicy(mode="retry-forever")

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            FailurePolicy(retries=-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            FailurePolicy(trial_timeout=0.0)

    def test_max_failures_requires_skip_mode(self):
        with pytest.raises(ConfigurationError):
            FailurePolicy(mode="raise", max_failures=3)

    def test_strict_default(self):
        policy = FailurePolicy.strict()
        assert policy.mode == "raise"
        assert policy.retries == 0
        assert policy.trial_timeout is None
        assert policy.attempts_per_trial == 1


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        first = FaultPlan.seeded(7, TRIAL_COUNT)
        second = FaultPlan.seeded(7, TRIAL_COUNT)
        assert first == second

    def test_seeded_respects_fraction(self):
        plan = FaultPlan.seeded(7, TRIAL_COUNT, fraction=0.3)
        assert 0 < len(plan.faulty_indices()) <= int(TRIAL_COUNT * 0.3)

    def test_seeded_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.seeded(7, TRIAL_COUNT, modes=("error", "segfault"))

    def test_seeded_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.seeded(7, TRIAL_COUNT, fraction=1.5)


class TestByteIdenticalRecovery:
    """The headline acceptance test: injected faults + retries == clean run."""

    def test_mixed_faults_recover_bit_identically(self, baseline):
        plan = FaultPlan.seeded(
            seed=7,
            count=TRIAL_COUNT,
            fraction=0.3,
            modes=("error", "crash", "hang", "corrupt"),
            recover_after=1,
            hang_seconds=HANG_SECONDS,
        )
        assert plan.faulty_indices(), "the plan must actually fault something"
        collector = TrialMetricsCollector()
        engine = TrialEngine(
            jobs=4,
            collector=collector,
            policy=FailurePolicy(
                mode="raise", retries=2, trial_timeout=TRIAL_TIMEOUT
            ),
        )
        payloads = engine.map(inject(seeded_payload, plan), _trials())
        assert payloads == baseline
        assert collector.failures == ()
        assert collector.executed(EXPERIMENT) == TRIAL_COUNT

    def test_serial_error_recovery_matches_parallel(self, baseline):
        plan = FaultPlan(error=(2, 5), recover_after=1)
        policy = FailurePolicy(mode="raise", retries=1)
        serial = TrialEngine(
            jobs=1, collector=TrialMetricsCollector(), policy=policy
        ).map(inject(seeded_payload, plan), _trials())
        parallel = TrialEngine(
            jobs=3, collector=TrialMetricsCollector(), policy=policy
        ).map(inject(seeded_payload, plan), _trials())
        assert serial == baseline
        assert parallel == baseline

    def test_crash_recovery(self, baseline):
        plan = FaultPlan(crash=(4,), recover_after=1)
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="raise", retries=1),
        )
        assert engine.map(inject(seeded_payload, plan), _trials()) == baseline

    def test_hung_worker_recovery(self, baseline):
        plan = FaultPlan(
            hang=(3,), recover_after=1, hang_seconds=HANG_SECONDS
        )
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(
                mode="raise", retries=1, trial_timeout=TRIAL_TIMEOUT
            ),
        )
        assert engine.map(inject(seeded_payload, plan), _trials()) == baseline

    def test_corrupt_payload_recovery(self, baseline):
        plan = FaultPlan(corrupt=(6,), recover_after=1)
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="raise", retries=1),
        )
        assert engine.map(inject(seeded_payload, plan), _trials()) == baseline


class TestInFlightWindow:
    """More attempts are queued in the pool than there are workers; the
    queued ones must never be timed out or charged for a fault elsewhere."""

    def test_timeout_charges_only_the_hung_trial(self):
        # One worker hangs on trial 0 while the other works through the
        # eight slow trials queued behind it, which together outlast the
        # timeout.  Deadlines run from each trial's start, so only trial
        # 0 times out; with no retries, any other charge would fail it.
        jobs = 2
        trials = make_trials(EXPERIMENT, 0, count=1 + 4 * jobs)
        plan = FaultPlan(hang=(0,), recover_after=99, hang_seconds=HANG_SECONDS)
        engine = TrialEngine(
            jobs=jobs,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(
                mode="skip", retries=0, trial_timeout=WINDOW_TIMEOUT
            ),
        )
        batch = engine.run(inject(slow_payload, plan), trials)
        assert [(f.index, f.kind, f.attempts) for f in batch.failures] == [
            (0, "timeout", 1)
        ]
        assert _bytes(batch.payloads[1:]) == _bytes(
            _serial(seeded_payload, trials[1:])
        )

    def test_seeded_faults_over_64_trials_recover_bit_identically(self):
        trials = make_trials(EXPERIMENT, 0, count=64)
        plan = FaultPlan.seeded(
            seed=11,
            count=64,
            modes=("error", "crash", "hang", "corrupt"),
            recover_after=1,
            hang_seconds=HANG_SECONDS,
        )
        assert all((plan.error, plan.crash, plan.hang, plan.corrupt))
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="raise", retries=2, trial_timeout=0.5),
        )
        payloads = engine.map(inject(seeded_payload, plan), trials)
        assert _bytes(payloads) == _bytes(_serial(seeded_payload, trials))

    def test_death_before_announcing_charges_one_queued_flight(self):
        # Trial 0 kills whichever worker unpickles it, so that worker dies
        # without announcing while the rest of the window is queued.  It
        # could only have taken the oldest unannounced flight, trial 0;
        # no other trial may be charged.
        trials = make_trials(EXPERIMENT, 0, count=16)
        trials[0] = dataclasses.replace(
            trials[0], params=(("bomb", _DieOnUnpickle()),)
        )
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="skip", retries=0),
        )
        batch = engine.run(slow_payload, trials)
        assert [(f.index, f.kind, f.attempts) for f in batch.failures] == [
            (0, "worker-death", 1)
        ]
        assert _bytes(batch.payloads[1:]) == _bytes(
            _serial(seeded_payload, trials[1:])
        )


    def test_reported_outcome_survives_a_later_death(self, monkeypatch, tmp_path):
        # Trial 0 finishes; trial 1 then kills the worker that unpickles
        # it, before it announces.  Collection is held back until both
        # have happened, so trial 0's outcome is still queued when the
        # death is noticed.  It must be kept: neither charged (with no
        # retries that would fail it) nor run a second time.
        log = tmp_path / "runs.log"
        first, second = make_trials(EXPERIMENT, 0, count=2)
        trials = [
            dataclasses.replace(first, params=(("log", str(log)),)),
            dataclasses.replace(second, params=(("bomb", _DieOnUnpickle()),)),
        ]
        collect = faults._PoolExecutor._collect
        held = [True]

        def collect_after_the_death(executor):
            if not held[0]:
                return collect(executor)
            held[0] = False
            give_up = time.perf_counter() + 30.0
            while time.perf_counter() < give_up:
                dead = any(not proc.is_alive() for proc in executor._procs)
                if dead and not executor._done.empty():
                    return None
                time.sleep(0.01)
            return None

        monkeypatch.setattr(faults._PoolExecutor, "_collect", collect_after_the_death)
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="skip", retries=0),
        )
        batch = engine.run(logged_payload, trials)
        assert [(f.index, f.kind, f.attempts) for f in batch.failures] == [
            (1, "worker-death", 1)
        ]
        assert batch.payloads[0] == seeded_payload(trials[0])
        assert log.read_text() == "0\n"


class TestFinalFailureAttribution:
    """Faults that never recover surface with full structured context."""

    def test_raise_mode_names_the_reproducing_trial(self):
        trials = _trials()
        plan = FaultPlan(error=(4,), recover_after=99)
        engine = TrialEngine(
            jobs=1,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="raise", retries=1),
        )
        with pytest.raises(TrialExecutionError) as excinfo:
            engine.map(inject(seeded_payload, plan), trials)
        failure = excinfo.value.failure
        assert failure.experiment_id == EXPERIMENT
        assert failure.index == 4
        assert failure.seed == trials[4].seed
        assert failure.kind == "error"
        assert failure.attempts == 2
        message = str(excinfo.value)
        assert "index=4" in message and f"seed={trials[4].seed}" in message
        # Serial execution chains the live exception.
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_pool_failure_chains_the_remote_traceback(self):
        plan = FaultPlan(error=(1,), recover_after=99)
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="raise", retries=0),
        )
        with pytest.raises(TrialExecutionError) as excinfo:
            engine.map(inject(seeded_payload, plan), _trials())
        assert excinfo.value.__cause__ is not None
        assert "InjectedFault" in excinfo.value.failure.traceback_text

    def test_timeout_failure_kind(self):
        plan = FaultPlan(
            hang=(0,), recover_after=99, hang_seconds=HANG_SECONDS
        )
        collector = TrialMetricsCollector()
        engine = TrialEngine(
            jobs=2,
            collector=collector,
            policy=FailurePolicy(
                mode="raise", retries=0, trial_timeout=TRIAL_TIMEOUT
            ),
        )
        with pytest.raises(TrialExecutionError) as excinfo:
            engine.map(inject(seeded_payload, plan), _trials())
        assert excinfo.value.failure.kind == "timeout"
        assert collector.failed(EXPERIMENT) == 1

    def test_worker_death_failure_kind(self):
        plan = FaultPlan(crash=(2,), recover_after=99)
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="raise", retries=0),
        )
        with pytest.raises(TrialExecutionError) as excinfo:
            engine.map(inject(seeded_payload, plan), _trials())
        assert excinfo.value.failure.kind == "worker-death"

    def test_corrupt_payload_failure_kind(self):
        plan = FaultPlan(corrupt=(3,), recover_after=99)
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="raise", retries=0),
        )
        with pytest.raises(TrialExecutionError) as excinfo:
            engine.map(inject(seeded_payload, plan), _trials())
        assert excinfo.value.failure.kind == "payload"


class TestSkipMode:
    def test_partial_results_with_holes(self, baseline):
        plan = FaultPlan(error=(2, 8), recover_after=99)
        engine = TrialEngine(
            jobs=3,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="skip", retries=0, max_failures=2),
        )
        batch = engine.run(inject(seeded_payload, plan), _trials())
        assert batch.failed_indices == frozenset({2, 8})
        assert batch.payloads[2] is None and batch.payloads[8] is None
        survivors = [
            payload
            for index, payload in enumerate(batch.payloads)
            if index not in (2, 8)
        ]
        assert survivors == [
            payload for index, payload in enumerate(baseline) if index not in (2, 8)
        ]
        assert not batch.ok
        assert "2 failed" in batch.summary()

    def test_budget_exceeded_names_every_failed_trial(self):
        # max_failures=2 only trips once all three victims have failed,
        # so the error's roster is deterministic (an earlier abort would
        # depend on which failure the scheduler surfaced first).
        trials = _trials()
        plan = FaultPlan(error=(0, 4, 9), recover_after=99)
        engine = TrialEngine(
            jobs=3,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="skip", retries=0, max_failures=2),
        )
        with pytest.raises(ExcessiveFailuresError) as excinfo:
            engine.run(inject(seeded_payload, plan), trials)
        assert {f.index for f in excinfo.value.failures} == {0, 4, 9}
        message = str(excinfo.value)
        for index in (0, 4, 9):
            assert f"({EXPERIMENT}, {index}, {trials[index].seed})" in message

    def test_unbounded_skip_never_raises(self):
        plan = FaultPlan(error=tuple(range(TRIAL_COUNT)), recover_after=99)
        engine = TrialEngine(
            jobs=2,
            collector=TrialMetricsCollector(),
            policy=FailurePolicy(mode="skip", retries=0),
        )
        batch = engine.run(inject(seeded_payload, plan), _trials())
        assert batch.completed() == {}
        assert len(batch.failures) == TRIAL_COUNT


class TestMetricsIntegration:
    def test_failures_flow_into_the_collector_summary(self):
        plan = FaultPlan(error=(1,), recover_after=99)
        collector = TrialMetricsCollector()
        engine = TrialEngine(
            jobs=1,
            collector=collector,
            policy=FailurePolicy(mode="skip", retries=1),
        )
        engine.run(inject(seeded_payload, plan), _trials())
        assert collector.failed(EXPERIMENT) == 1
        assert collector.failures[0].attempts == 2
        assert collector.summary()["failures"] == 1
        assert "1 failure(s)" in collector.format_summary()

    def test_recovered_trials_are_not_failures(self):
        plan = FaultPlan(error=(1,), recover_after=1)
        collector = TrialMetricsCollector()
        engine = TrialEngine(
            jobs=1,
            collector=collector,
            policy=FailurePolicy(mode="raise", retries=1),
        )
        engine.map(inject(seeded_payload, plan), _trials())
        assert collector.failures == ()
        assert collector.executed(EXPERIMENT) == TRIAL_COUNT
