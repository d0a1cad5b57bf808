"""The cooperative job deadline and the simulator loops that check it.

A deadline is per thread and reads as +inf when unset.  Each loop that
carries a job's time checks it every ``CHECK_INTERVAL`` instructions
(the pure-Python phase-2 loop between chunks of that size), so an
expired deadline must stop every one of them — including when the
trace is already cached and generation never runs.
"""

import math
import threading
from contextlib import contextmanager

import pytest

from repro import deadline
from repro.core import _native
from repro.deadline import JobTimeoutError
from repro.harness.experiment import run_experiment
from repro.harness.spec import ExperimentSpec
from repro.workloads.generator import WorkloadGenerator, trace_for
from repro.workloads.spec2000 import profile_for

LONG = deadline.CHECK_INTERVAL + 4_000


@contextmanager
def past_deadline():
    """Run the block under an expired deadline; it must time out."""
    deadline.start(-1.0, "job test exceeded its budget")
    try:
        with pytest.raises(JobTimeoutError, match="exceeded"):
            yield
    finally:
        deadline.clear()


def test_unset_deadline_is_infinite_and_per_thread():
    assert deadline.current() == math.inf
    seen = []
    deadline.start(30.0, "main")
    try:
        thread = threading.Thread(target=lambda: seen.append(deadline.current()))
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert deadline.current() < math.inf
    finally:
        deadline.clear()
    assert seen == [math.inf]
    assert deadline.current() == math.inf


def test_generator_stops():
    generator = WorkloadGenerator(profile_for("gzip"))
    with past_deadline():
        generator.generate(LONG)


@pytest.mark.parametrize("backend", ["object", "array"])
def test_simulation_loop_stops_on_a_cached_trace(backend):
    # object: the pipeline loop; array: the batched engine's phase 1.
    spec = ExperimentSpec("gzip", "BaseP", n_instructions=LONG, backend=backend)
    run_experiment(spec)  # warm the trace (and phase-1 prestage) caches
    with past_deadline():
        run_experiment(spec)


def test_front_end_pass_stops_and_memoizes_nothing():
    # The trace-pure front end (the branch predictor over a cached trace)
    # is shared by every kernel tier; its pass must check the deadline
    # too, and a pass that stopped must not be memoized half done.
    from repro.core.array_kernel import _phase1_prestage

    profile = profile_for("gzip")
    length = 2 * deadline.CHECK_INTERVAL + 7  # a length no other test uses
    trace_for(profile, length, 0)  # cached: generation does not run below
    _phase1_prestage.cache_clear()
    with past_deadline():
        _phase1_prestage(profile, length, 0, 5)

    from repro.cpu.pipeline import front_end_for

    with past_deadline():
        front_end_for(profile, length, 0, 5)
    assert _phase1_prestage.cache_info().currsize == 0
    # Without a deadline the same pass runs again (nothing was memoized)
    # and completes.
    before = front_end_for.cache_info()
    _phase1_prestage(profile, length, 0, 5)
    after = front_end_for.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 1)


def test_python_phase2_stops(monkeypatch):
    # Shorter than one check interval, so only phase 2 checks at all.
    monkeypatch.setattr(_native, "phase2_cycles", lambda *a, **k: None)
    spec = ExperimentSpec("gzip", "BaseP", n_instructions=5_000, backend="array")
    run_experiment(spec)
    with past_deadline():
        run_experiment(spec)


def test_generous_deadline_leaves_results_unchanged():
    spec = ExperimentSpec("gzip", "BaseP", n_instructions=LONG)
    before = run_experiment(spec).to_dict()
    deadline.start(60.0, "generous")
    try:
        assert run_experiment(spec).to_dict() == before
    finally:
        deadline.clear()
