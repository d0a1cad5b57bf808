"""Parallel experiment execution with caching, timeouts and retries.

:class:`ParallelRunner` is the one execution engine behind the sweep
utilities, the figure functions, the campaign engine, the service and
the CLI.  It fans independent ``(benchmark, scheme, kwargs)`` jobs out
over a ``multiprocessing`` worker pool, consults its result store (a
bounded :class:`~repro.harness.cache.ReadThroughCache`, optionally over
the content-addressed disk cache) before simulating anything, and
guards every job with a wall-clock timeout plus a retry budget:
``retries=N`` gives every job ``1 + N`` attempts, so a crashed or
timed-out attempt costs one attempt, not the whole sweep.

The timeout is a cooperative deadline (:mod:`repro.deadline`), set per
thread for one attempt: the simulator checks it every 16,384 simulated
instructions and raises :class:`JobTimeoutError` once it has passed.  It
therefore works the same on the main thread, on other threads (the
service's execution and campaign threads), in pool workers, and on
every platform.  The compiled phase-2 kernel is not interrupted: a
deadline that passes inside it lets the job finish.

There is one execution path.  :meth:`ParallelRunner.run` submits a
batch to a :class:`RunnerSession`, harvests it as it completes and
puts the results back in input order; the campaign engine and the
service drive sessions directly.  A session with one worker runs its
jobs in the calling process — no fork, no pool — so ``jobs=1`` keeps
coverage tools, profilers and ``pdb`` working.

Because every experiment is deterministic (seeded traces, seeded fault
injection), a parallel run returns results *bit-identical* to the
in-process path regardless of worker scheduling;
``tests/test_harness_runner.py`` locks that equivalence.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from repro import deadline, recovery
from repro.chaos import runtime as _chaos
from repro.core.config import ICRConfig
from repro.deadline import JobTimeoutError
from repro.harness.cache import (
    ReadThroughCache,
    ResultCache,
    UncacheableJobError,
    job_key,
)
from repro.harness.experiment import SimulationResult, _run_spec
from repro.harness.spec import ExperimentSpec
from repro.workloads.generator import WorkloadProfile


@dataclass
class Job:
    """One :func:`run_experiment` invocation, ready to ship to a worker."""

    benchmark: Union[str, WorkloadProfile]
    scheme: Union[str, ICRConfig]
    kwargs: dict = field(default_factory=dict)

    @classmethod
    def from_spec(cls, spec: ExperimentSpec) -> "Job":
        """A job whose cache key is the spec's content hash."""
        return cls(spec.benchmark, spec.scheme, spec.run_kwargs())

    def spec(self) -> ExperimentSpec:
        """The :class:`ExperimentSpec` this job executes."""
        return ExperimentSpec.from_kwargs(
            self.benchmark, self.scheme, **self.kwargs
        )

    @property
    def label(self) -> str:
        bench = (
            self.benchmark if isinstance(self.benchmark, str) else self.benchmark.name
        )
        scheme = self.scheme if isinstance(self.scheme, str) else self.scheme.name
        return f"{bench}/{scheme}"

    def key(self) -> Optional[str]:
        """Cache key, or None when the job is uncacheable."""
        try:
            return job_key(self.benchmark, self.scheme, self.kwargs)
        except UncacheableJobError:
            return None


class RunnerError(RuntimeError):
    """A job failed every attempt of its retry budget."""

    def __init__(self, job: Job, detail: str, attempts: int):
        super().__init__(
            f"job {job.label} failed after {attempts} attempt(s): {detail}"
        )
        self.job = job
        self.detail = detail


@dataclass
class RunnerStats:
    """Aggregate counters for everything a runner executed."""

    jobs: int = 0
    completed: int = 0
    cache_hits: int = 0
    simulated: int = 0
    retries: int = 0
    failures: int = 0
    uncacheable: int = 0
    cancelled: int = 0
    elapsed: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.jobs if self.jobs else 0.0

    @property
    def sims_per_sec(self) -> float:
        return self.simulated / self.elapsed if self.elapsed > 0 else 0.0

    def snapshot(self) -> dict[str, float]:
        """Plain-data counters (the service's telemetry payload)."""
        return {
            "jobs": self.jobs,
            "completed": self.completed,
            "cache_hits": self.cache_hits,
            "simulated": self.simulated,
            "retries": self.retries,
            "failures": self.failures,
            "uncacheable": self.uncacheable,
            "cancelled": self.cancelled,
            "elapsed": self.elapsed,
            "hit_rate": self.hit_rate,
            "sims_per_sec": self.sims_per_sec,
        }

    def summary(self) -> str:
        """The one-line metrics report emitted after a batch."""
        cancelled = f"{self.cancelled} cancelled · " if self.cancelled else ""
        return (
            f"[runner] {self.jobs} jobs · "
            f"{self.cache_hits} cache hits ({self.hit_rate * 100:.1f}%) · "
            f"{self.simulated} simulated · {self.retries} retries · "
            f"{cancelled}"
            f"{self.elapsed:.2f}s · {self.sims_per_sec:.2f} sims/s"
        )


def _inject_trial_fault(job: Job, last_attempt: bool = False) -> None:
    """Fire the chaos fault scheduled for this trial, if any.

    Sits at the top of every execution attempt — pool worker or
    in-process — keyed by the job's content hash, so the
    fault fires on exactly one attempt anywhere in the process tree and
    the retry of the *same* spec sails through.  That placement is what
    keeps chaos beneath the runner's retry boundary: the campaign never
    sees the fault, so the report stays byte-identical.

    With *last_attempt* nothing fires: the plan schedules *survivable*
    faults by contract, and an execution with no retry budget left has
    no way to survive one.  This matters for collateral damage — when a
    killed worker breaks the pool, every other in-flight job falls back
    to its in-parent retries, and a fresh fault firing on the last of
    them would escalate into a permanent trial failure the reference
    run never saw.
    """
    if last_attempt or _chaos.active() is None:
        return
    fault = _chaos.check_trial(job.key() or job.label)
    if fault == "timeout":
        raise JobTimeoutError(f"chaos: job {job.label} forced timeout")
    if fault == "kill":
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            # A real worker death: the pool observes a vanished process
            # (BrokenProcessPool), exactly like SIGKILL from outside.
            os._exit(137)
        raise _chaos.ChaosWorkerDeath(f"chaos: worker killed for {job.label}")


def _run_with_timeout(
    job: Job, timeout: Optional[float], last_attempt: bool = False
) -> SimulationResult:
    """Execute *job* under this thread's deadline, *timeout* seconds away."""
    _inject_trial_fault(job, last_attempt)
    spec = job.spec()
    if not timeout:
        return _run_spec(spec)
    deadline.start(timeout, f"job {job.label} exceeded {timeout}s")
    try:
        return _run_spec(spec)
    finally:
        deadline.clear()


def _worker(payload: tuple[Job, Optional[float], bool]) -> tuple[str, object]:
    """Pool entry point: never raises, always returns a tagged outcome."""
    job, timeout, last_attempt = payload
    try:
        return "ok", _run_with_timeout(job, timeout, last_attempt)
    except Exception:
        return "error", traceback.format_exc()


class ParallelRunner:
    """Cache-aware batch executor for experiment jobs.

    Parameters
    ----------
    jobs:
        Worker process count; ``None`` means ``os.cpu_count()``.  With
        1 everything runs in the calling process.
    cache:
        The result store.  A :class:`ReadThroughCache` is used as is
        (the service shares one between all its runners); a
        :class:`ResultCache` — or ``None``, for no persistence — is
        wrapped in a default-sized one.  Either way repeated identical
        jobs never re-simulate while their result is resident, and the
        in-memory tier stays bounded.
    timeout:
        Per-attempt wall-clock budget in seconds (``None`` = unbounded):
        a deadline the simulator checks every 16,384 simulated
        instructions, identically on every thread and platform.  The
        compiled phase-2 kernel is not interrupted.
    retries:
        Extra attempts after a crash or timeout (default 1): every job
        gets ``1 + retries`` attempts, whichever path runs it.  After a
        failed pool attempt the rest run *in the parent process*, so a
        poisoned worker pool cannot take them down with it.
    progress:
        When true, a compact progress line is written to *stream*
        (default ``sys.stderr``) as jobs complete.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        cache: Union[ResultCache, ReadThroughCache, None] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        progress: bool = False,
        stream=None,
    ):
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self.store = (
            cache if isinstance(cache, ReadThroughCache) else ReadThroughCache(cache)
        )
        self.timeout = timeout
        self.retries = max(0, retries)
        self.progress = progress
        self.stream = stream if stream is not None else sys.stderr
        self.stats = RunnerStats()

    # -- single-job path (also the figures execution context) ------------

    def run_one(self, benchmark, scheme=None, **kwargs) -> SimulationResult:
        """Run one experiment in-process, through the result store.

        Accepts either an :class:`ExperimentSpec` as the sole argument
        or the legacy ``(benchmark, scheme, **kwargs)`` form.
        """
        if isinstance(benchmark, ExperimentSpec):
            if scheme is not None or kwargs:
                raise TypeError("run_one(spec) takes no further arguments")
            job = Job.from_spec(benchmark)
        else:
            job = Job(benchmark, scheme, kwargs)
        handle = TrialHandle(job, job.key())
        self.stats.jobs += 1
        started = time.monotonic()
        try:
            if not self._complete_from_store(handle):
                handle.result = self._execute_with_retry(job, handle.key)
                self.stats.completed += 1
        finally:
            self.stats.elapsed += time.monotonic() - started
        return handle.result

    # -- batch path -------------------------------------------------------

    def run(
        self, jobs: Sequence[Job], *, on_error: str = "raise"
    ) -> list[SimulationResult]:
        """Run a batch of jobs, returning results in input order.

        Stored results are served first; every other distinct job is
        submitted to one :class:`RunnerSession` of ``min(jobs, pending
        jobs)`` workers — so ``jobs=1`` or a single pending job never
        forks — and harvested as it completes.  A job repeated within
        the batch runs once; its copies are filled from the batch's own
        results.

        *on_error* controls what happens when a job fails its whole
        retry budget: ``"raise"`` (default) propagates the
        :class:`RunnerError`; ``"return"`` places the error object in
        the result list at the job's position and keeps going.
        """
        if on_error not in ("raise", "return"):
            raise ValueError(f"on_error must be 'raise' or 'return', got {on_error!r}")
        jobs = list(jobs)
        self.stats.jobs += len(jobs)
        results: list = [None] * len(jobs)
        first: dict[str, int] = {}  # key -> index of its first job
        copies: list[tuple[int, int]] = []
        pending: list[TrialHandle] = []
        started = time.monotonic()
        try:
            for index, job in enumerate(jobs):
                handle = TrialHandle(job, job.key(), index)
                if handle.key in first:
                    copies.append((index, first[handle.key]))
                    continue
                if handle.key is not None:
                    first[handle.key] = index
                if self._complete_from_store(handle):
                    results[index] = handle.result
                    self._tick()
                else:
                    pending.append(handle)
        finally:
            self.stats.elapsed += time.monotonic() - started
        try:
            if pending:
                workers = min(self.jobs, len(pending))
                with self.session(workers=workers) as session:
                    for handle in pending:
                        session._enqueue(handle)
                    while (handle := session.next_completed()) is not None:
                        if on_error == "raise" and not handle.ok:
                            raise handle.result
                        results[handle.tag] = handle.result
                        self._tick()
            for index, source in copies:
                results[index] = results[source]
                if not isinstance(results[index], RunnerError):
                    self.stats.cache_hits += 1
                self.stats.completed += 1
                self._tick()
        finally:
            self._finish_progress()
        return results

    def run_grid(
        self,
        benchmarks: Sequence[Union[str, WorkloadProfile]],
        schemes: Sequence[Union[str, ICRConfig]],
        **kwargs,
    ) -> dict[tuple[str, str], SimulationResult]:
        """Convenience: the full benchmark × scheme product, keyed by label."""
        grid = [Job(b, s, dict(kwargs)) for b in benchmarks for s in schemes]
        results = self.run(grid)
        return {
            (r.benchmark, r.scheme): r for r in results
        }

    # -- internals --------------------------------------------------------

    def _lookup(self, key: Optional[str]) -> Optional[SimulationResult]:
        if key is None:
            return None
        hit = self.store.get(key)
        if hit is not None:
            self.stats.cache_hits += 1
        return hit

    def _complete_from_store(self, handle: "TrialHandle") -> bool:
        """Complete *handle* from the result store; False on a miss."""
        hit = self._lookup(handle.key)
        if hit is None:
            if handle.key is None:
                self.stats.uncacheable += 1
            return False
        handle.result = hit
        handle.done = handle.cached = True
        self.stats.completed += 1
        return True

    def _store(self, key: Optional[str], result: SimulationResult) -> None:
        if key is not None:
            self.store.put(key, result)

    def _execute_with_retry(
        self,
        job: Job,
        key: Optional[str],
        *,
        first_attempt: int = 0,
        error: str = "unknown",
    ) -> SimulationResult:
        """In-process attempts until one succeeds or the budget is spent.

        A job that already failed its pool attempt enters with
        *first_attempt* = 1 and that attempt's *error*.  Only the final
        attempt is flagged ``last_attempt`` for chaos.
        """
        attempts = 1 + self.retries
        for attempt in range(first_attempt, attempts):
            if attempt:
                self.stats.retries += 1
            try:
                result = _run_with_timeout(
                    job, self.timeout, attempt == attempts - 1
                )
            except Exception:
                error = traceback.format_exc()
                continue
            self.stats.simulated += 1
            self._store(key, result)
            return result
        self.stats.failures += 1
        raise RunnerError(job, error, attempts)

    # -- incremental path (the campaign engine's substrate) ---------------

    def session(self, *, workers: Optional[int] = None) -> "RunnerSession":
        """An incremental submit/cancel/as-completed execution session.

        A session keeps one worker pool alive and lets the caller feed
        it continuously: ``submit`` returns immediately,
        ``next_completed`` harvests results one at a time in completion
        order, and ``cancel`` revokes work that has not started.
        :meth:`run`, the campaign engine and the service all execute
        through sessions.
        """
        return RunnerSession(self, workers=workers)

    # -- progress ---------------------------------------------------------

    def _tick(self) -> None:
        if not self.progress:
            return
        s = self.stats
        line = (
            f"\r[runner] {s.completed}/{s.jobs} done · "
            f"{s.cache_hits} cache hits · {s.simulated} simulated"
        )
        print(line, end="", file=self.stream, flush=True)

    def _finish_progress(self) -> None:
        if self.progress:
            print(file=self.stream)


class TrialHandle:
    """One submitted job inside a :class:`RunnerSession`.

    ``result`` is a :class:`SimulationResult` on success or a
    :class:`RunnerError` when the job failed its whole retry budget
    (mirroring ``run(on_error="return")``); it is only meaningful once
    ``done`` is true.  ``tag`` is an opaque caller payload carried
    through untouched (the campaign engine stores its (cell, index,
    attempt, kind) bookkeeping there).
    """

    __slots__ = (
        "job", "key", "tag", "done", "result",
        "cached", "cancelled", "_future",
    )

    def __init__(self, job: Job, key: Optional[str], tag: Any = None):
        self.job = job
        self.key = key
        self.tag = tag
        self.done = False
        self.result: Union[SimulationResult, RunnerError, None] = None
        self.cached = False
        self.cancelled = False
        self._future = None

    @property
    def ok(self) -> bool:
        return self.done and not isinstance(self.result, RunnerError)


class RunnerSession:
    """Incremental executor over a persistent worker pool.

    With ``workers > 1`` jobs go to one long-lived
    :class:`ProcessPoolExecutor` (created lazily on the first
    uncached submit); with ``workers <= 1`` submitted jobs queue
    in-process and execute lazily inside :meth:`next_completed`, which
    keeps single-worker sessions deterministic *and* cancellable.

    The session shares the owning runner's result store, timeout,
    retry budget and stats; a stored result completes the handle at
    submit time (it is still delivered through :meth:`next_completed`,
    in submit order, ahead of simulated work).
    """

    def __init__(self, runner: ParallelRunner, *, workers: Optional[int] = None):
        self.runner = runner
        self.workers = workers if workers and workers > 0 else runner.jobs
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: dict = {}  # Future -> TrialHandle
        self._queue: deque[TrialHandle] = deque()  # in-process pending
        self._ready: deque[TrialHandle] = deque()  # completed, unharvested
        self._started = time.monotonic()
        self._closed = False

    # -- lifecycle --------------------------------------------------------

    def __enter__(self) -> "RunnerSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down, revoking anything still queued."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self.runner.stats.elapsed += time.monotonic() - self._started

    # -- submission -------------------------------------------------------

    def submit(self, job: Job, tag: Any = None) -> TrialHandle:
        """Queue *job* for execution; returns immediately.

        A stored result completes the handle on the spot (``done`` and
        ``cached`` both true) — it still flows through
        :meth:`next_completed` so callers can use one harvest loop.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        handle = TrialHandle(job, job.key(), tag)
        self.runner.stats.jobs += 1
        if self.runner._complete_from_store(handle):
            self._ready.append(handle)
        else:
            self._enqueue(handle)
        return handle

    def _enqueue(self, handle: TrialHandle) -> None:
        """Start executing *handle* (the caller has missed the store)."""
        if self.workers <= 1:
            self._queue.append(handle)
            return
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        # The pool attempt is the job's first; it is its last only when
        # the runner grants no retries.
        payload = (handle.job, self.runner.timeout, self.runner.retries == 0)
        try:
            future = self._pool.submit(_worker, payload)
        except BrokenExecutor:
            # A worker died hard enough to poison the executor (the
            # already-submitted futures surface their own errors
            # through next_completed's in-parent retries).  Rebuild
            # once and resubmit; a second failure is a real
            # environment problem and propagates.
            self._rebuild_pool()
            future = self._pool.submit(_worker, payload)
        handle._future = future
        self._futures[future] = handle

    def _rebuild_pool(self) -> None:
        """Replace a broken executor with a fresh one (session keeps going)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        recovery.count("pool_rebuilds")
        recovery.warn(
            "runner", "worker pool broke (worker died); rebuilt the pool"
        )

    def submit_spec(self, spec: ExperimentSpec, tag: Any = None) -> TrialHandle:
        """:meth:`submit` for an :class:`ExperimentSpec`.

        The convenience entry point of callers that live entirely in
        spec vocabulary — the simulation service feeds its job queue
        through here, one long-lived session per server process, from a
        dedicated execution thread (the session API is not thread-safe;
        confine each session to one thread and hand results off through
        your own queue).
        """
        return self.submit(Job.from_spec(spec), tag)

    def cancel(self, handle: TrialHandle) -> bool:
        """Revoke *handle* if its job has not started; True on success.

        A running or finished job cannot be revoked — the caller is free
        to ignore its result instead (results are side-effect-free
        beyond the shared store, which only makes future lookups
        cheaper).
        """
        if handle.done or handle.cancelled:
            return False
        if handle._future is not None:
            if not handle._future.cancel():
                return False
            del self._futures[handle._future]
            handle._future = None
        else:
            try:
                self._queue.remove(handle)
            except ValueError:
                return False
        handle.cancelled = True
        handle.done = True
        self.runner.stats.cancelled += 1
        return True

    def outstanding(self) -> int:
        """Submitted handles not yet harvested (queued, running or ready)."""
        return len(self._queue) + len(self._futures) + len(self._ready)

    def in_flight(self) -> int:
        """Submitted handles not yet finished (queued or running)."""
        return len(self._queue) + len(self._futures)

    # -- harvesting -------------------------------------------------------

    def next_completed(
        self, timeout: Optional[float] = None
    ) -> Optional[TrialHandle]:
        """The next finished handle, or None on timeout / empty session.

        Completion order: stored results first (in submit order), then
        simulated jobs as their workers finish.  A failed pool attempt
        spends the rest of the job's retry budget in the calling
        process; a job that exhausts it surfaces a :class:`RunnerError`
        as the handle's result.
        """
        if self._ready:
            return self._ready.popleft()
        if self._queue:
            handle = self._queue.popleft()
            return self._finish(handle, self._execute(handle))
        if not self._futures:
            return None
        done, _ = wait(
            set(self._futures), timeout=timeout, return_when=FIRST_COMPLETED
        )
        if not done:
            return None
        for future in done:
            handle = self._futures.pop(future)
            handle._future = None
            try:
                status, payload = future.result()
            except Exception as exc:  # worker died, pool broken, ...
                status, payload = "error", repr(exc)
            if status == "ok":
                self.runner.stats.simulated += 1
                self.runner._store(handle.key, payload)
                result = payload
            else:
                result = self._execute(
                    handle, first_attempt=1, error=str(payload)
                )
            self._ready.append(self._finish(handle, result))
        return self._ready.popleft()

    # -- internals --------------------------------------------------------

    def _execute(self, handle: TrialHandle, **attempts: Any):
        """In-process attempts at *handle*'s job; the result or the error."""
        try:
            return self.runner._execute_with_retry(
                handle.job, handle.key, **attempts
            )
        except RunnerError as error:
            return error

    def _finish(self, handle: TrialHandle, result) -> TrialHandle:
        handle.result = result
        handle.done = True
        self.runner.stats.completed += 1
        return handle
