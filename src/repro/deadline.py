"""Cooperative per-thread job deadlines.

A job's wall-clock budget is a *deadline* the simulator checks itself,
not a signal: :func:`start` records ``time.monotonic() + seconds`` for
the calling thread, and the loops that carry a job's time — trace
generation, the trace-pure front-end pass (branch predictor and fetch
blocks), the out-of-order pipeline, and the batched engine's phase-1
and pure-Python phase-2 loops — read it once with :func:`current` and
call :func:`check` every :data:`CHECK_INTERVAL` instructions, which
raises :class:`JobTimeoutError` once it has passed.  Between checks the
cost is at most one integer compare per instruction.

Because the deadline lives in a ``threading.local``, it behaves the
same on the main thread, on any other thread and in pool workers, on
every platform.  Work outside those loops is not interrupted; notably,
a deadline that passes inside the compiled phase-2 kernel (the last
step of a batched run) lets the job finish.

Stdlib only, and imported by the kernels, so it sits below them.
"""

from __future__ import annotations

import math
import threading
import time

#: Instructions between two deadline checks in a simulator loop.
CHECK_INTERVAL = 16_384


class JobTimeoutError(RuntimeError):
    """A job exceeded the runner's per-job wall-clock budget."""


_local = threading.local()


def current() -> float:
    """This thread's deadline on the ``time.monotonic()`` clock (+inf if unset)."""
    return getattr(_local, "deadline", math.inf)


def start(seconds: float, message: str) -> None:
    """Set this thread's deadline *seconds* from now.

    *message* becomes the text of the :class:`JobTimeoutError` raised
    once it has passed.
    """
    _local.message = message
    _local.deadline = time.monotonic() + seconds


def clear() -> None:
    """Remove this thread's deadline."""
    _local.deadline = math.inf


def check(deadline: float) -> None:
    """Raise :class:`JobTimeoutError` if *deadline* has passed."""
    if time.monotonic() >= deadline:
        raise JobTimeoutError(getattr(_local, "message", "deadline exceeded"))
