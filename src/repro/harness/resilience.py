"""Reusable failure policies for long-running campaigns.

Three small primitives, used by the ``repro work`` worker
(:mod:`repro.service.worker`) and the trial loop
(:mod:`repro.nvct.campaign`):

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *seeded* jitter: the delay for ``(key, attempt)`` is a pure function of
  the policy seed, so retry schedules replay exactly under a fixed seed
  (the same property the crash-point sampler has).
* :class:`CircuitBreaker` — after ``threshold`` consecutive failures the
  breaker opens and the caller stops (a ``repro work`` worker that fails
  every chunk it touches exits instead of burning leases).
* :func:`call_with_deadline` — a per-trial wall-clock deadline via
  ``SIGALRM`` where available (Unix main thread), raising
  :class:`~repro.errors.TrialTimeout`; elsewhere the call runs
  unbounded rather than silently misbehaving.

Every breaker trip publishes to the :mod:`repro.obs` registry
when telemetry is on, and costs nothing when it is off.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.errors import TrialTimeout
from repro.obs import registry as obs_registry
from repro.util.rng import derive_seed

__all__ = [
    "RetryPolicy",
    "CircuitBreaker",
    "WORKER_RETRY",
    "new_breaker",
    "call_with_deadline",
]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter.

    ``max_retries`` counts *re*-tries: an operation runs at most
    ``max_retries + 1`` times.  The policy only *decides* (how many
    attempts, how long to back off); each caller owns its retry loop.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    seed: int = 0

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based) of operation ``key``.

        Deterministic: ``min(max_delay, base_delay·2^attempt)`` scaled by
        a seeded jitter factor in ``[0.5, 1.0]`` — jitter decorrelates
        concurrent retriers without sacrificing replayability.
        """
        cap = min(self.max_delay, self.base_delay * (2.0**attempt))
        u = (derive_seed(self.seed, "retry", key, attempt) % 2**53) / 2**53
        return cap * (0.5 + 0.5 * u)


class CircuitBreaker:
    """Consecutive-failure trip wire.

    ``record_failure`` returns ``True`` the moment the breaker opens;
    once open it stays open (its owner, a ``repro work`` worker, exits
    and leaves its chunks to other workers, so there is nothing to probe
    half-open for).
    """

    def __init__(self, threshold: int = 3):
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.consecutive_failures = 0
        self.total_failures = 0
        self.tripped = False

    def allow(self) -> bool:
        return not self.tripped

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_failure(self) -> bool:
        self.total_failures += 1
        self.consecutive_failures += 1
        if not self.tripped and self.consecutive_failures >= self.threshold:
            self.tripped = True
            if (reg := obs_registry()) is not None:
                reg.counter("resilience.breaker_trips", unit="trips").inc()
        return self.tripped


# -- the one home of retry/breaker parameters ---------------------------------
#
# These presets are the only place retry policy is set: callers use them
# as they are, and nobody else constructs a policy or a breaker.

#: A ``repro work`` worker reconnecting to a restarting scheduler.
WORKER_RETRY = RetryPolicy(max_retries=8, base_delay=0.1, max_delay=2.0)


def new_breaker() -> CircuitBreaker:
    """A fresh breaker (one per ``repro work`` worker)."""
    return CircuitBreaker(threshold=3)


def call_with_deadline(fn: Callable[[], T], deadline: float | None) -> T:
    """Run ``fn`` with a wall-clock deadline, raising :class:`TrialTimeout`.

    Uses ``SIGALRM``/``setitimer``, which only works on Unix in the main
    thread; anywhere else (Windows, worker threads) the deadline is not
    enforceable this way and the call simply runs unbounded — the
    ``--jobs`` pool's chunk timeout is the backstop there.
    """
    if not deadline or deadline <= 0:
        return fn()
    if threading.current_thread() is not threading.main_thread() or not hasattr(
        signal, "setitimer"
    ):
        return fn()

    def _alarm(signum: int, frame: Any) -> None:
        raise TrialTimeout(f"trial exceeded its {deadline:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
