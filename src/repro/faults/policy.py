"""Retry policy: bounded attempts, exponential backoff, seeded jitter.

One small immutable object, :class:`RetryPolicy`, describes how the
supervised :class:`~repro.api.pool.WorkerPool` treats a failing task:
how many attempts it gets, how long one attempt may run, and how long
to wait between attempts.  The backoff delay grows exponentially and
carries *deterministic* jitter -- a pure hash of the task key and
attempt number (:func:`~repro.faults.inject.decision_fraction`), not an
RNG draw -- so two runs of the same campaign retry on exactly the same
schedule.  Jitter still does its usual job of de-synchronizing retries
across *different* tasks, because different keys hash differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.inject import decision_fraction

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervised pool retries, times out, and backs off.

    Attributes
    ----------
    max_attempts:
        Total attempts per task (first run + retries), ``>= 1``.
    timeout:
        Per-task wait budget in seconds; ``None`` waits forever (a task
        lost to a genuinely dead worker then never completes -- set a
        timeout to survive real crashes).
    backoff_base:
        Delay before the first retry, in seconds.
    backoff_factor:
        Multiplier applied per additional retry.
    backoff_max:
        Upper bound on the un-jittered delay.
    jitter:
        Fraction of the delay added as deterministic jitter, in
        ``[0, 1]``: the actual delay is ``d * (1 + jitter * u)`` with
        ``u`` a pure hash of (seed, key, attempt) in ``[0, 1)``.
    seed:
        Seed of the jitter hash.
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        """Reject nonsensical policies at construction time."""
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` of ``key``.

        ``attempt`` counts retries from 0 (the delay before the first
        retry).  Deterministic: the same policy, key and attempt always
        produce the same delay.
        """
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** attempt,
        )
        jitter = self.jitter * decision_fraction(
            self.seed, "backoff", f"{key}:{attempt}"
        )
        return base * (1.0 + jitter)
