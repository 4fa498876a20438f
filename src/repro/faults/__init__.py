"""Fault tolerance: injection, retry policy, and crash-safe writes.

The robustness layer under the execution path.  Three pieces:

* :mod:`repro.faults.inject` -- the deterministic fault-injection
  harness (:class:`FaultPlan`, the ``REPRO_FAULTS`` spec grammar, and
  the task / store injection sites).  Chaos runs replay
  bit-for-bit because every decision is a pure seeded hash.
* :mod:`repro.faults.policy` -- :class:`RetryPolicy`: bounded attempts,
  per-task timeouts, exponential backoff with deterministic jitter,
  consumed by the supervised :class:`~repro.api.pool.WorkerPool`.
* :mod:`repro.faults.atomic` -- :func:`atomic_write`, the temp-file +
  rename primitive behind every store write, so a crash never leaves a
  half-written cache entry.

See ``docs/robustness.md`` for the failure model and the recovery
semantics end to end.
"""

from repro.faults.atomic import atomic_write
from repro.faults.inject import (
    DEFAULT_HANG_SECONDS,
    ENV_SEED,
    ENV_SPEC,
    FAULT_KINDS,
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedFault,
    InjectedTaskError,
    InjectedWorkerCrash,
    activate,
    current,
    decision_fraction,
    refresh,
    store_site,
    task_site,
)
from repro.faults.policy import RetryPolicy

__all__ = [
    "DEFAULT_HANG_SECONDS",
    "ENV_SEED",
    "ENV_SPEC",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "InjectedFault",
    "InjectedTaskError",
    "InjectedWorkerCrash",
    "RetryPolicy",
    "activate",
    "atomic_write",
    "current",
    "decision_fraction",
    "refresh",
    "store_site",
    "task_site",
]
