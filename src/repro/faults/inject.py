"""Deterministic, seeded fault injection for chaos testing.

Real campaigns die in boring ways: a worker process segfaults, a task
wedges, a cache file is half-written when the machine loses power.  The
supervision layer (:mod:`repro.api.pool`, the engines, the stores) is
supposed to absorb all of that -- but "supposed to" is untestable
unless the faults themselves are *reproducible*.  This module makes
them so: every injection decision is a pure function of a seed, the
fault kind, and a caller-supplied site key, computed as

    ``sha256(f"{seed}|{kind}|{key}")  ->  fraction in [0, 1)  <  rate``

so a chaos run replays bit-for-bit -- same crashes at the same task
attempts, same corrupt store entries -- with no RNG objects and no
hidden counters.

A :class:`FaultPlan` is parsed from a compact spec string::

    crash:0.05,hang:0.01:0.25,corrupt_store:0.02

where each comma-separated clause is ``kind:rate[:param]`` (``param``
is the hang duration in seconds; other kinds ignore it).  Plans
activate from the ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED`` environment
variables via :func:`refresh` -- called at the process boundaries
(session construction, CLI startup, worker dispatch) -- while the hot
paths only consult :func:`current`, a pure module-global read, so no
environment read is ever reachable from a fingerprint or store sink.

Injection sites are deliberately few and explicit:

* :func:`task_site` -- inside the worker dispatch shim, before the
  task body: may raise :class:`InjectedWorkerCrash` /
  :class:`InjectedTaskError` or sleep (``hang``).
* :func:`store_site` -- after a store write: may overwrite the
  just-written file with garbage, exercising quarantine + heal.

Every site keys on a stable identifier that includes the attempt or
write ordinal, so a *retried* task or a *recomputed* store entry draws
a fresh decision -- chaos runs converge instead of looping forever.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import obs

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
    "activate",
    "current",
    "decision_fraction",
    "refresh",
    "store_site",
    "task_site",
]

#: Environment variable holding the fault spec string.
ENV_SPEC = "REPRO_FAULTS"

#: Environment variable holding the injection seed (default ``0``).
ENV_SEED = "REPRO_FAULTS_SEED"

#: Recognized fault kinds, in the order sites evaluate them.
FAULT_KINDS: Tuple[str, ...] = (
    "crash", "hang", "task_error", "corrupt_store",
)

#: Seconds a ``hang`` fault sleeps when the clause gives no param.
DEFAULT_HANG_SECONDS = 0.2

#: Bytes written over a store entry by ``corrupt_store`` (invalid JSON,
#: so every store's corrupt-entry path fires on the next read).
_CORRUPT_PAYLOAD = "{corrupt-by-fault-injection"


class FaultSpecError(ValueError):
    """A fault spec string cannot be parsed (bad kind, rate, grammar)."""


class InjectedFault(RuntimeError):
    """Base class of every deliberately injected failure."""


class InjectedWorkerCrash(InjectedFault):
    """A simulated worker-process death (task is lost mid-flight)."""


class InjectedTaskError(InjectedFault):
    """A simulated transient task failure (retryable in place)."""


def decision_fraction(seed: int, kind: str, key: str) -> float:
    """The deterministic pseudo-random fraction of one decision site.

    Pure: ``sha256(f"{seed}|{kind}|{key}")`` mapped into ``[0, 1)``.
    Shared by fault decisions and the retry policy's jitter, so nothing
    in the fault layer owns RNG state.

    Parameters
    ----------
    seed:
        The plan (or policy) seed.
    kind:
        A short namespace label (fault kind, ``"backoff"``, ...).
    key:
        The caller's site key (task id + attempt, store key + ordinal).

    Returns
    -------
    float
        A value in ``[0, 1)``, identical across processes and runs.
    """
    digest = hashlib.sha256(
        f"{seed}|{kind}|{key}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultRule:
    """One clause of a fault plan: a kind, a rate, an optional param.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    rate:
        Injection probability per decision site, in ``[0, 1]``.
    param:
        Clause-specific parameter (the ``hang`` sleep seconds); ``None``
        for clauses that take none.
    """

    kind: str
    rate: float
    param: Optional[float] = None


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, seeded set of fault rules (immutable).

    Attributes
    ----------
    rules:
        ``kind -> FaultRule`` for every clause in the spec.
    seed:
        Seed folded into every injection decision.
    """

    rules: Tuple[FaultRule, ...]
    seed: int = 0

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse ``kind:rate[:param],...`` into a plan.

        Parameters
        ----------
        spec:
            The spec string, e.g. ``"crash:0.05,hang:0.01:0.25"``.
        seed:
            Seed for every decision this plan makes.

        Returns
        -------
        FaultPlan
            The parsed plan.

        Raises
        ------
        FaultSpecError
            On unknown kinds, rates outside ``[0, 1]``, duplicate
            clauses, or malformed grammar.
        """
        rules: Dict[str, FaultRule] = {}
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            fields = clause.split(":")
            if len(fields) not in (2, 3):
                raise FaultSpecError(
                    f"bad fault clause {clause!r} (want kind:rate"
                    f"[:param])"
                )
            kind = fields[0].strip()
            if kind not in FAULT_KINDS:
                raise FaultSpecError(
                    f"unknown fault kind {kind!r} (known: "
                    + ", ".join(FAULT_KINDS) + ")"
                )
            if kind in rules:
                raise FaultSpecError(f"duplicate fault kind {kind!r}")
            try:
                rate = float(fields[1])
            except ValueError as exc:
                raise FaultSpecError(
                    f"bad rate in clause {clause!r}"
                ) from exc
            if not 0.0 <= rate <= 1.0:
                raise FaultSpecError(
                    f"rate {rate!r} outside [0, 1] in clause {clause!r}"
                )
            param: Optional[float] = None
            if len(fields) == 3:
                try:
                    param = float(fields[2])
                except ValueError as exc:
                    raise FaultSpecError(
                        f"bad param in clause {clause!r}"
                    ) from exc
                if param < 0.0:
                    raise FaultSpecError(
                        f"negative param in clause {clause!r}"
                    )
            rules[kind] = FaultRule(kind=kind, rate=rate, param=param)
        if not rules:
            raise FaultSpecError(f"empty fault spec {spec!r}")
        ordered = tuple(rules[k] for k in FAULT_KINDS if k in rules)
        return cls(rules=ordered, seed=seed)

    def rule(self, kind: str) -> Optional[FaultRule]:
        """The rule for ``kind``, or ``None`` when the plan has none."""
        for rule in self.rules:
            if rule.kind == kind:
                return rule
        return None

    def decide(self, kind: str, key: str) -> bool:
        """Whether to inject ``kind`` at decision site ``key``.

        Deterministic: the same plan, kind and key always agree, in
        any process, in any order.
        """
        rule = self.rule(kind)
        if rule is None or rule.rate <= 0.0:
            return False
        return decision_fraction(self.seed, kind, key) < rule.rate

    def param(self, kind: str, default: float) -> float:
        """The param of ``kind``'s clause, or ``default``."""
        rule = self.rule(kind)
        if rule is None or rule.param is None:
            return default
        return rule.param

    def spec(self) -> str:
        """The canonical spec string this plan round-trips to."""
        clauses = []
        for rule in self.rules:
            clause = f"{rule.kind}:{rule.rate:g}"
            if rule.param is not None:
                clause += f":{rule.param:g}"
            clauses.append(clause)
        return ",".join(clauses)


# ----------------------------------------------------------------------
# Activation: environment at the boundaries, pure reads on hot paths
# ----------------------------------------------------------------------

#: The active plan plus the (spec, seed) environment strings it was
#: parsed from (``None`` strings for an explicitly activated plan).
_ACTIVE: Dict[str, object] = {"plan": None, "spec": None, "seed": None}


def refresh() -> Optional[FaultPlan]:
    """Synchronize the active plan with the environment.

    Reads ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED`` and re-parses only
    when either string changed since the last call.  Called at process
    boundaries (session construction, CLI startup, worker dispatch) --
    never from store or fingerprint code paths, which read
    :func:`current` instead.

    Returns
    -------
    FaultPlan or None
        The now-active plan (``None`` when no spec is set).

    Raises
    ------
    FaultSpecError
        When the environment spec is set but malformed -- a chaos
        harness that silently ignores a typoed spec certifies nothing.
    """
    spec = os.environ.get(ENV_SPEC)
    seed = os.environ.get(ENV_SEED)
    if _ACTIVE["spec"] == spec and _ACTIVE["seed"] == seed:
        return _ACTIVE["plan"]  # type: ignore[return-value]
    plan = None
    if spec:
        plan = FaultPlan.parse(spec, seed=int(seed or "0"))
    _ACTIVE["plan"] = plan
    _ACTIVE["spec"] = spec
    _ACTIVE["seed"] = seed
    return plan


def activate(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` as the active plan, bypassing the environment.

    Test hook: the next :func:`refresh` re-syncs with the environment,
    so explicit activation lasts until the next process boundary.

    Returns
    -------
    FaultPlan or None
        The previously active plan (restore it when done).
    """
    previous = _ACTIVE["plan"]
    _ACTIVE["plan"] = plan
    _ACTIVE["spec"] = object()  # force the next refresh() to re-read
    _ACTIVE["seed"] = None
    return previous  # type: ignore[return-value]


def current() -> Optional[FaultPlan]:
    """The active plan (a pure module-global read, no environment)."""
    return _ACTIVE["plan"]  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Injection sites
# ----------------------------------------------------------------------


def task_site(key: str) -> None:
    """Fault decision point at the start of one worker task attempt.

    ``key`` must be unique per (stage, task, attempt) so retried tasks
    draw fresh decisions.  May raise :class:`InjectedWorkerCrash` or
    :class:`InjectedTaskError`, or sleep for the ``hang`` param.
    """
    plan = current()
    if plan is None:
        return
    if plan.decide("crash", key):
        obs.metrics().inc("faults.injected.crash")
        raise InjectedWorkerCrash(f"injected worker crash at {key}")
    if plan.decide("hang", key):
        obs.metrics().inc("faults.injected.hang")
        time.sleep(plan.param("hang", DEFAULT_HANG_SECONDS))
    if plan.decide("task_error", key):
        obs.metrics().inc("faults.injected.task_error")
        raise InjectedTaskError(f"injected task error at {key}")


def store_site(path: str, key: str) -> bool:
    """Fault decision point after one store write.

    When the plan injects ``corrupt_store`` at ``key``, the file at
    ``path`` is overwritten with invalid JSON -- simulating a torn
    write that the atomic rename cannot help with (e.g. media
    corruption), so the store's quarantine + heal path gets exercised.
    ``key`` must include a lifetime write ordinal so a *recomputed*
    entry draws a fresh decision and the store converges.

    Returns
    -------
    bool
        Whether the file was corrupted.
    """
    plan = current()
    if plan is None or not plan.decide("corrupt_store", key):
        return False
    with open(path, "w") as handle:
        handle.write(_CORRUPT_PAYLOAD)
    obs.metrics().inc("faults.injected.corrupt_store")
    return True
