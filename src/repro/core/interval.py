"""The micro-architecture independent interval model (thesis Eq 3.1).

Total cycles for one application on one machine configuration:

    C = N/Deff + m_bpred*(c_res + c_fe) + sum_i m_ILi*c_{Li+1}
        + m_LLC*(c_mem + c_bus)/MLP + P_hLLC

evaluated *per micro-trace* and combined (the TC'16 per-sample evaluation,
thesis §6.2.2: contention and MLP burstiness are visible only at small
time scales), with every input derived from the micro-architecture
independent profile:

* Deff from the uop mix + dependence chains (Eq 3.10);
* m_bpred from linear branch entropy via a per-predictor linear model;
* cache misses from StatStack miss ratios;
* MLP from the cold-miss or stride model, MSHR-capped;
* bus queuing and LLC hit chaining from Eqs 4.5--4.12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.machine import MachineConfig
from repro.frontend.entropy import EntropyMissRateModel
from repro.profiler.profile import ApplicationProfile, MicroTraceProfile

#: CPI stack component keys, in display order.
STACK_COMPONENTS: Tuple[str, ...] = (
    "base", "branch", "icache", "llc_chain", "dram"
)


class ModelCache:
    """Cross-configuration memo of micro-architecture independent work.

    Most of the interval model's per-(profile, config) cost is spent in
    computations whose inputs are a micro-trace plus a *small subset* of
    configuration fields: the branch resolution leaky bucket, the virtual
    load stream, the dispatch limits, and StatStack miss-ratio queries.
    Across a design-space grid those subsets collide constantly (a 243-
    config space has only 3 distinct LLC sizes), so memoizing on the
    exact dependency set collapses thousands of evaluations into a few
    dozen.

    Every key used by :class:`IntervalModel` enumerates *all* the inputs
    the computation reads, so a cache hit returns a value bitwise
    identical to recomputing it -- the cache changes wall-clock time,
    never results.  Profile-scoped keys use the profile's identity; the
    cache pins a reference to each profile it has seen so ``id`` reuse
    after garbage collection cannot alias keys.

    A cache is typically owned by one sweep (the sweep engine attaches a
    fresh one per run / per worker process); share one across sweeps only
    while the profile objects stay alive.  For the same reason a cache
    pickles *empty*: its keys hold profile identities that mean nothing
    in another process, so a model shipped to a worker arrives with a
    fresh cache of its own.

    Accounting: :attr:`hits` / :attr:`misses` count every :meth:`get`
    unconditionally (two plain integer adds -- results and wall-time
    are unaffected), and :meth:`flush_metrics` publishes the deltas
    accumulated since the previous flush into a
    :class:`~repro.obs.metrics.MetricsRegistry` under
    ``model_cache.hits`` / ``model_cache.misses``.  Engines flush at
    batch boundaries, so worker-side caches ship their counts back
    piggybacked on result messages (see :mod:`repro.api.pool`).
    """

    def __init__(self) -> None:
        self._memo: Dict[Tuple, object] = {}
        self._pins: Dict[int, object] = {}
        #: Lifetime memo lookups answered from the memo.
        self.hits = 0
        #: Lifetime memo lookups that had to compute.
        self.misses = 0
        self._flushed_hits = 0
        self._flushed_misses = 0

    def token(self, profile: "ApplicationProfile") -> int:
        """A key component identifying ``profile`` for this cache's life."""
        ident = id(profile)
        if ident not in self._pins:
            self._pins[ident] = profile
        return ident

    def get(self, key: Tuple, compute: Callable[[], object]) -> object:
        """The memoized value for ``key``, computing it on first use."""
        try:
            value = self._memo[key]
        except KeyError:
            self.misses += 1
            value = compute()
            self._memo[key] = value
            return value
        self.hits += 1
        return value

    def __reduce__(self):
        """Pickle as a fresh, empty cache (keys are process-local)."""
        return (ModelCache, ())

    def __len__(self) -> int:
        return len(self._memo)

    def flush_metrics(self, metrics) -> None:
        """Publish hit/miss counts accumulated since the last flush.

        Increments ``model_cache.hits`` / ``model_cache.misses`` on
        ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry` or
        the no-op default) by the deltas since the previous flush, so
        repeated flushing never double-counts.  Flushing into a
        disabled registry is a no-op that keeps the deltas pending.
        """
        if not metrics.enabled:
            return
        delta_hits = self.hits - self._flushed_hits
        delta_misses = self.misses - self._flushed_misses
        if delta_hits:
            metrics.inc("model_cache.hits", delta_hits)
            self._flushed_hits = self.hits
        if delta_misses:
            metrics.inc("model_cache.misses", delta_misses)
            self._flushed_misses = self.misses

    def clear(self) -> None:
        """Drop all memoized values and pinned profiles.

        Accounting survives: :attr:`hits` / :attr:`misses` are lifetime
        counters and keep counting across clears.
        """
        self._memo.clear()
        self._pins.clear()


@dataclass
class WindowPrediction:
    """Per-micro-trace prediction (phase analysis, Fig 6.14)."""

    start: int
    instructions: float
    cycles: float
    stack: Dict[str, float]
    deff: float
    mlp: float
    limiter: str
    llc_misses: float = 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


@dataclass
class Prediction:
    """Full performance prediction for one (profile, config) pair."""

    config_name: str
    workload: str
    cycles: float
    instructions: float
    uops: float
    stack: Dict[str, float]
    windows: List[WindowPrediction] = field(default_factory=list)
    mlp: float = 1.0
    llc_load_misses: float = 0.0
    branch_mispredictions: float = 0.0
    frequency_ghz: float = 2.66

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def seconds(self) -> float:
        return self.cycles / (self.frequency_ghz * 1e9)

    def cpi_stack(self) -> Dict[str, float]:
        """The stack normalized to cycles-per-instruction."""
        if not self.instructions:
            return {key: 0.0 for key in self.stack}
        return {
            key: value / self.instructions
            for key, value in self.stack.items()
        }


#: Fallback entropy model: an ideal predictor mispredicts ~E/2 of
#: branches; the small intercept mirrors the residual alias misses of the
#: thesis' fitted predictors (Fig 3.9).
DEFAULT_ENTROPY_MODEL = EntropyMissRateModel(
    predictor_name="generic",
    slope=0.45,
    intercept=0.005,
    history_bits=12,
)


class IntervalModel:
    """Evaluates the interval equation for profiles and configurations.

    Parameters
    ----------
    entropy_model:
        Branch predictor miss-rate model; defaults to the generic linear
        entropy fit.
    mlp_model:
        ``"stride"`` (CAL'18 virtual stream), ``"cold"`` (ISPASS'15
        cold-window model) or ``"none"`` (serialize all misses).
    enable_llc_chaining / enable_mshr / enable_bus:
        Feature toggles for the corresponding penalty terms.
    cache:
        Optional :class:`ModelCache` memoizing micro-architecture
        independent intermediates across configurations.  Results are
        bitwise identical with or without it.
    """

    def __init__(
        self,
        entropy_model: Optional[EntropyMissRateModel] = None,
        mlp_model: str = "stride",
        enable_llc_chaining: bool = True,
        enable_mshr: bool = True,
        enable_bus: bool = True,
        cache: Optional[ModelCache] = None,
    ) -> None:
        if mlp_model not in ("stride", "cold", "none"):
            raise ValueError("mlp_model must be 'stride', 'cold' or 'none'")
        self.entropy_model = entropy_model or DEFAULT_ENTROPY_MODEL
        self.mlp_model = mlp_model
        self.enable_llc_chaining = enable_llc_chaining
        self.enable_mshr = enable_mshr
        self.enable_bus = enable_bus
        self.cache = cache

    def _memo(self, key: Tuple, compute: Callable[[], object]) -> object:
        """Memoize through the attached cache, or just compute."""
        if self.cache is None:
            return compute()
        return self.cache.get(key, compute)

    # ------------------------------------------------------------------

    def _window_weight(
        self, profile: ApplicationProfile, micro: MicroTraceProfile
    ) -> float:
        """How many trace instructions this micro-trace represents."""
        window = profile.sampling.window_length
        represented = min(window, profile.num_instructions - micro.start)
        if micro.length == 0:
            return 0.0
        return represented / micro.length

    def predict(
        self,
        profile: ApplicationProfile,
        config: MachineConfig,
    ) -> Prediction:
        """Evaluate the interval model over all micro-traces.

        A one-config batch through
        :func:`~repro.core.batch.predict_interval_batch`, the model's
        only evaluation path.
        """
        from repro.core.batch import predict_interval_batch

        return predict_interval_batch(self, profile, [config])[0]
