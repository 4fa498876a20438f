"""The analytical model facade: profile x configuration -> prediction.

Couples the interval performance model with the power backend and derives
the activity factors from the performance prediction (thesis Eq 3.16),
mirroring the paper's flow where profile statistics feed McPAT directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.interval import IntervalModel, ModelCache, Prediction
from repro.core.machine import MachineConfig
from repro.core.power import ActivityVector, PowerBreakdown
from repro.frontend.entropy import EntropyMissRateModel
from repro.profiler.profile import ApplicationProfile


@dataclass
class ModelResult:
    """Performance + power prediction for one (workload, config) pair.

    Attributes
    ----------
    performance:
        The interval-model performance prediction (cycles, CPI stack,
        per-window breakdown).
    power:
        The power breakdown evaluated at the predicted activity.
    activity:
        The activity factors derived from the performance prediction.
    energy_joules / edp / ed2p:
        Energy, energy-delay and energy-delay-squared products.
    """

    performance: Prediction
    power: PowerBreakdown
    activity: ActivityVector
    energy_joules: float
    edp: float
    ed2p: float

    # -- convenience ------------------------------------------------------

    @property
    def cpi(self) -> float:
        """Predicted cycles per instruction."""
        return self.performance.cpi

    @property
    def cycles(self) -> float:
        """Predicted total cycle count."""
        return self.performance.cycles

    @property
    def seconds(self) -> float:
        """Predicted wall-clock execution time in seconds."""
        return self.performance.seconds

    @property
    def power_watts(self) -> float:
        """Predicted total power draw in watts."""
        return self.power.total

    def cpi_stack(self) -> Dict[str, float]:
        """The CPI stack, normalized to cycles per instruction."""
        return self.performance.cpi_stack()

    def power_stack(self) -> Dict[str, float]:
        """The power breakdown per component, in watts."""
        return self.power.stack()


class AnalyticalModel:
    """Top-level model: one profile, any number of configurations.

    Parameters
    ----------
    entropy_model:
        Branch predictor miss-rate model; defaults to the generic linear
        entropy fit.
    mlp_model:
        MLP estimator: ``"stride"``, ``"cold"`` or ``"none"``.
    enable_llc_chaining / enable_mshr / enable_bus:
        Toggles for the corresponding interval-model penalty terms.
    cache:
        Optional :class:`~repro.core.interval.ModelCache` shared by the
        performance and activity derivations.  Purely a performance
        lever: predictions are bitwise identical with or without it.

    Examples
    --------
    >>> model = AnalyticalModel()                      # doctest: +SKIP
    >>> result = model.predict(profile, nehalem())     # doctest: +SKIP
    >>> result.cpi, result.power_watts                 # doctest: +SKIP
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
        self.interval = IntervalModel(
            entropy_model=entropy_model,
            mlp_model=mlp_model,
            enable_llc_chaining=enable_llc_chaining,
            enable_mshr=enable_mshr,
            enable_bus=enable_bus,
            cache=cache,
        )

    @property
    def cache(self) -> Optional[ModelCache]:
        """The attached :class:`ModelCache`, or ``None``."""
        return self.interval.cache

    @cache.setter
    def cache(self, value: Optional[ModelCache]) -> None:
        """Attach (or detach, with ``None``) a :class:`ModelCache`."""
        self.interval.cache = value

    def predict_performance(
        self, profile: ApplicationProfile, config: MachineConfig
    ) -> Prediction:
        """Performance-only prediction (skips the power backend).

        Parameters
        ----------
        profile:
            The application profile.
        config:
            The machine configuration.

        Returns
        -------
        Prediction
            Cycles, CPI stack and per-window breakdown.
        """
        return self.interval.predict(profile, config)

    def predict(
        self, profile: ApplicationProfile, config: MachineConfig
    ) -> ModelResult:
        """Full performance + power prediction for one pair.

        Parameters
        ----------
        profile:
            The application profile.
        config:
            The machine configuration.

        Returns
        -------
        ModelResult
            Performance, power, activity and energy metrics.
        """
        return self.predict_batch(profile, [config])[0]

    def predict_batch(
        self,
        profile: ApplicationProfile,
        configs: Sequence[MachineConfig],
    ) -> List[ModelResult]:
        """Full predictions for a whole config batch on one profile.

        The vectorized kernel (:func:`repro.core.batch.predict_model_batch`),
        the model's only evaluation path: bitwise identical to a
        per-configuration walk of the equations (the oracle in
        ``tests/reference/model.py``), and it leaves any attached
        :class:`ModelCache` in the state that walk would.  Kernel errors
        propagate to the caller.

        Parameters
        ----------
        profile:
            The application profile.
        configs:
            A sequence of configurations, or a prebuilt
            :class:`~repro.core.batch.BatchConfigs`.

        Returns
        -------
        list of ModelResult
            One result per configuration, in input order.
        """
        from repro.core.batch import predict_model_batch

        return predict_model_batch(self, profile, configs)
