"""Empirical (black-box regression) baseline model (thesis §7.5).

The thesis compares its mechanistic model against an empirical model
trained on simulation results.  This module implements that baseline as
polynomial ridge regression over configuration + workload features using
``numpy.linalg`` (the available offline substitute for sklearn).

The expected outcome -- which the thesis reports and our benches verify --
is that the empirical model predicts *average* performance/power well but
tracks per-design trends (and hence Pareto fronts) worse than the
mechanistic model unless trained on a dense sample of the same space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.machine import MachineConfig
from repro.profiler.profile import ApplicationProfile
from repro.isa import UopKind


def config_features(config: MachineConfig) -> List[float]:
    """Numeric features of a machine configuration.

    Parameters
    ----------
    config:
        The machine configuration to featurize.

    Returns
    -------
    list of float
        Width, log-sizes, frequency and MSHR count.
    """
    return [
        float(config.dispatch_width),
        float(np.log2(config.rob_size)),
        float(np.log2(config.l1d.size_bytes)),
        float(np.log2(config.l2.size_bytes)),
        float(np.log2(config.llc.size_bytes)),
        float(config.frequency_ghz),
        float(config.mshr_entries),
    ]


def workload_features(profile: ApplicationProfile) -> List[float]:
    """Numeric micro-architecture independent workload features.

    Parameters
    ----------
    profile:
        The application profile to featurize.

    Returns
    -------
    list of float
        Mix fractions, chain lengths, branch entropy and StatStack
        miss ratios at three cache sizes.
    """
    mix = profile.mix
    statstack = profile.statstack()
    mb = 1024 * 1024
    return [
        mix.uops_per_instruction,
        mix.load_fraction,
        mix.store_fraction,
        mix.branch_fraction,
        profile.chains.cp.at(128),
        profile.chains.ap.at(128),
        profile.branch_entropy.at(12),
        statstack.miss_ratio(32 * 1024, kind="load"),
        statstack.miss_ratio(256 * 1024, kind="load"),
        statstack.miss_ratio(8 * mb, kind="load"),
    ]


@dataclass
class EmpiricalModel:
    """Ridge regression with quadratic interaction features.

    Trained on (profile, config) -> target tuples; the target is
    typically simulated CPI or power.
    """

    ridge: float = 1e-3
    _weights: Optional[np.ndarray] = None
    _mean: Optional[np.ndarray] = None
    _std: Optional[np.ndarray] = None

    def _raw_features(
        self, profile: ApplicationProfile, config: MachineConfig
    ) -> np.ndarray:
        return np.array(
            workload_features(profile) + config_features(config),
            dtype=np.float64,
        )

    def _expand(self, x: np.ndarray) -> np.ndarray:
        """Standardized linear + pairwise interaction features + bias."""
        z = (x - self._mean) / self._std
        pairs = np.outer(z, z)[np.triu_indices(len(z))]
        return np.concatenate([[1.0], z, pairs])

    def fit(
        self,
        samples: Sequence[Tuple[ApplicationProfile, MachineConfig, float]],
    ) -> "EmpiricalModel":
        """Least-squares fit with L2 regularization.

        Parameters
        ----------
        samples:
            ``(profile, config, target)`` training triples; at least 3.

        Returns
        -------
        EmpiricalModel
            ``self``, fitted.

        Raises
        ------
        ValueError
            With fewer than 3 samples.
        """
        if len(samples) < 3:
            raise ValueError("need at least 3 training samples")
        raw = np.array(
            [self._raw_features(p, c) for p, c, _ in samples]
        )
        self._mean = raw.mean(axis=0)
        self._std = raw.std(axis=0)
        self._std[self._std == 0.0] = 1.0
        design = np.array([self._expand(x) for x in raw])
        targets = np.array([t for _, _, t in samples])
        n_features = design.shape[1]
        gram = design.T @ design + self.ridge * np.eye(n_features)
        self._weights = np.linalg.solve(gram, design.T @ targets)
        return self

    def predict(
        self, profile: ApplicationProfile, config: MachineConfig
    ) -> float:
        """Predict the fitted target for one (profile, config) pair.

        Parameters
        ----------
        profile / config:
            The pair to evaluate.

        Returns
        -------
        float
            The regression prediction.

        Raises
        ------
        RuntimeError
            If the model has not been fitted.
        """
        if self._weights is None:
            raise RuntimeError("model not fitted")
        x = self._raw_features(profile, config)
        return float(self._expand(x) @ self._weights)
