"""Design-space sweep results and error statistics (thesis §6.2.4, §6.3.2).

:class:`DesignPoint` is one evaluated (workload, configuration) pair as
streamed by :class:`~repro.explore.engine.SweepEngine`; the helpers
here pick optima from a sweep and score predictions against a
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.machine import MachineConfig
from repro.core.model import ModelResult


@dataclass
class DesignPoint:
    """One (workload, configuration) evaluation.

    Attributes
    ----------
    workload:
        Name of the profiled application.
    config:
        The machine configuration evaluated.
    result:
        The full :class:`~repro.core.model.ModelResult` prediction.
    """

    workload: str
    config: MachineConfig
    result: ModelResult

    @property
    def cpi(self) -> float:
        """Predicted cycles per instruction."""
        return self.result.cpi

    @property
    def seconds(self) -> float:
        """Predicted wall-clock execution time in seconds."""
        return self.result.seconds

    @property
    def power_watts(self) -> float:
        """Predicted average power draw in watts."""
        return self.result.power_watts

    @property
    def energy_joules(self) -> float:
        """Predicted total energy in joules."""
        return self.result.energy_joules

    @property
    def edp(self) -> float:
        """Predicted energy-delay product."""
        return self.result.edp

    @property
    def ed2p(self) -> float:
        """Predicted energy-delay-squared product."""
        return self.result.ed2p


def best_config_per_workload(
    results: Dict[str, List[DesignPoint]],
    metric: Callable[[DesignPoint], float] = lambda p: p.cpi,
) -> Dict[str, DesignPoint]:
    """The application-specific optimum per workload (thesis Fig 7.2).

    Parameters
    ----------
    results:
        Per-workload design points from a sweep.
    metric:
        Scalar to minimize per point; defaults to CPI.

    Returns
    -------
    dict of str to DesignPoint
        The metric-minimizing point for each workload.
    """
    return {
        workload: min(points, key=metric)
        for workload, points in results.items()
    }


def best_average_config(
    results: Dict[str, List[DesignPoint]],
    metric: Callable[[DesignPoint], float] = lambda p: p.cpi,
) -> str:
    """The general-purpose core: best average metric across workloads.

    All workloads must have been evaluated over the same configuration
    list (as :meth:`~repro.explore.engine.SweepEngine.sweep` guarantees).

    Parameters
    ----------
    results:
        Per-workload design points, all over the same config list.
    metric:
        Scalar to average and minimize; defaults to CPI.

    Returns
    -------
    str
        The winning configuration's name.

    Raises
    ------
    ValueError
        If ``results`` is empty or the workloads were evaluated over
        differently-sized spaces.
    """
    if not results:
        raise ValueError("no design-space results")
    workloads = list(results)
    n_configs = len(results[workloads[0]])
    for workload in workloads:
        if len(results[workload]) != n_configs:
            raise ValueError("workloads evaluated over different spaces")
    averages = []
    for index in range(n_configs):
        total = sum(metric(results[w][index]) for w in workloads)
        averages.append(total / len(workloads))
    best = min(range(n_configs), key=lambda i: averages[i])
    return results[workloads[0]][best].config.name


@dataclass
class ErrorStats:
    """Absolute-relative-error summary across a set of pairs.

    Attributes
    ----------
    mean / maximum:
        Mean and maximum absolute relative error.
    count:
        Number of pairs with a nonzero reference.
    per_item:
        ``(label, error)`` per contributing pair.
    """

    mean: float
    maximum: float
    count: int
    per_item: List[Tuple[str, float]] = field(default_factory=list)


def error_statistics(
    predicted: Sequence[float],
    reference: Sequence[float],
    labels: Optional[Sequence[str]] = None,
) -> ErrorStats:
    """Mean/max absolute relative error of predictions vs references.

    Parameters
    ----------
    predicted / reference:
        Aligned value sequences; pairs with a zero reference are
        skipped.
    labels:
        Optional per-pair labels for :attr:`ErrorStats.per_item`.

    Returns
    -------
    ErrorStats
        The error summary.

    Raises
    ------
    ValueError
        If the sequences have different lengths.
    """
    if len(predicted) != len(reference):
        raise ValueError("length mismatch")
    errors: List[Tuple[str, float]] = []
    for index, (p, r) in enumerate(zip(predicted, reference)):
        if r == 0:
            continue
        label = labels[index] if labels else str(index)
        errors.append((label, abs(p - r) / abs(r)))
    if not errors:
        return ErrorStats(mean=0.0, maximum=0.0, count=0)
    values = [e for _, e in errors]
    return ErrorStats(
        mean=sum(values) / len(values),
        maximum=max(values),
        count=len(values),
        per_item=errors,
    )
