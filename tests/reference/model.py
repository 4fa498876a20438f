"""Scalar oracle of :meth:`repro.core.model.AnalyticalModel.predict_batch`.

The batched kernel must match a plain per-config :meth:`predict` loop
bitwise, results and :class:`~repro.core.interval.ModelCache` state
alike.  :class:`ScalarModel` routes engines and searches through that
loop, so whole sweeps and search trajectories can be pinned too.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.batch import BatchConfigs
from repro.core.machine import MachineConfig
from repro.core.model import AnalyticalModel, ModelResult
from repro.profiler.profile import ApplicationProfile


def predict_batch_scalar(
    model: AnalyticalModel,
    profile: ApplicationProfile,
    configs: Sequence[MachineConfig],
) -> List[ModelResult]:
    """``model.predict`` per configuration, in input order."""
    if isinstance(configs, BatchConfigs):
        configs = configs.configs
    return [model.predict(profile, config) for config in configs]


class ScalarModel(AnalyticalModel):
    """An :class:`AnalyticalModel` whose batches run the scalar loop."""

    def predict_batch(self, profile, configs):
        """Evaluate ``configs`` with :func:`predict_batch_scalar`."""
        return predict_batch_scalar(self, profile, configs)
