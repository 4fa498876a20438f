"""The paper's primary contribution: the micro-architecture independent
analytical performance and power model.

Usage sketch::

    from repro.workloads import make_workload, generate_trace
    from repro.profiler import profile_application
    from repro.core import AnalyticalModel, design_space, nehalem

    trace = generate_trace(make_workload("gcc"), max_instructions=100_000)
    profile = profile_application(trace)          # one-time cost
    model = AnalyticalModel()
    prediction = model.predict(profile, nehalem())  # a one-config batch
    print(prediction.cpi, prediction.cpi_stack, prediction.power_watts)
    results = model.predict_batch(profile, design_space())  # 243 configs

Every prediction runs the batched kernel (:mod:`repro.core.batch`); a
config batch costs far less per config than one config alone.
"""

from repro.core.machine import (
    DVFSPoint,
    MachineConfig,
    PortSpec,
    config_from_params,
    design_space,
    dvfs_points,
    low_power_core,
    nehalem,
)
from repro.core.dispatch import (
    DispatchLimits,
    effective_dispatch_rate,
    schedule_ports,
)
from repro.core.branch import branch_resolution_time
from repro.core.mlp import (
    cold_miss_mlp,
    stride_mlp,
    VirtualStream,
    build_virtual_stream,
)
from repro.core.memory_model import llc_chain_penalty, mshr_soft_cap
from repro.core.interval import IntervalModel, ModelCache, Prediction
from repro.core.power import ActivityVector, PowerBreakdown, power_batch
from repro.core.model import AnalyticalModel
from repro.core.batch import BatchConfigs

__all__ = [
    "DVFSPoint",
    "MachineConfig",
    "PortSpec",
    "config_from_params",
    "design_space",
    "dvfs_points",
    "low_power_core",
    "nehalem",
    "DispatchLimits",
    "effective_dispatch_rate",
    "schedule_ports",
    "branch_resolution_time",
    "cold_miss_mlp",
    "stride_mlp",
    "VirtualStream",
    "build_virtual_stream",
    "llc_chain_penalty",
    "mshr_soft_cap",
    "IntervalModel",
    "ModelCache",
    "Prediction",
    "ActivityVector",
    "PowerBreakdown",
    "power_batch",
    "AnalyticalModel",
    "BatchConfigs",
]
