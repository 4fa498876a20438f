"""Shared infrastructure for the experiment benchmarks.

Each benchmark file regenerates one table or figure from the paper
(see DESIGN.md section 3 and EXPERIMENTS.md).  Traces, profiles and
simulation results are memoized per session so experiments sharing
inputs do not recompute them.  Every experiment also writes its rows to
``benchmarks/results/`` so the artifacts survive pytest's capture.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import pytest

from repro.core import AnalyticalModel, nehalem
from repro.core.machine import MachineConfig
from repro.core.power import power_batch
from repro.profiler import SamplingConfig, profile_application
from repro.simulator import SimulationResult, simulate
from repro.workloads import Trace, generate_trace, make_workload

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Benchmark-scale knobs (small enough for laptop runs, large enough for
#: the qualitative shapes).
TRACE_LENGTH = 30_000
SHORT_TRACE_LENGTH = 10_000
SAMPLING = SamplingConfig(micro_trace_length=1000, window_length=5000)

_traces: Dict[Tuple[str, int], Trace] = {}
_profiles: Dict[Tuple[str, int], object] = {}
_simulations: Dict[Tuple[str, int, str], SimulationResult] = {}


def get_trace(name: str, length: int = TRACE_LENGTH) -> Trace:
    key = (name, length)
    if key not in _traces:
        _traces[key] = generate_trace(
            make_workload(name), max_instructions=length
        )
    return _traces[key]


def get_profile(name: str, length: int = TRACE_LENGTH):
    key = (name, length)
    if key not in _profiles:
        _profiles[key] = profile_application(get_trace(name, length),
                                             SAMPLING)
    return _profiles[key]


def get_simulation(
    name: str,
    config: MachineConfig = None,
    length: int = TRACE_LENGTH,
) -> SimulationResult:
    config = config or nehalem()
    key = (name, length, config.name)
    if key not in _simulations:
        _simulations[key] = simulate(get_trace(name, length), config)
    return _simulations[key]


def write_table(experiment: str, lines: List[str]) -> None:
    """Print an experiment's rows and persist them under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text = "\n".join(lines)
    print()
    print(text)
    with open(os.path.join(RESULTS_DIR, f"{experiment}.txt"), "w") as f:
        f.write(text + "\n")


#: Small design space shared by the DSE/Pareto experiments: 3 axes x 3
#: values = 27 cores (a slice of the paper's 243-core Table 6.3 space,
#: sized so the simulation ground truth stays laptop-friendly).
SMALL_SPACE_AXES = {
    "dispatch_width": (2, 4, 6),
    "rob_size": (64, 128, 256),
    "llc_mb": (2, 4, 8),
}
SPACE_WORKLOADS = ["gcc", "libquantum", "gamess"]

_space_data = {}


def get_space_data():
    """(workload -> [(config, sim, model_result)]) over the small space."""
    if _space_data:
        return _space_data
    from repro.core.machine import design_space

    configs = design_space(SMALL_SPACE_AXES)
    model = AnalyticalModel()
    for name in SPACE_WORKLOADS:
        trace = get_trace(name, SHORT_TRACE_LENGTH)
        profile = get_profile(name, SHORT_TRACE_LENGTH)
        rows = []
        for config in configs:
            sim = get_simulation(name, config, SHORT_TRACE_LENGTH)
            rows.append((config, sim, model.predict(profile, config)))
        _space_data[name] = rows
    return _space_data


def simulated_watts(rows):
    """Total watts at the measured activity of each ``(config, sim,
    model_result)`` row of one workload.

    One power-kernel call prices the whole workload: its simulations
    replay one trace, so their activities name the same uop kinds.
    """
    breakdowns, _, _, _ = power_batch(
        [config for config, _, _ in rows],
        [sim.activity for _, sim, _ in rows],
    )
    return [breakdown.total for breakdown in breakdowns]


@pytest.fixture
def model():
    return AnalyticalModel()


@pytest.fixture
def reference():
    return nehalem()
