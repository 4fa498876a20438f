"""Branch misprediction penalty (thesis §3.5, Algorithm 3.2).

The penalty of one misprediction is the branch *resolution time* plus the
fixed front-end refill.  The resolution time depends on how full the ROB
is when the mispredicted branch dispatches, which the 'leaky bucket'
algorithm of Michaud et al. estimates: instructions enter at the dispatch
width and leave at the independent-instruction rate I(ROB) until the
interval's useful instructions are exhausted; the branch then resolves
after ``lat * ABP(ROB_occupancy)`` cycles.
"""

from __future__ import annotations

from repro.core.machine import MachineConfig
from repro.profiler.dependences import DependenceChains


def _independent_instructions(
    chains: DependenceChains, rob_occupancy: float, average_latency: float
) -> float:
    """I(ROB) = ROB / (lat * CP(ROB)) (thesis Eq 3.6)."""
    occupancy = max(rob_occupancy, 1.0)
    cp = max(chains.cp.at(int(occupancy)), 1.0)
    return occupancy / (average_latency * cp)


def branch_resolution_time(
    chains: DependenceChains,
    average_latency: float,
    instructions_per_interval: float,
    config: MachineConfig,
) -> float:
    """Algorithm 3.2: resolution time of a mispredicted branch.

    ``instructions_per_interval`` is the number of (useful) uops between
    two mispredictions.  Returns cycles from dispatch to execution of the
    branch.
    """
    dispatch_width = float(config.dispatch_width)
    rob_size = float(config.rob_size)
    remaining = max(instructions_per_interval, 0.0)
    occupancy = 0.0

    # The loop always terminates: each iteration removes at least
    # ``leave >= some positive amount`` from ``remaining`` via the
    # enter/leave cycle, and we additionally bound the iteration count.
    max_iterations = int(remaining / max(1.0, 1.0)) + config.rob_size + 16
    iterations = 0
    while remaining > dispatch_width and iterations < max_iterations:
        iterations += 1
        if occupancy + dispatch_width <= rob_size:
            remaining -= dispatch_width
            occupancy += dispatch_width
        else:
            entered = rob_size - occupancy
            remaining -= entered
            occupancy = rob_size
        leave = min(
            _independent_instructions(chains, occupancy, average_latency),
            dispatch_width,
        )
        leave = max(leave, 1.0)  # guard against stagnation
        occupancy = max(0.0, occupancy - leave)

    abp = max(chains.abp.at(max(int(occupancy), 1)), 1.0)
    return average_latency * abp

