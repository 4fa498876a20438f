"""Branch misprediction penalty (thesis §3.5, Algorithm 3.2).

The penalty of one misprediction is the branch *resolution time* plus the
fixed front-end refill.  The resolution time depends on how full the ROB
is when the mispredicted branch dispatches, which the 'leaky bucket'
algorithm of Michaud et al. estimates: instructions enter at the dispatch
width and leave at the independent-instruction rate
``I(ROB) = ROB / (lat * CP(ROB))`` (thesis Eq 3.6) until the interval's
useful instructions are exhausted; the branch then resolves after
``lat * ABP(ROB_occupancy)`` cycles.

The bucket is stepped one dispatch group at a time, but the result
depends only on ``int(occupancy)`` when the interval runs out, and the
occupancy sequence does not depend on how many uops remain.  So the loop
stops as soon as ``int(occupancy)`` can no longer change, which bounds
its cost independently of the interval length.  Each exit is exact:

* **Fixed point.**  A step that leaves the occupancy unchanged will leave
  it unchanged forever.  This covers the ROB-saturated regime: after its
  first clamp to the ROB size the occupancy is ``ROB - leave(ROB)``
  every step.  It also covers a trajectory above its limit, where
  ``leave`` is clamped to the width and one rounding step reaches a
  fixed point.
* **Rising inside the cell of its limit.**  While ``occupancy + width``
  stays in one integer cell ``k`` below the ROB size, a step depends only
  on ``L = lat * CP(k)``.  It never lowers the occupancy, and it never
  lifts it above ``limit = width * (L - 1)``, the fixed point of the
  contraction ``occ' = (occ + width) * (1 - 1/L)`` that the step follows
  once ``leave`` is not clamped; there ``occupancy + width`` reaches
  ``width * lat * CP(k)``.  Rounding moves a step by at most
  ``3 * eps * ROB``, and the contraction keeps that from growing past
  ``L`` times as much.  So once ``[occupancy, limit]``, widened by
  :data:`_MARGIN`, lies in one integer cell of the occupancy, in cell
  ``k`` of ``occupancy + width`` and below the ROB clamp, no later step
  can change ``int(occupancy)``.  The margin is over a thousand times the
  rounding bound; a limit closer than that to a cell edge keeps stepping.
* **Iteration bound.**  Every step removes at least one uop from the
  interval (``leave >= 1`` keeps a clamped step's intake at one or
  more), so on any interval below ``2**53`` uops the loop ends before
  ``int(remaining) + ROB + 16`` steps; the bound stays as a backstop.

``tests/reference/branch.py`` keeps the plain loop as the oracle this
function must match bitwise.
"""

from __future__ import annotations

from repro.core.machine import MachineConfig
from repro.profiler.dependences import DependenceChains

#: Rounding margin of the rising exit, per uop of ROB and per unit of
#: ``L``: more than a thousand times the ``3 * 2**-53`` bound.
_MARGIN = 2.0 ** -40


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
    remaining = float(max(instructions_per_interval, 0.0))
    occupancy = 0.0
    cp_at = chains.cp.at

    max_iterations = int(remaining) + config.rob_size + 16
    iterations = 0
    while remaining > dispatch_width and iterations < max_iterations:
        iterations += 1
        if occupancy + dispatch_width <= rob_size:
            remaining -= dispatch_width
            entered = occupancy + dispatch_width
        else:
            remaining -= rob_size - occupancy
            entered = rob_size
        window = max(entered, 1.0)
        cell = int(window)
        scale = average_latency * max(cp_at(cell), 1.0)  # L = lat * CP(k)
        leave = max(min(window / scale, dispatch_width), 1.0)
        left = max(0.0, entered - leave)
        if left == occupancy:
            break  # fixed point
        occupancy = left

        limit = dispatch_width * (scale - 1.0)
        if occupancy <= limit:
            margin = _MARGIN * (rob_size + dispatch_width) * scale
            low = occupancy - margin
            high = limit + 2.0 * margin
            if (low >= 0.0 and int(low) == int(high)
                    and int(low + dispatch_width) == cell
                    and int(high + dispatch_width) == cell
                    and high + dispatch_width <= rob_size):
                break  # rising inside the integer cell of its limit

    abp = max(chains.abp.at(max(int(occupancy), 1)), 1.0)
    return average_latency * abp
