"""Per-uop oracle of the cycle-level simulator, kept verbatim.

The package simulator (:mod:`repro.simulator.simulator`) computes the
timing-independent outcomes -- I-cache and D-cache hit levels, branch
predictions -- once per (trace, key) and then runs a columnar timing
core.  This module keeps the former simulator that walked
``Instruction`` objects and accessed its caches and predictor inline,
one uop at a time, on state held by the :class:`Simulator` instance.
The package simulator must reproduce every
:class:`~repro.simulator.simulator.SimulationResult` field bitwise
(``tests/test_simulator.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.caches.cache import CacheHierarchy
from repro.caches.mshr import MSHRFile
from repro.caches.prefetcher import StridePrefetcher
from repro.core.machine import MachineConfig, NON_PIPELINED
from repro.core.power import ActivityVector
from repro.frontend.predictors import BranchPredictor, make_predictor
from repro.isa import UopKind, crack
from repro.simulator.simulator import STACK_KEYS, SimulationResult
from repro.workloads.trace import Trace


class _PortTracker:
    """Issue-port occupancy: one uop per port per cycle."""

    def __init__(self, num_ports: int) -> None:
        self._busy: List[Dict[int, int]] = [dict() for _ in range(num_ports)]

    def earliest(self, port: int, cycle: int) -> int:
        busy = self._busy[port]
        while busy.get(cycle, 0) >= 1:
            cycle += 1
        return cycle

    def reserve(self, port: int, cycle: int) -> None:
        busy = self._busy[port]
        busy[cycle] = busy.get(cycle, 0) + 1
        # Trim old entries occasionally to bound memory.
        if len(busy) > 65536:
            cutoff = cycle - 1024
            for key in [k for k in busy if k < cutoff]:
                del busy[key]


class Simulator:
    """One simulation context (machine + workload state)."""

    def __init__(
        self,
        config: MachineConfig,
        perfect_frontend: bool = False,
        perfect_caches: bool = False,
    ) -> None:
        self.config = config
        self.perfect_frontend = perfect_frontend
        self.perfect_caches = perfect_caches

        self.dcache = CacheHierarchy(
            config.cache_levels(), dram_latency=config.dram_latency
        )
        self.icache = CacheHierarchy(
            [config.l1i, config.l2, config.llc],
            dram_latency=config.dram_latency,
        )
        self.mshr = MSHRFile(config.mshr_entries,
                             line_size=config.l1d.line_size)
        self.predictor: BranchPredictor = make_predictor(config.predictor)
        self.prefetcher: Optional[StridePrefetcher] = (
            StridePrefetcher(
                table_entries=config.prefetch_table,
                page_size=config.dram_page_bytes,
                degree=config.prefetch_degree,
            )
            if config.prefetch else None
        )
        # line -> cycle at which an in-flight prefetch delivers the data.
        self._pending_prefetch: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def _port_for(self, kind: UopKind) -> List[int]:
        return [
            index
            for index, port in enumerate(self.config.ports)
            if kind in port.kinds
        ]

    def run(self, trace: Trace, window_instructions: int = 10_000
            ) -> SimulationResult:
        config = self.config
        width = config.dispatch_width
        rob_size = config.rob_size
        latencies = config.latencies()

        ports = _PortTracker(len(config.ports))
        nonpipe_free: Dict[UopKind, int] = {k: 0 for k in NON_PIPELINED}
        reg_ready: Dict[int, int] = {}
        # Per-channel DRAM bus cursors; each transfer occupies the
        # earliest-free channel for bus_transfer_cycles.
        bus_channels = [0] * max(1, config.memory_channels)

        def reserve_bus(request: int) -> int:
            channel = min(range(len(bus_channels)),
                          key=lambda i: bus_channels[i])
            slot = max(bus_channels[channel], request)
            bus_channels[channel] = slot + config.bus_transfer_cycles
            return slot

        # Ring buffers over the last `rob_size` (commit) and `width`
        # (dispatch/commit bandwidth) uops.
        commit_ring = [0] * rob_size
        dispatch_band = [0] * width
        commit_band = [0] * width

        fe_time = 0.0          # next fetch availability (front-end)
        fe_cause = None        # why the front-end is behind ('branch'/'icache')
        last_dispatch = 0
        last_commit = 0
        uop_index = 0

        stack = {key: 0.0 for key in STACK_KEYS}
        branch_misses = 0
        branches = 0
        llc_load_misses = 0

        window_cpi: List[Tuple[int, float]] = []
        window_start_cycle = 0.0

        uop_kind_counts: Dict[UopKind, float] = {}

        for instr_index, instr in enumerate(trace):
            # ---- Front end: I-cache, branch redirect --------------------
            if not self.perfect_frontend:
                result = self.icache.access(instr.pc, is_write=False)
                if result.hit_level != 1:
                    fe_time += result.latency
                    fe_cause = "icache"

            uops = crack(instr.op)
            mem_done: Optional[int] = None  # completion of this instr's load
            for position, kind in enumerate(uops):
                uop_kind_counts[kind] = uop_kind_counts.get(kind, 0.0) + 1

                # ---- Dispatch ------------------------------------------
                band_slot = dispatch_band[uop_index % width] + 1
                rob_slot = commit_ring[uop_index % rob_size]
                dispatch = max(
                    int(fe_time), last_dispatch, band_slot, rob_slot
                )
                # Front-end-bound dispatch inherits the redirect cause.
                cause = None
                if int(fe_time) > max(last_dispatch, band_slot, rob_slot):
                    cause = fe_cause
                dispatch_band[uop_index % width] = dispatch
                last_dispatch = dispatch

                # ---- Register readiness --------------------------------
                ready = dispatch
                if position == 0:
                    for src in (instr.src1, instr.src2):
                        if src >= 0:
                            ready = max(ready, reg_ready.get(src, 0))
                else:
                    # Second uop of a cracked instruction depends on the
                    # first (load-op) and on register sources.
                    for src in (instr.src1, instr.src2):
                        if src >= 0:
                            ready = max(ready, reg_ready.get(src, 0))
                    if mem_done is not None:
                        ready = max(ready, mem_done)

                # ---- Issue: port + functional unit ---------------------
                serving = self._port_for(kind)
                if serving:
                    best_port = None
                    best_cycle = None
                    for port in serving:
                        cycle = ports.earliest(port, ready)
                        if best_cycle is None or cycle < best_cycle:
                            best_cycle = cycle
                            best_port = port
                    issue = best_cycle
                    ports.reserve(best_port, issue)
                else:
                    issue = ready
                if kind in NON_PIPELINED:
                    issue = max(issue, nonpipe_free[kind])
                    nonpipe_free[kind] = issue + latencies[kind]

                # ---- Execute / memory ----------------------------------
                latency = latencies[kind]
                uop_cause = None
                if kind is UopKind.LOAD and not self.perfect_caches:
                    access = self.dcache.access(instr.addr, is_write=False)
                    if access.hit_level == 0:
                        llc_load_misses += 1
                        # Two-phase MSHR: the bus slot is scheduled from
                        # the cycle the entry actually starts, so waiting
                        # misses do not accumulate stale bus queueing.
                        start, coalesced = self.mshr.acquire(
                            instr.addr, issue
                        )
                        if coalesced is not None:
                            completion = coalesced
                        else:
                            request = start + config.llc.latency
                            slot = reserve_bus(request)
                            done = (
                                slot + config.bus_transfer_cycles
                                + config.dram_latency
                            )
                            self.mshr.install(instr.addr, done)
                            completion = done
                        uop_cause = "dram"
                    else:
                        hit_latency = access.latency
                        completion = issue + hit_latency
                        line = instr.addr // config.l1d.line_size
                        arriving = self._pending_prefetch.get(line)
                        if arriving is not None:
                            if arriving > issue:
                                # Prefetch in flight: wait for the data
                                # (Eq 4.13 timeliness, simulator side).
                                completion = max(completion, arriving)
                                uop_cause = "dram"
                            else:
                                del self._pending_prefetch[line]
                        if access.hit_level == len(self.dcache.levels):
                            uop_cause = "llc"
                    if self.prefetcher is not None:
                        for target in self.prefetcher.train(
                            instr.pc, instr.addr
                        ):
                            # Prefetches allocate MSHRs like demand misses
                            # and are dropped when the file is full; lines
                            # already on chip are not re-fetched.
                            if self.dcache.llc.lookup(target):
                                continue
                            if self.mshr.occupancy(issue) >= (
                                self.mshr.num_entries
                            ):
                                break
                            start, coalesced = self.mshr.acquire(
                                target, issue
                            )
                            if coalesced is not None:
                                continue
                            slot = reserve_bus(
                                start + config.llc.latency
                            )
                            done = (
                                slot + config.bus_transfer_cycles
                                + config.dram_latency
                            )
                            self.mshr.install(target, done)
                            self.dcache.access(target, is_prefetch=True)
                            self._pending_prefetch[
                                target // config.l1d.line_size
                            ] = done
                elif kind is UopKind.LOAD:
                    completion = issue + latency
                elif kind is UopKind.STORE and not self.perfect_caches:
                    access = self.dcache.access(instr.addr, is_write=True)
                    if access.hit_level == 0:
                        # Store miss: consumes bus bandwidth, no stall.
                        # Anchored at dispatch (store-buffer drain is
                        # roughly program-ordered); a data-dependent issue
                        # time must not reserve far-future bus slots that
                        # would block earlier loads.
                        reserve_bus(dispatch + config.llc.latency)
                    completion = issue + latency
                else:
                    completion = issue + latency

                # ---- Branch resolution ---------------------------------
                if kind is UopKind.BRANCH:
                    branches += 1
                    correct = (
                        True if self.perfect_frontend
                        else self.predictor.predict_and_update(
                            instr.pc, instr.taken
                        )
                    )
                    if not correct:
                        branch_misses += 1
                        fe_time = completion + config.frontend_refill
                        fe_cause = "branch"

                # ---- Commit (in order, width per cycle) -----------------
                commit = max(
                    completion,
                    last_commit,
                    commit_band[uop_index % width] + 1,
                )
                gap = commit - last_commit if uop_index > 0 else commit

                # Attribute the commit gap to the committing uop's cause.
                if gap > 0:
                    attributed = uop_cause or cause or "base"
                    # One dispatch slot's worth is inherent (base).
                    inherent = min(gap, 1.0 / width)
                    stack["base"] += inherent
                    extra = gap - inherent
                    if extra > 0:
                        key = attributed if attributed in stack else "base"
                        stack[key] += extra

                commit_band[uop_index % width] = commit
                commit_ring[uop_index % rob_size] = commit
                last_commit = commit

                if instr.dst >= 0 and (
                    position == len(uops) - 1
                    or (kind is UopKind.LOAD and len(uops) == 1)
                ):
                    reg_ready[instr.dst] = completion
                if kind is UopKind.LOAD and position == 0 and len(uops) > 1:
                    mem_done = completion
                    # Load-op forms: the load's result feeds the ALU uop,
                    # but the architectural dst is written by the ALU uop.

                uop_index += 1

            # ---- Per-window CPI ------------------------------------------
            if (instr_index + 1) % window_instructions == 0:
                cycles_here = last_commit - window_start_cycle
                window_cpi.append(
                    (instr_index + 1 - window_instructions,
                     cycles_here / window_instructions)
                )
                window_start_cycle = last_commit

        total_cycles = float(last_commit)
        activity = ActivityVector(
            cycles=total_cycles,
            uops=float(uop_index),
            uop_kind_counts=uop_kind_counts,
            l1_accesses=float(
                self.dcache.levels[0].stats.accesses
                + self.icache.levels[0].stats.accesses
            ),
            l2_accesses=float(
                self.dcache.levels[1].stats.accesses
                + self.icache.levels[1].stats.accesses
            ),
            llc_accesses=float(
                self.dcache.levels[2].stats.accesses
                + self.icache.levels[2].stats.accesses
            ),
            dram_accesses=float(
                self.dcache.dram_accesses + self.icache.dram_accesses
            ),
            branch_lookups=float(branches),
        )
        return SimulationResult(
            config_name=self.config.name,
            workload=trace.name,
            cycles=total_cycles,
            instructions=len(trace),
            uops=uop_index,
            stack=stack,
            activity=activity,
            branch_mispredictions=branch_misses,
            branches=branches,
            llc_load_misses=llc_load_misses,
            dram_accesses=self.dcache.dram_accesses,
            mpki=self.dcache.mpki(len(trace)),
            window_cpi=window_cpi,
            frequency_ghz=self.config.frequency_ghz,
        )


def simulate(
    trace: Trace,
    config: MachineConfig,
    perfect_frontend: bool = False,
    perfect_caches: bool = False,
    window_instructions: int = 10_000,
) -> SimulationResult:
    """Convenience: run one simulation with a fresh machine state."""
    simulator = Simulator(
        config,
        perfect_frontend=perfect_frontend,
        perfect_caches=perfect_caches,
    )
    return simulator.run(trace, window_instructions=window_instructions)
