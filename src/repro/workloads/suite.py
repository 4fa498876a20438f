"""The 29-workload synthetic suite (SPEC CPU 2006 stand-in).

Each entry mirrors a SPEC CPU 2006 benchmark by name (suffixed ``_like``
nowhere -- the paper's figures are keyed by the SPEC names, so we keep them)
and is parameterized to land in the same qualitative region the thesis
reports for that benchmark:

* uops/instruction between ~1.05 and ~1.4 (Fig 3.1), via the fraction of
  load-op / op-store macro forms;
* dependence-chain length (Fig 3.4) via explicit register chains;
* memory behaviour (Fig 4.2 MPKI, Fig 4.7 stride categories) via working
  set size and address patterns (streaming stride, multi-stride, random,
  pointer chase, unique);
* branch predictability (Fig 3.9/3.10) via branch outcome patterns.

These are synthetic substitutes: absolute numbers will not match SPEC, but
the spread of behaviours exercises every model component the paper needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa import MacroOp
from repro.workloads.generator import (
    AluSpec,
    BranchSpec,
    KernelSpec,
    LoadSpec,
    Slot,
    StoreSpec,
    WorkloadSpec,
)

KB = 1024
MB = 1024 * KB


def _compute_chain(
    start_reg: int, length: int, op: MacroOp, feed_reg: int
) -> List[Slot]:
    """A serial dependence chain of ``length`` compute ops.

    The first op consumes ``feed_reg``; each subsequent op consumes its
    predecessor, producing a chain that sets the critical path.
    """
    body: List[Slot] = []
    prev = feed_reg
    for i in range(length):
        dst = start_reg + (i % 4)
        body.append(AluSpec(op=op, dst=dst, srcs=(prev,)))
        prev = dst
    return body


def _parallel_alus(n: int, op: MacroOp, base_reg: int) -> List[Slot]:
    """``n`` mutually independent compute ops (ILP filler)."""
    return [AluSpec(op=op, dst=base_reg + i, srcs=()) for i in range(n)]


def _body(
    *,
    loads: List[LoadSpec],
    chain_len: int = 2,
    chain_op: MacroOp = MacroOp.INT_ALU,
    ilp: int = 2,
    ilp_op: MacroOp = MacroOp.INT_ALU,
    load_op_forms: int = 0,
    stores: Optional[List[StoreSpec]] = None,
    divides: int = 0,
    fp_muls: int = 0,
    branches: Optional[List[BranchSpec]] = None,
    accumulate: bool = False,
) -> List[Slot]:
    """Assemble a kernel body from high-level ingredients.

    ``accumulate`` adds a loop-carried reduction (``acc = acc + x``) whose
    chain grows across iterations, producing the long critical paths the
    thesis measures for compute benchmarks (Fig 3.4).
    """
    body: List[Slot] = []
    body.extend(loads)
    feed = loads[0].dst if loads else 1
    body.extend(_compute_chain(8, chain_len, chain_op, feed))
    if accumulate:
        body.append(AluSpec(op=chain_op, dst=15, srcs=(15, 8)))
    body.extend(_parallel_alus(ilp, ilp_op, 12))
    for i in range(load_op_forms):
        body.append(
            LoadSpec(
                dst=4 + (i % 2),
                pattern="stride",
                strides=(8,),
                region=8 * KB,
                base=0x900000 + i * 16 * KB,
                op=MacroOp.INT_ALU_LOAD,
            )
        )
    for i in range(fp_muls):
        body.append(AluSpec(op=MacroOp.FP_MUL, dst=6 + (i % 2), srcs=(8,)))
    for i in range(divides):
        body.append(AluSpec(op=MacroOp.DIV, dst=7, srcs=(9,)))
    body.extend(stores or [])
    body.extend(branches or [])
    body.append(BranchSpec(pattern="loop"))
    return body


def _streaming(name: str, region: int, stride: int, fp: bool, seed: int) -> WorkloadSpec:
    """Streaming kernels: long unit/large-stride scans over a big array."""
    body = _body(
        loads=[
            LoadSpec(dst=1, pattern="stride", strides=(stride,),
                     region=region, base=0x100000),
            LoadSpec(dst=2, pattern="stride", strides=(stride,),
                     region=region, base=0x100000 + region),
        ],
        chain_len=3,
        chain_op=MacroOp.FP_ALU if fp else MacroOp.INT_ALU,
        ilp=3,
        fp_muls=2 if fp else 0,
        load_op_forms=1,
        stores=[StoreSpec(pattern="stride", strides=(stride,),
                          region=region, base=0x100000 + 2 * region,
                          srcs=(8,))],
        accumulate=fp,
    )
    return WorkloadSpec(name=name, kernels=[KernelSpec(name, body)], seed=seed)


def _pointer_chase(name: str, region: int, chains: int, seed: int) -> WorkloadSpec:
    """Pointer-chasing kernels: dependent loads, low MLP, poor locality."""
    loads = [
        LoadSpec(dst=1 + i, pattern="chase", region=region,
                 base=0x200000 + i * region)
        for i in range(chains)
    ]
    body = _body(
        loads=loads,
        chain_len=4,
        ilp=1,
        load_op_forms=1,
        branches=[BranchSpec(pattern="random", taken_prob=0.4, srcs=(1,))],
    )
    return WorkloadSpec(name=name, kernels=[KernelSpec(name, body)], seed=seed)


def _fp_compute(name: str, chain_len: int, fp_muls: int, divides: int,
                ws: int, seed: int) -> WorkloadSpec:
    """FP compute kernels: long FP chains, cache-resident working set."""
    body = _body(
        loads=[LoadSpec(dst=1, pattern="stride", strides=(8,),
                        region=ws, base=0x300000,
                        op=MacroOp.FP_ALU_LOAD)],
        chain_len=chain_len,
        chain_op=MacroOp.FP_ALU,
        ilp=2,
        ilp_op=MacroOp.FP_MUL,
        fp_muls=fp_muls,
        divides=divides,
        stores=[StoreSpec(pattern="stride", strides=(8,), region=ws,
                          base=0x380000, srcs=(8,))],
        accumulate=True,
    )
    return WorkloadSpec(name=name, kernels=[KernelSpec(name, body)], seed=seed)


def _branchy_int(name: str, ws: int, entropy: float, multi: bool,
                 seed: int) -> WorkloadSpec:
    """Branchy integer kernels: random-ish branches, mixed locality."""
    strides = (8, 24, 8, 64) if multi else (16,)
    body = _body(
        loads=[
            LoadSpec(dst=1, pattern="multi_stride" if multi else "stride",
                     strides=strides, region=ws, base=0x400000),
            LoadSpec(dst=2, pattern="random", region=ws // 2,
                     base=0x500000),
        ],
        chain_len=2,
        ilp=3,
        load_op_forms=2,
        stores=[StoreSpec(pattern="random", region=ws // 4,
                          base=0x600000, srcs=(9,))],
        branches=[
            BranchSpec(pattern="random", taken_prob=entropy, srcs=(9,)),
            BranchSpec(pattern="periodic", period=3),
        ],
    )
    return WorkloadSpec(name=name, kernels=[KernelSpec(name, body)], seed=seed)


def _phased(name: str, seed: int) -> WorkloadSpec:
    """Two alternating kernels -> visible CPI phases (thesis §6.5)."""
    compute = KernelSpec(
        f"{name}.compute",
        _body(
            loads=[LoadSpec(dst=1, pattern="stride", strides=(8,),
                            region=16 * KB, base=0x700000)],
            chain_len=5,
            chain_op=MacroOp.FP_ALU,
            fp_muls=2,
        ),
        pc_base=0x7000,
    )
    memory = KernelSpec(
        f"{name}.memory",
        _body(
            loads=[
                LoadSpec(dst=1, pattern="stride", strides=(64,),
                         region=32 * MB, base=0x800000),
                LoadSpec(dst=2, pattern="stride", strides=(64,),
                         region=32 * MB, base=0x2800000),
            ],
            chain_len=1,
            ilp=2,
        ),
        pc_base=0x8000,
    )
    return WorkloadSpec(name=name, kernels=[compute, memory],
                        rounds=3, seed=seed)


#: Registry: benchmark name -> factory(seed) -> WorkloadSpec.
SUITE: Dict[str, object] = {
    # streaming / memory bandwidth bound
    "bwaves": lambda s: _streaming("bwaves", 24 * MB, 64, True, s),
    "lbm": lambda s: _streaming("lbm", 32 * MB, 64, True, s),
    "leslie3d": lambda s: _streaming("leslie3d", 16 * MB, 64, True, s),
    "libquantum": lambda s: _streaming("libquantum", 32 * MB, 64, False, s),
    "milc": lambda s: _streaming("milc", 24 * MB, 128, True, s),
    "GemsFDTD": lambda s: _streaming("GemsFDTD", 24 * MB, 192, True, s),
    "wrf": lambda s: _streaming("wrf", 8 * MB, 64, True, s),
    "zeusmp": lambda s: _streaming("zeusmp", 12 * MB, 64, True, s),
    # pointer chasing / latency bound
    "mcf": lambda s: _pointer_chase("mcf", 48 * MB, 1, s),
    "omnetpp": lambda s: _pointer_chase("omnetpp", 24 * MB, 2, s),
    "xalancbmk": lambda s: _pointer_chase("xalancbmk", 16 * MB, 2, s),
    "astar": lambda s: _phased("astar", s),
    "soplex": lambda s: _pointer_chase("soplex", 12 * MB, 3, s),
    # FP compute, cache resident
    "gamess": lambda s: _fp_compute("gamess", 6, 3, 0, 24 * KB, s),
    "gromacs": lambda s: _fp_compute("gromacs", 4, 2, 1, 32 * KB, s),
    "namd": lambda s: _fp_compute("namd", 3, 4, 0, 64 * KB, s),
    "povray": lambda s: _fp_compute("povray", 5, 2, 1, 48 * KB, s),
    "calculix": lambda s: _fp_compute("calculix", 7, 2, 0, 96 * KB, s),
    "dealII": lambda s: _fp_compute("dealII", 4, 3, 0, 192 * KB, s),
    "tonto": lambda s: _fp_compute("tonto", 5, 3, 1, 64 * KB, s),
    "sphinx3": lambda s: _fp_compute("sphinx3", 3, 2, 0, 512 * KB, s),
    "cactusADM": lambda s: _fp_compute("cactusADM", 9, 4, 0, 2 * MB, s),
    # branchy integer
    "bzip2": lambda s: _branchy_int("bzip2", 1 * MB, 0.35, True, s),
    "gcc": lambda s: _branchy_int("gcc", 4 * MB, 0.45, True, s),
    "gobmk": lambda s: _branchy_int("gobmk", 256 * KB, 0.5, False, s),
    "h264ref": lambda s: _branchy_int("h264ref", 512 * KB, 0.25, True, s),
    "hmmer": lambda s: _branchy_int("hmmer", 128 * KB, 0.1, False, s),
    "perlbench": lambda s: _branchy_int("perlbench", 2 * MB, 0.4, True, s),
    "sjeng": lambda s: _branchy_int("sjeng", 512 * KB, 0.4, False, s),
}


def workload_names() -> List[str]:
    """The 29 benchmark names, in a stable order."""
    return sorted(SUITE.keys())


def make_workload(name: str, seed: int = 42) -> WorkloadSpec:
    """Build the spec for one named workload."""
    try:
        factory = SUITE[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from {workload_names()}"
        ) from None
    return factory(seed)


def make_suite(seed: int = 42) -> List[WorkloadSpec]:
    """Build all 29 workload specs."""
    return [make_workload(name, seed) for name in workload_names()]
