"""The micro-architecture independent profiler (AIP substitute).

One profiling pass over a trace produces an :class:`ApplicationProfile`
holding only micro-architecture independent statistics: micro-op mixes,
dependence chain lengths over a grid of window sizes, linear branch
entropy, reuse distances, cold-miss window distributions and per-static-
load stride/spacing/dependence distributions.  Every model input for any
core configuration is later *derived* from this single profile.
"""

from repro.profiler.sampling import SamplingConfig, iter_micro_traces
from repro.profiler.mix import UopMix, profile_mix
from repro.profiler.dependences import (
    ChainProfile,
    DependenceChains,
    profile_dependence_chains,
)
from repro.profiler.memory import (
    ColdMissProfile,
    MicroTraceMemoryProfile,
    StaticLoadProfile,
    classify_strides,
    profile_cold_misses,
    profile_micro_trace_memory,
)
from repro.profiler.profile import (
    ApplicationProfile,
    MicroTraceProfile,
    profile_application,
)

__all__ = [
    "SamplingConfig",
    "iter_micro_traces",
    "UopMix",
    "profile_mix",
    "ChainProfile",
    "DependenceChains",
    "profile_dependence_chains",
    "ColdMissProfile",
    "MicroTraceMemoryProfile",
    "StaticLoadProfile",
    "classify_strides",
    "profile_cold_misses",
    "profile_micro_trace_memory",
    "ApplicationProfile",
    "MicroTraceProfile",
    "profile_application",
]
