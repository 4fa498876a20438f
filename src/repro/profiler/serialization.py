"""Profile serialization: save/load ApplicationProfiles as JSON.

The paper's AIP tool persists profiles (protobuf) so the one-time
profiling cost is paid literally once -- later design-space studies load
the profile from disk.  This module provides the same workflow with JSON
(the offline-friendly substitute): ``save_profile`` / ``load_profile``
round-trip every statistic the model consumes.

It also provides the content-addressed :class:`ProfileStore`, an
on-disk archive of profiles keyed by a SHA-256 fingerprint of their
canonical JSON form.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from typing import Any, Dict, IO, Union

from repro import obs
from repro.faults.atomic import atomic_write
from repro.frontend.entropy import BranchEntropyProfile
from repro.profiler.dependences import ChainProfile, DependenceChains
from repro.profiler.memory import (
    ColdMissProfile,
    MicroTraceMemoryProfile,
    StaticLoadProfile,
)
from repro.profiler.mix import UopMix
from repro.profiler.profile import ApplicationProfile, MicroTraceProfile
from repro.profiler.sampling import SamplingConfig
from repro.statstack.reuse import ReuseProfile
from repro.isa import UopKind

FORMAT_VERSION = 1


def _int_key_dict(mapping: Dict) -> Dict[str, Any]:
    return {str(key): value for key, value in mapping.items()}


def _parse_int_keys(mapping: Dict[str, Any]) -> Dict[int, Any]:
    return {int(key): value for key, value in mapping.items()}


def _mix_to_dict(mix: UopMix) -> Dict[str, Any]:
    return {
        "counts": {kind.name: count for kind, count in mix.counts.items()},
        "num_instructions": mix.num_instructions,
        "num_uops": mix.num_uops,
    }


def _mix_from_dict(data: Dict[str, Any]) -> UopMix:
    mix = UopMix()
    mix.counts = {
        UopKind[name]: count for name, count in data["counts"].items()
    }
    mix.num_instructions = data["num_instructions"]
    mix.num_uops = data["num_uops"]
    return mix


def _chains_to_dict(chains: DependenceChains) -> Dict[str, Any]:
    return {
        "ap": _int_key_dict(chains.ap.values),
        "abp": _int_key_dict(chains.abp.values),
        "cp": _int_key_dict(chains.cp.values),
        "grid": list(chains.grid),
    }


def _chains_from_dict(data: Dict[str, Any]) -> DependenceChains:
    chains = DependenceChains(grid=tuple(data["grid"]))
    chains.ap = ChainProfile(values=_parse_int_keys(data["ap"]))
    chains.abp = ChainProfile(values=_parse_int_keys(data["abp"]))
    chains.cp = ChainProfile(values=_parse_int_keys(data["cp"]))
    return chains


def _reuse_to_dict(profile: ReuseProfile) -> Dict[str, Any]:
    return {
        "histogram": _int_key_dict(profile.histogram),
        "load_histogram": _int_key_dict(profile.load_histogram),
        "store_histogram": _int_key_dict(profile.store_histogram),
        "cold_loads": profile.cold_loads,
        "cold_stores": profile.cold_stores,
        "load_accesses": profile.load_accesses,
        "store_accesses": profile.store_accesses,
        "sampled_accesses": profile.sampled_accesses,
        "line_size": profile.line_size,
    }


def _reuse_from_dict(data: Dict[str, Any]) -> ReuseProfile:
    return ReuseProfile(
        histogram=_parse_int_keys(data["histogram"]),
        load_histogram=_parse_int_keys(data["load_histogram"]),
        store_histogram=_parse_int_keys(data["store_histogram"]),
        cold_loads=data["cold_loads"],
        cold_stores=data["cold_stores"],
        load_accesses=data["load_accesses"],
        store_accesses=data["store_accesses"],
        sampled_accesses=data["sampled_accesses"],
        line_size=data["line_size"],
    )


def _cold_to_dict(cold: ColdMissProfile) -> Dict[str, Any]:
    return {
        "per_window": [
            [line, rob, value]
            for (line, rob), value in cold.per_window.items()
        ],
        "window_fraction": [
            [line, rob, value]
            for (line, rob), value in cold.window_fraction.items()
        ],
        "total": _int_key_dict(cold.total),
        "num_instructions": cold.num_instructions,
    }


def _cold_from_dict(data: Dict[str, Any]) -> ColdMissProfile:
    cold = ColdMissProfile(num_instructions=data["num_instructions"])
    cold.per_window = {
        (line, rob): value for line, rob, value in data["per_window"]
    }
    cold.window_fraction = {
        (line, rob): value for line, rob, value in data["window_fraction"]
    }
    cold.total = _parse_int_keys(data["total"])
    return cold


def _static_load_to_dict(load: StaticLoadProfile) -> Dict[str, Any]:
    return {
        "pc": load.pc,
        "first_position": load.first_position,
        "positions": load.positions,
        "strides": _int_key_dict(load.strides),
        "local_reuse": load.local_reuse,
        "dst": load.dst,
        "depth_sum": load.depth_sum,
    }


def _static_load_from_dict(data: Dict[str, Any]) -> StaticLoadProfile:
    load = StaticLoadProfile(
        pc=data["pc"],
        first_position=data["first_position"],
        dst=data["dst"],
        depth_sum=data["depth_sum"],
    )
    load.positions = list(data["positions"])
    load.strides = Counter(_parse_int_keys(data["strides"]))
    load.local_reuse = list(data["local_reuse"])
    return load


def _memory_to_dict(memory: MicroTraceMemoryProfile) -> Dict[str, Any]:
    return {
        "static_loads": {
            str(pc): _static_load_to_dict(load)
            for pc, load in memory.static_loads.items()
        },
        "load_dependence": _int_key_dict(memory.load_dependence),
        "load_positions": memory.load_positions,
        "store_positions": memory.store_positions,
        "length": memory.length,
    }


def _memory_from_dict(data: Dict[str, Any]) -> MicroTraceMemoryProfile:
    memory = MicroTraceMemoryProfile(length=data["length"])
    memory.static_loads = {
        int(pc): _static_load_from_dict(load)
        for pc, load in data["static_loads"].items()
    }
    memory.load_dependence = Counter(
        _parse_int_keys(data["load_dependence"])
    )
    memory.load_positions = list(data["load_positions"])
    memory.store_positions = list(data["store_positions"])
    return memory


def _micro_to_dict(micro: MicroTraceProfile) -> Dict[str, Any]:
    return {
        "start": micro.start,
        "length": micro.length,
        "mix": _mix_to_dict(micro.mix),
        "chains": _chains_to_dict(micro.chains),
        "memory": _memory_to_dict(micro.memory),
        "load_reuse": _int_key_dict(micro.load_reuse),
        "store_reuse": _int_key_dict(micro.store_reuse),
        "cold_loads": micro.cold_loads,
        "cold_stores": micro.cold_stores,
        "load_reuse_by_pc": {
            str(pc): _int_key_dict(hist)
            for pc, hist in micro.load_reuse_by_pc.items()
        },
        "cold_by_pc": _int_key_dict(micro.cold_by_pc),
    }


def _micro_from_dict(data: Dict[str, Any]) -> MicroTraceProfile:
    return MicroTraceProfile(
        start=data["start"],
        length=data["length"],
        mix=_mix_from_dict(data["mix"]),
        chains=_chains_from_dict(data["chains"]),
        memory=_memory_from_dict(data["memory"]),
        load_reuse=_parse_int_keys(data["load_reuse"]),
        store_reuse=_parse_int_keys(data["store_reuse"]),
        cold_loads=data["cold_loads"],
        cold_stores=data["cold_stores"],
        load_reuse_by_pc={
            int(pc): _parse_int_keys(hist)
            for pc, hist in data["load_reuse_by_pc"].items()
        },
        cold_by_pc=_parse_int_keys(data["cold_by_pc"]),
    )


def profile_to_dict(profile: ApplicationProfile) -> Dict[str, Any]:
    """Serialize an application profile to JSON-compatible structures."""
    return {
        "format_version": FORMAT_VERSION,
        "name": profile.name,
        "num_instructions": profile.num_instructions,
        "sampling": {
            "micro_trace_length": profile.sampling.micro_trace_length,
            "window_length": profile.sampling.window_length,
            "reuse_sample_rate": profile.sampling.reuse_sample_rate,
            "reuse_seed": profile.sampling.reuse_seed,
        },
        "mix": _mix_to_dict(profile.mix),
        "chains": _chains_to_dict(profile.chains),
        "branch_entropy": {
            "entropy": _int_key_dict(profile.branch_entropy.entropy),
            "num_branches": profile.branch_entropy.num_branches,
        },
        "reuse": _reuse_to_dict(profile.reuse),
        "instruction_reuse": _reuse_to_dict(profile.instruction_reuse),
        "cold": _cold_to_dict(profile.cold),
        "micro_traces": [
            _micro_to_dict(micro) for micro in profile.micro_traces
        ],
    }


def profile_from_dict(data: Dict[str, Any]) -> ApplicationProfile:
    """Reconstruct an application profile from its serialized form."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported profile format version {version!r}"
        )
    entropy = BranchEntropyProfile(
        entropy=_parse_int_keys(data["branch_entropy"]["entropy"]),
        num_branches=data["branch_entropy"]["num_branches"],
    )
    return ApplicationProfile(
        name=data["name"],
        num_instructions=data["num_instructions"],
        sampling=SamplingConfig(
            micro_trace_length=data["sampling"]["micro_trace_length"],
            window_length=data["sampling"]["window_length"],
            reuse_sample_rate=data["sampling"].get(
                "reuse_sample_rate", 1.0
            ),
            reuse_seed=data["sampling"].get("reuse_seed", 0),
        ),
        mix=_mix_from_dict(data["mix"]),
        chains=_chains_from_dict(data["chains"]),
        branch_entropy=entropy,
        reuse=_reuse_from_dict(data["reuse"]),
        instruction_reuse=_reuse_from_dict(data["instruction_reuse"]),
        cold=_cold_from_dict(data["cold"]),
        micro_traces=[
            _micro_from_dict(micro) for micro in data["micro_traces"]
        ],
    )


def save_profile(profile: ApplicationProfile,
                 file: Union[str, IO[str]]) -> None:
    """Write a profile to a JSON file (path or open handle)."""
    data = profile_to_dict(profile)
    if isinstance(file, str):
        with open(file, "w") as handle:
            json.dump(data, handle)
    else:
        json.dump(data, file)


def load_profile(file: Union[str, IO[str]]) -> ApplicationProfile:
    """Read a profile back from a JSON file (path or open handle)."""
    if isinstance(file, str):
        with open(file) as handle:
            data = json.load(handle)
    else:
        data = json.load(file)
    return profile_from_dict(data)


# ----------------------------------------------------------------------
# Content-addressed profile store
# ----------------------------------------------------------------------


def canonical_fingerprint(data: Any) -> str:
    """SHA-256 over the canonical JSON form of ``data``.

    The canonical form sorts keys and strips whitespace, so two
    structures with identical content hash identically regardless of
    construction order.  This is the one content-addressing primitive
    shared by every on-disk store in the project: the
    :class:`ProfileStore` here, and the experiment-level
    :class:`~repro.api.runstore.RunStore` /
    :class:`~repro.api.spec.ExperimentSpec` fingerprints.

    Parameters
    ----------
    data:
        Any JSON-serializable structure.

    Returns
    -------
    str
        A 64-character lowercase hex digest.
    """
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def profile_fingerprint(profile: ApplicationProfile) -> str:
    """Content hash of a profile (SHA-256 over its canonical JSON form).

    Two profiles with identical statistics hash identically regardless of
    in-memory object identity, which makes the hash a safe cache key: any
    change to the profiled data (or to the serialization format) changes
    the key and invalidates stale cache entries automatically.

    Parameters
    ----------
    profile:
        The profile to fingerprint.

    Returns
    -------
    str
        A 64-character lowercase hex digest.
    """
    return canonical_fingerprint(profile_to_dict(profile))


class ProfileStore:
    """On-disk, content-addressed archive of profiles.

    Layout: ``<root>/<fingerprint>.profile.json`` holds each profile.
    Storing by content hash means ``put`` is idempotent and a profile
    re-collected bit-identically lands on the same entry.  Writes are
    atomic (temp file + rename), so a crash mid-write never leaves a
    half-written profile.  Nothing derived from a profile is stored:
    its StatStack models take less time to rebuild than to load, and
    ``.tables.json`` files left by older releases are ignored.

    Parameters
    ----------
    root:
        Directory for the store; created on first use.

    Accounting: each new entry adds one to :attr:`profiles_stored`
    (a lifetime plain int) and to ``profile_store.profiles_stored`` in
    the active metrics registry (a no-op while telemetry is off).
    """

    def __init__(self, root: str) -> None:
        self.root = root
        #: Lifetime profile writes that created a new store entry.
        self.profiles_stored = 0

    def profile_path(self, key: str) -> str:
        """Path of the stored profile JSON for ``key``."""
        return os.path.join(self.root, f"{key}.profile.json")

    def put(self, profile: ApplicationProfile) -> str:
        """Store a profile (idempotent) and return its fingerprint key."""
        key = profile_fingerprint(profile)
        path = self.profile_path(key)
        if not os.path.exists(path):
            with atomic_write(path) as handle:
                save_profile(profile, handle)
            self.profiles_stored += 1
            obs.metrics().inc("profile_store.profiles_stored")
        return key

    def get(self, key: str) -> ApplicationProfile:
        """Load a stored profile by key (raises ``FileNotFoundError``)."""
        return load_profile(self.profile_path(key))

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.profile_path(key))
