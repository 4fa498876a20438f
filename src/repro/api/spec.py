"""Declarative, JSON-round-trippable experiment specifications.

An :class:`ExperimentSpec` names one experiment *kind* --
``profile | predict | sweep | search | validate | dvfs`` -- plus the
parameters that fully determine its result, mirroring the CLI flags of
the corresponding ``repro`` subcommand.  Specs normalize to a canonical
fully-defaulted form, so two specs describing the same experiment have
the same content-addressed fingerprint no matter how sparsely they were
written; that fingerprint is the cache key of the on-disk
:class:`~repro.api.runstore.RunStore`.

Execution resources (worker counts, pools, caches, telemetry) are
deliberately *not* part of a spec: results are bitwise identical at any
worker count and whether or not the run was observed (``--trace`` /
``--metrics``), so the same experiment run on a different machine shape
is still the same experiment.

Examples
--------
>>> spec = ExperimentSpec("sweep", workloads=["gcc"], limit=16)
>>> spec.params["objective"] is None
True
>>> ExperimentSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

import json
import numbers
from collections import Counter
from typing import (Any, Callable, Dict, IO, Mapping, Optional, Tuple,
                    Union)

from repro.core.interval import MLP_MODELS
from repro.profiler.serialization import canonical_fingerprint

__all__ = ["ExperimentSpec", "SpecError", "EXPERIMENT_KINDS",
           "SPEC_FORMAT_VERSION"]


class SpecError(ValueError):
    """An :class:`ExperimentSpec` is malformed or inconsistent."""


#: Sentinel default marking a parameter the caller must supply.
_REQUIRED = object()

#: Machine-configuration override parameters shared by the kinds that
#: evaluate a single base configuration (mirrors the CLI's
#: ``--width/--rob/--llc-mb/--frequency/--prefetch`` flags).
_CONFIG_OVERRIDES: Dict[str, Any] = {
    "width": None,
    "rob": None,
    "llc_mb": None,
    "frequency": None,
    "prefetch": False,
}

#: Trace-generation + profiling parameters used when an experiment
#: names *workloads* (profiled lazily through the session registry)
#: instead of on-disk profile files.
_PROFILING: Dict[str, Any] = {
    "instructions": 50_000,
    "micro_trace": 1000,
    "window": 5000,
    "trace_seed": 42,
    "reuse_sample_rate": 1.0,
    "reuse_seed": 0,
}

#: Per-kind parameter schema: name -> default (``_REQUIRED`` when the
#: caller must supply a value).  Unknown parameters are rejected.
_SCHEMAS: Dict[str, Dict[str, Any]] = {
    "profile": {
        "workloads": _REQUIRED,
        "output": None,
        "store": None,
        "instructions": 50_000,
        "micro_trace": 1000,
        "window": 5000,
        "seed": 42,
        "reuse_sample_rate": 1.0,
        "reuse_seed": 0,
    },
    "predict": {
        "profile": None,
        "workload": None,
        "mlp_model": "stride",
        **_CONFIG_OVERRIDES,
        **_PROFILING,
    },
    "sweep": {
        "profiles": None,
        "workloads": None,
        "space": None,
        "objective": None,
        "limit": None,
        **_PROFILING,
    },
    "search": {
        "profiles": None,
        "workloads": None,
        "space": None,
        "optimizer": "ga",
        "objective": "edp",
        "power_cap": None,
        "budget": 200,
        "seed": 0,
        "population": None,
        "batch_size": None,
        **_PROFILING,
    },
    "validate": {
        "workloads": _REQUIRED,
        "space": None,
        "limit": None,
        "instructions": 20_000,
        "micro_trace": 1000,
        "window": 5000,
        "trace_seed": 42,
        "train_fraction": 0.25,
        "seed": 0,
    },
    "dvfs": {
        "profile": None,
        "workload": None,
        "frequencies": None,
        "power_cap": None,
        **_CONFIG_OVERRIDES,
        **_PROFILING,
    },
}


def _is_number(value: Any) -> bool:
    """Whether ``value`` is a real number (a bool is not)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _list_of(check: Callable[[Any], bool]) -> Callable[[Any], bool]:
    """A check passing lists (or tuples) whose items all pass ``check``."""
    return lambda value: (isinstance(value, (list, tuple))
                          and all(check(item) for item in value))


#: Parameter types: what a value must be, and the check it must pass.
_TYPES: Dict[str, Tuple[str, Callable[[Any], bool]]] = {
    "int": ("a number (an integer)",
            lambda value: (_is_number(value)
                           and isinstance(value, numbers.Integral))),
    "real": ("a number", _is_number),
    "str": ("a string", lambda value: isinstance(value, str)),
    "bool": ("true or false", lambda value: isinstance(value, bool)),
    "names": ("a list of strings",
              _list_of(lambda item: isinstance(item, str))),
    "numbers": ("a list of numbers", _list_of(_is_number)),
}

#: The type of every parameter.  ``None`` passes only where it is the
#: default.  Scalars are checked, never coerced, so a valid spec keeps
#: its fingerprint; lists are normalized to lists (a lone name to a
#: one-name list, numbers to floats).
_PARAM_TYPES: Dict[str, str] = {
    **dict.fromkeys(("instructions", "micro_trace", "window", "seed",
                     "trace_seed", "reuse_seed", "width", "rob",
                     "llc_mb", "limit", "budget", "population",
                     "batch_size"), "int"),
    **dict.fromkeys(("reuse_sample_rate", "frequency", "power_cap",
                     "train_fraction"), "real"),
    **dict.fromkeys(("output", "store", "profile", "workload", "space",
                     "objective", "optimizer", "mlp_model"), "str"),
    "prefetch": "bool",
    "workloads": "names",
    "profiles": "names",
    "frequencies": "numbers",
}

#: The experiment kinds a :class:`~repro.api.session.Session` can run.
EXPERIMENT_KINDS = tuple(sorted(_SCHEMAS))

#: Spec format version written by :meth:`ExperimentSpec.to_dict`.
SPEC_FORMAT_VERSION = 1


def _checked(kind: str, key: str, value: Any) -> Any:
    """``value`` in its normal form once it passes ``key``'s type."""
    type_name = _PARAM_TYPES[key]
    if type_name == "names" and isinstance(value, str):
        value = [value]
    what, check = _TYPES[type_name]
    if not check(value):
        raise SpecError(
            f"{kind} spec parameter {key!r} must be {what}, got {value!r}"
        )
    if type_name == "names":
        return list(value)
    if type_name == "numbers":
        return [float(item) for item in value]
    return value


def _check_kind_semantics(kind: str, params: Dict[str, Any]) -> None:
    """Kind-specific consistency checks beyond the schema shape."""
    if kind == "predict" and params["mlp_model"] not in MLP_MODELS:
        raise SpecError(
            f"unknown mlp_model {params['mlp_model']!r} "
            f"(choose from {list(MLP_MODELS)})"
        )
    if kind in ("predict", "dvfs"):
        given = [key for key in ("profile", "workload")
                 if params[key] is not None]
        if len(given) != 1:
            raise SpecError(
                f"{kind} spec needs exactly one of 'profile' (a file "
                f"path) or 'workload' (a suite name), got {given or None}"
            )
    if kind in ("sweep", "search"):
        if not params["profiles"] and not params["workloads"]:
            raise SpecError(
                f"{kind} spec needs 'profiles' (file paths) and/or "
                f"'workloads' (suite names)"
            )
    if kind == "search":
        from repro.explore.search import OBJECTIVES, OPTIMIZERS

        if params["optimizer"] not in OPTIMIZERS:
            raise SpecError(
                f"unknown optimizer {params['optimizer']!r} "
                f"(choose from {sorted(OPTIMIZERS)})"
            )
        if params["objective"] not in OBJECTIVES:
            raise SpecError(
                f"unknown objective {params['objective']!r} "
                f"(choose from {sorted(OBJECTIVES)})"
            )
        if params["budget"] < 1:
            raise SpecError("budget must be >= 1")
        if (params["population"] is not None
                and params["optimizer"] != "ga"):
            raise SpecError("population only applies to the ga optimizer")
        if params["batch_size"] is not None and params["optimizer"] == "ga":
            raise SpecError("use population for the ga batch size")
    if kind == "sweep" and params["objective"] is not None:
        from repro.explore.search import OBJECTIVES

        if params["objective"] not in OBJECTIVES:
            raise SpecError(
                f"unknown objective {params['objective']!r} "
                f"(choose from {sorted(OBJECTIVES)})"
            )
    if kind in ("sweep", "validate"):
        if params["limit"] is not None and params["limit"] < 0:
            raise SpecError("--limit must be >= 0")
    if kind == "validate":
        if not 0.0 <= params["train_fraction"] < 1.0:
            raise SpecError("--train-fraction must be in [0, 1)")
    if kind in ("profile", "validate"):
        # Results are keyed by workload name, so a repeat would collide.
        counts = Counter(params["workloads"] or ())
        duplicates = sorted(name for name, n in counts.items() if n > 1)
        if duplicates:
            raise SpecError(
                "duplicate workload name(s): " + ", ".join(duplicates)
            )
    if kind == "profile":
        if params["output"] is not None and len(params["workloads"]) > 1:
            raise SpecError(
                "output profiles exactly one workload; use store "
                "(or the session registry) for batches"
            )


class ExperimentSpec:
    """One declarative experiment: a kind plus normalized parameters.

    Parameters
    ----------
    kind:
        One of :data:`EXPERIMENT_KINDS`.
    params:
        Parameter mapping (merged with ``**kwargs``); every omitted
        parameter takes its schema default, unknown names raise
        :class:`SpecError`.
    **kwargs:
        Parameters given directly as keyword arguments.

    Examples
    --------
    >>> ExperimentSpec("validate", workloads=["gcc"], limit=4).kind
    'validate'
    """

    __slots__ = ("kind", "params")

    def __init__(
        self,
        kind: str,
        params: Optional[Mapping[str, Any]] = None,
        **kwargs: Any,
    ) -> None:
        if not isinstance(kind, str):
            raise SpecError(f"spec 'kind' must be a string, got {kind!r}")
        if kind not in _SCHEMAS:
            raise SpecError(
                f"unknown experiment kind {kind!r} "
                f"(choose from {list(EXPERIMENT_KINDS)})"
            )
        schema = _SCHEMAS[kind]
        merged: Dict[str, Any] = dict(params or {})
        merged.update(kwargs)
        unknown = sorted(set(merged) - set(schema))
        if unknown:
            raise SpecError(
                f"unknown {kind} spec parameter(s): {', '.join(unknown)}"
            )
        full: Dict[str, Any] = {}
        for key, default in schema.items():
            if default is _REQUIRED and merged.get(key) is None:
                raise SpecError(f"{kind} spec requires {key!r}")
            value = merged.get(key, default)
            if value is not None or default is not None:
                value = _checked(kind, key, value)
            full[key] = value
        _check_kind_semantics(kind, full)
        self.kind = kind
        self.params = full

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-serializable canonical form (all defaults filled)."""
        return {
            "format_version": SPEC_FORMAT_VERSION,
            "kind": self.kind,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (or any sparse
        ``{"kind": ..., "params": {...}}`` mapping)."""
        if not isinstance(data, Mapping):
            raise SpecError("spec must be a JSON object")
        version = data.get("format_version", SPEC_FORMAT_VERSION)
        if version != SPEC_FORMAT_VERSION:
            raise SpecError(f"unsupported spec format version {version!r}")
        if "kind" not in data:
            raise SpecError("spec is missing 'kind'")
        params = data.get("params", {})
        if not isinstance(params, Mapping):
            raise SpecError("spec 'params' must be a JSON object")
        return cls(data["kind"], params)

    @classmethod
    def coerce(
        cls, spec: Union["ExperimentSpec", Mapping[str, Any]]
    ) -> "ExperimentSpec":
        """``spec`` itself, or a spec built from a plain mapping."""
        if isinstance(spec, cls):
            return spec
        return cls.from_dict(spec)

    def save(self, file: Union[str, IO[str]]) -> None:
        """Write the spec as JSON (path or open handle)."""
        data = self.to_dict()
        if isinstance(file, str):
            with open(file, "w") as handle:
                json.dump(data, handle, indent=2, sort_keys=True)
        else:
            json.dump(data, file, indent=2, sort_keys=True)

    @classmethod
    def load(cls, file: Union[str, IO[str]]) -> "ExperimentSpec":
        """Read a spec back from a JSON file (path or open handle)."""
        if isinstance(file, str):
            with open(file) as handle:
                data = json.load(handle)
        else:
            data = json.load(file)
        return cls.from_dict(data)

    # ------------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Content hash of the canonical form (the run-store key).

        Sparse and fully-spelled versions of the same experiment hash
        identically because defaults are filled before hashing.
        """
        return canonical_fingerprint(
            {"kind": self.kind, "params": self.params}
        )

    def __eq__(self, other: object) -> bool:
        """Specs are equal when kind and normalized params match."""
        if not isinstance(other, ExperimentSpec):
            return NotImplemented
        return self.kind == other.kind and self.params == other.params

    def __hash__(self) -> int:
        """Hash of the content fingerprint."""
        return hash(self.fingerprint)

    def __repr__(self) -> str:
        """Compact debugging form: kind plus non-default params."""
        schema = _SCHEMAS[self.kind]
        sparse = {
            key: value for key, value in self.params.items()
            if schema[key] is _REQUIRED or value != schema[key]
        }
        inner = ", ".join(f"{k}={v!r}" for k, v in sparse.items())
        return f"ExperimentSpec({self.kind!r}, {inner})"
