"""Determinism & contract static analysis for the reproduction.

The repository's core contracts -- bitwise-identical results at any
worker count, fingerprints that never absorb wall-clock or environment
state, content-addressed caches keyed purely by their inputs -- cannot
be exhaustively tested; they can, however, be *proved absent of known
hazards* at CI time.  This zero-dependency package walks the AST of the
analyzed tree, builds a cross-module call graph, and enforces a catalog
of rules (see :mod:`repro.analysis.rules`): nondeterminism taint into
fingerprint/cache sinks, worker-pool shipping safety, seeded-RNG
discipline, the telemetry timing contract, ``__all__`` consistency, and
the migrated public-API docstring guarantee.

Front door: the ``repro lint`` CLI subcommand, a thin wrapper over
:func:`run_lint` that CI runs from the repository root.  There is no
suppression list: any finding fails the run, and an intentional
exception is written into the rule it would trip (the
:class:`~repro.core.interval.ModelCache` ``id()`` keys, the
``WorkerPool`` module itself, clock reads inside ``repro.obs``).

Examples
--------
>>> from repro.analysis import run_lint
>>> report = run_lint(["src/repro"])                   # doctest: +SKIP
>>> report.ok                                          # doctest: +SKIP
True
"""

from repro.analysis.engine import LintContext, LintError, run_lint
from repro.analysis.report import Finding, LintReport
from repro.analysis.rules import (
    DOCSTRING_TARGETS,
    RULES,
    Rule,
    register_rule,
)

__all__ = [
    "DOCSTRING_TARGETS",
    "Finding",
    "LintContext",
    "LintError",
    "LintReport",
    "RULES",
    "Rule",
    "register_rule",
    "run_lint",
]
