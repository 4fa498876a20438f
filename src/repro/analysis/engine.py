"""The lint engine: file discovery, parsing, rule dispatch.

:func:`run_lint` is the one entry point behind the ``repro lint`` CLI
subcommand: it collects ``.py`` files from the given paths in sorted
order, parses them once, builds the shared
:class:`~repro.analysis.callgraph.CallGraph`, runs every requested rule
from the :data:`~repro.analysis.rules.RULES` registry, and returns a
:class:`~repro.analysis.report.LintReport` of every finding.

The engine is itself bound by the contracts it checks: discovery order
is sorted, findings are sorted, and nothing reads clocks, environment
or RNGs -- the same inputs always produce the same report, bytes for
bytes.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.callgraph import (
    CallGraph,
    ModuleInfo,
    module_name_for,
)
from repro.analysis.report import Finding, LintReport, sort_findings
from repro.analysis.rules import RULES

__all__ = ["LintContext", "LintError", "run_lint"]


class LintError(ValueError):
    """The lint run cannot proceed (bad paths, rules, or sources)."""


class LintContext:
    """Everything a rule sees: parsed modules, the call graph, options.

    Attributes
    ----------
    graph:
        The cross-module :class:`~repro.analysis.callgraph.CallGraph`.
    modules:
        The analyzed :class:`~repro.analysis.callgraph.ModuleInfo`
        records, sorted by path (rules iterate this for deterministic
        output).
    options:
        Free-form per-rule configuration (tests override taint sinks,
        docstring targets, ...); empty for production runs.
    root:
        The directory findings' paths are relative to.
    """

    def __init__(self, graph: CallGraph, options: Dict[str, Any],
                 root: Path) -> None:
        self.graph = graph
        self.modules: List[ModuleInfo] = sorted(
            graph.modules.values(), key=lambda m: m.path
        )
        self.options = options
        self.root = root


def _relative_posix(path: Path, root: Path) -> str:
    """``path`` relative to ``root`` when possible, posix-separated."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _discover(paths: Sequence[Union[str, Path]],
              root: Path) -> List[Tuple[str, Path]]:
    """Sorted ``(repo-relative posix path, absolute path)`` pairs."""
    files: Dict[str, Path] = {}
    for entry in paths:
        path = Path(entry)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            for source in sorted(path.rglob("*.py")):
                files[_relative_posix(source, root)] = source
        elif path.is_file():
            files[_relative_posix(path, root)] = path
        else:
            raise LintError(f"no such file or directory: {entry}")
    return sorted(files.items())


def run_lint(
    paths: Sequence[Union[str, Path]],
    root: Optional[Union[str, Path]] = None,
    rules: Optional[Sequence[str]] = None,
    options: Optional[Dict[str, Any]] = None,
) -> LintReport:
    """Run the static-analysis pass and return its report.

    Parameters
    ----------
    paths:
        Files and/or directories to analyze (directories recurse over
        ``*.py`` in sorted order).
    root:
        Directory findings' paths (and so their keys) are reported
        relative to; defaults to the current working directory.
    rules:
        Rule names to run (default: every registered rule).  Unknown
        names raise :class:`LintError`.
    options:
        Per-rule configuration overrides (see each rule's docs).

    Returns
    -------
    LintReport
        Sorted findings and run metadata.

    Raises
    ------
    LintError
        For unknown paths or rule names, and for files that fail to
        parse (a lint pass that silently skips unparseable code would
        certify nothing).
    """
    root_path = Path(root) if root is not None else Path.cwd()
    selected = list(rules) if rules is not None else sorted(RULES)
    unknown = [name for name in selected if name not in RULES]
    if unknown:
        raise LintError(
            "unknown rule(s): " + ", ".join(sorted(unknown))
            + " (known: " + ", ".join(sorted(RULES)) + ")"
        )

    discovered = _discover(paths, root_path)
    parsed: List[Tuple[str, ast.Module]] = []
    for rel, path in discovered:
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"{rel}: cannot parse: {exc}") from exc
        parsed.append((rel, tree))

    # Reporting paths stay repo-relative; module names come from the
    # absolute location so package detection is cwd-independent.
    graph = CallGraph.build([
        (rel, module_name_for(path), tree)
        for (rel, tree), (_, path) in zip(parsed, discovered)
    ])

    context = LintContext(graph, dict(options or {}), root_path)
    findings: List[Finding] = []
    for name in selected:
        findings.extend(RULES[name].check(context))
    return LintReport(
        findings=sort_findings(findings),
        files=[rel for rel, _ in discovered],
        rules=list(selected),
    )
