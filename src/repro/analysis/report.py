"""Findings and reports: the output side of the static-analysis pass.

A :class:`Finding` is one rule violation anchored to a file, line and
symbol; a :class:`LintReport` is the outcome of one
:func:`~repro.analysis.engine.run_lint` call -- every finding plus
enough metadata (files scanned, rules run) to render the human text
output or the machine-readable JSON artifact CI uploads.

Findings carry a stable :attr:`~Finding.key` -- ``rule:path:symbol``
-- that survives unrelated line-number churn, so two reports of the
same tree name the same violation the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

__all__ = ["Finding", "LintReport", "REPORT_FORMAT_VERSION",
           "sort_findings"]

#: JSON report format version written by :meth:`LintReport.to_json_dict`.
REPORT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific location.

    Parameters
    ----------
    rule:
        Name of the rule that produced the finding (registry key).
    path:
        Repo-relative posix path of the offending file.
    line:
        1-based line number of the violation.
    symbol:
        The qualified name the finding is about (function, class,
        exported name, or a ``sink<-source`` pair for taint paths).
        Part of the stable :attr:`key`, so it must not contain line
        numbers.
    message:
        Human-readable, single-line description.
    """

    rule: str
    path: str
    line: int
    symbol: str
    message: str

    @property
    def key(self) -> str:
        """The finding's stable identity: ``rule:path:symbol``."""
        return f"{self.rule}:{self.path}:{self.symbol}"

    def render(self) -> str:
        """The one-line human form: ``path:line: [rule] message``."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (includes the stable key)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "key": self.key,
        }


@dataclass
class LintReport:
    """The outcome of one lint run.

    Attributes
    ----------
    findings:
        Every violation, sorted by ``(path, line, rule, symbol)``.
    files:
        Repo-relative paths of every file analyzed.
    rules:
        Names of the rules that ran.
    """

    findings: List[Finding] = field(default_factory=list)
    files: List[str] = field(default_factory=list)
    rules: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the run is clean (no findings)."""
        return not self.findings

    def render_lines(self) -> List[str]:
        """Human-readable report: one line per finding plus a summary."""
        lines = [finding.render() for finding in self.findings]
        if self.findings:
            lines.append("")
        lines.append(f"{len(self.findings)} finding(s) "
                     f"({len(self.files)} files, "
                     f"{len(self.rules)} rules)")
        return lines

    def to_json_dict(self) -> Dict[str, Any]:
        """The machine-readable artifact CI uploads."""
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "ok": self.ok,
            "rules": list(self.rules),
            "files": list(self.files),
            "findings": [f.to_dict() for f in self.findings],
        }


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Findings in the canonical deterministic report order."""
    return sorted(findings,
                  key=lambda f: (f.path, f.line, f.rule, f.symbol))
