"""The lint baseline: explicit, reviewed exceptions to the rules.

A baseline file (conventionally ``tools/lint_baseline.toml``) lists
finding keys that are *intentional* -- hazards a human looked at and
accepted.  Lint subtracts matching findings from the report, so the CI
gate can require a completely clean run while still leaving a paper
trail for every exception: adding an entry is a reviewed diff, and a
stale entry (matching nothing) is reported so the file never rots.

The file is a small TOML subset parsed here with zero dependencies
(``tomllib`` only exists on Python >= 3.11 and this project supports
3.9)::

    # comments and blank lines are fine
    [baseline]
    entries = [
        "raw-timing:src/repro/api/pool.py:_dispatch",
        "determinism-taint:src/repro/x.py:sink<-time.time",
    ]

Only what the baseline needs is supported: ``[section]`` headers and
``key = value`` pairs where the value is a string, integer, boolean, or
a (possibly multi-line) array of strings.  Entries match finding keys
(``rule:path:symbol``, see :class:`~repro.analysis.report.Finding`)
with :func:`fnmatch.fnmatchcase` semantics, so one entry can cover a
family of accepted findings (``"exports:src/repro/legacy/*"``).
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis.report import Finding

__all__ = ["Baseline", "BaselineError", "parse_toml"]


class BaselineError(ValueError):
    """A baseline file is malformed (bad TOML subset or schema)."""


def _parse_value(text: str, where: str) -> Any:
    """One TOML scalar: quoted string, boolean, or integer."""
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        body = text[1:-1]
        if '"' in body or "\\" in body:
            raise BaselineError(
                f"{where}: escapes are not supported in strings: {text}"
            )
        return body
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        raise BaselineError(f"{where}: unsupported value {text!r}") from None


def _strip_comment(line: str) -> str:
    """Drop a ``#`` comment (quote-aware) and surrounding whitespace."""
    out = []
    in_string = False
    for char in line:
        if char == '"':
            in_string = not in_string
        if char == "#" and not in_string:
            break
        out.append(char)
    return "".join(out).strip()


def parse_toml(text: str, filename: str = "<baseline>") -> Dict[str, Any]:
    """Parse the supported TOML subset into nested dicts.

    Supports ``[section]`` headers, ``key = scalar`` and
    ``key = [ "...", ... ]`` arrays of strings (single- or multi-line).
    Anything else raises :class:`BaselineError` -- a baseline that
    cannot be read must fail loudly, never silently un-suppress.
    """
    root: Dict[str, Any] = {}
    table = root
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        where = f"{filename}:{index + 1}"
        line = _strip_comment(lines[index])
        index += 1
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise BaselineError(f"{where}: empty section name")
            table = root.setdefault(name, {})
            continue
        if "=" not in line:
            raise BaselineError(f"{where}: expected 'key = value': {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if value.startswith("["):
            # Array (possibly spanning lines): gather until the closing
            # bracket, then split on commas outside quotes.
            while not value.endswith("]"):
                if index >= len(lines):
                    raise BaselineError(f"{where}: unterminated array")
                value += " " + _strip_comment(lines[index])
                index += 1
            body = value[1:-1].strip()
            items: List[Any] = []
            for part in _split_array(body, where):
                items.append(_parse_value(part, where))
            table[key] = items
        else:
            table[key] = _parse_value(value, where)
    return root


def _split_array(body: str, where: str) -> List[str]:
    """Split an array body on commas that sit outside quoted strings."""
    parts: List[str] = []
    current = []
    in_string = False
    for char in body:
        if char == '"':
            in_string = not in_string
        if char == "," and not in_string:
            part = "".join(current).strip()
            if part:
                parts.append(part)
            current = []
        else:
            current.append(char)
    if in_string:
        raise BaselineError(f"{where}: unterminated string in array")
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


class Baseline:
    """A set of accepted finding keys loaded from a baseline file.

    Parameters
    ----------
    entries:
        Finding-key patterns (``rule:path:symbol``, fnmatch wildcards
        allowed).  Order is irrelevant; matching is case-sensitive.

    Examples
    --------
    >>> base = Baseline(["raw-timing:src/x.py:stamp"])
    >>> from repro.analysis.report import Finding
    >>> f = Finding("raw-timing", "src/x.py", 3, "stamp", "...")
    >>> base.matches(f)
    True
    """

    def __init__(self, entries: Sequence[str] = ()) -> None:
        self.entries: List[str] = list(entries)

    @classmethod
    def load(cls, path: str) -> "Baseline":
        """Read a baseline file (the TOML subset described above).

        The schema is one ``[baseline]`` table with an ``entries``
        array of strings; anything else is a :class:`BaselineError`.
        """
        with open(path) as handle:
            data = parse_toml(handle.read(), filename=path)
        section = data.get("baseline", {})
        entries = section.get("entries", [])
        if not isinstance(entries, list) or any(
            not isinstance(entry, str) for entry in entries
        ):
            raise BaselineError(
                f"{path}: [baseline] entries must be an array of strings"
            )
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def matches(self, finding: Finding) -> bool:
        """Whether any baseline entry accepts this finding's key."""
        return any(fnmatchcase(finding.key, entry)
                   for entry in self.entries)

    def apply(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], List[Finding], List[str]]:
        """Partition findings into (surviving, suppressed, stale entries).

        ``stale`` lists baseline entries that matched no finding in
        this run -- candidates for deletion, surfaced as warnings so
        the baseline only ever shrinks toward empty.
        """
        surviving: List[Finding] = []
        suppressed: List[Finding] = []
        used = set()
        for finding in findings:
            hit = None
            for entry in self.entries:
                if fnmatchcase(finding.key, entry):
                    hit = entry
                    break
            if hit is None:
                surviving.append(finding)
            else:
                suppressed.append(finding)
                used.add(hit)
        stale = [entry for entry in self.entries if entry not in used]
        return surviving, suppressed, stale
