"""The rule catalog: every contract the static-analysis pass enforces.

Each rule is a function from a :class:`~repro.analysis.engine.LintContext`
to a list of :class:`~repro.analysis.report.Finding`, registered under a
stable name via :func:`register_rule`.  The shipped rules defend the
reproduction's core contracts:

``determinism-taint``
    No nondeterministic *source* (wall-clock reads, unseeded
    module-level RNG draws, ``os.environ`` reads, unsorted directory
    listings, ``id()``/``hash()``, set iteration) may be reachable --
    through the cross-module call graph -- from a fingerprint /
    serialization / persistent-cache-key *sink*.  A leak here silently
    poisons every content-addressed store.
``worker-state``
    Callables shipped through ``WorkerPool.imap``, the grid runner
    ``iter_grid`` (or a raw ``multiprocessing`` pool) must be
    module-level and must not mutate module-level state: the
    single-process race detector for the pool.
    The pool's own dispatch shim is the checked *mechanism* and is
    exempt by construction (its worker-side state cache is the
    documented broadcast protocol).
``unseeded-rng``
    Every RNG construction (``random.Random``, ``numpy.random
    .default_rng``/``RandomState``) must take an explicit, non-``None``
    seed; ``random.SystemRandom`` is never reproducible and always
    flagged.
``raw-timing``
    ``time.perf_counter`` and friends may only be read inside
    ``repro.obs`` -- everywhere else, ``span.seconds`` is the single
    timing source (the PR 7 telemetry contract).
``exports``
    In every module that declares ``__all__``, each exported name must
    exist and each public module-level symbol must be exported or
    underscore-private.
``docstrings``
    The public-API documentation guarantee: modules, public classes
    and public functions in the guaranteed packages
    (:data:`DOCSTRING_TARGETS`) carry docstrings.
``supervision-exceptions``
    The fault-tolerance layer (:data:`SUPERVISION_MODULES`) may not use
    bare ``except`` or blanket ``except Exception`` / ``BaseException``
    handlers: a supervisor that swallows everything turns real bugs
    into silent retries, so every handler there must name the concrete
    failure classes it absorbs.
``async-safety``
    Coroutines in the service layer (:data:`ASYNC_MODULES`) may not
    reach blocking calls -- ``time.sleep``, raw ``open``/``os.replace``
    file IO, ``WorkerPool.imap``, ``subprocess`` -- through the call
    graph: one blocking call on the event loop stalls every connected
    client.  Blocking work belongs behind ``loop.run_in_executor``
    (passing a function *as an argument* creates no call edge, so the
    executor route is structurally exempt).

The in-memory :class:`~repro.core.interval.ModelCache` keys ``id()`` on
purpose (pinned profiles make identity a safe per-process key), so the
taint sinks are the *persistent* surfaces: fingerprints, profile/run
serialization, and the on-disk stores.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    dotted_parts,
)
from repro.analysis.report import Finding

__all__ = [
    "Rule",
    "RULES",
    "register_rule",
    "ASYNC_MODULES",
    "DOCSTRING_TARGETS",
    "SUPERVISION_MODULES",
    "TAINT_SINKS",
    "TIME_CLOCKS",
]


@dataclass(frozen=True)
class Rule:
    """One registered rule: a name, a summary, and its check function."""

    name: str
    summary: str
    check: Callable


#: Registry of every shipped rule, keyed by rule name.
RULES: Dict[str, Rule] = {}


def register_rule(name: str, summary: str):
    """Class/function decorator registering a rule under ``name``."""
    def decorate(func: Callable) -> Callable:
        RULES[name] = Rule(name=name, summary=summary, check=func)
        return func
    return decorate


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _walk_own(root: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs.

    Nested functions and classes are analyzed as functions in their own
    right; attributing their bodies to the enclosing function would
    taint callers that merely *define* a helper without running it.
    """
    def subtree(node: ast.AST) -> Iterator[ast.AST]:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        for child in ast.iter_child_nodes(node):
            yield from subtree(child)

    for child in ast.iter_child_nodes(root):
        yield from subtree(child)


def _sorted_wrapped_calls(root: ast.AST) -> Set[int]:
    """ids of Call nodes passed directly to ``sorted(...)``.

    ``sorted(os.listdir(p))`` is deterministic; the inner listing call
    is exempt from the filesystem-order taint source.
    """
    exempt: Set[int] = set()
    for node in _walk_own(root):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"):
            for arg in node.args:
                if isinstance(arg, ast.Call):
                    exempt.add(id(arg))
    return exempt


def _local_names(func_node: ast.AST) -> Set[str]:
    """Names bound locally in a function (params + assignments)."""
    names: Set[str] = set()
    args = getattr(func_node, "args", None)
    if args is not None:
        for arg in (list(getattr(args, "posonlyargs", [])) + list(args.args)
                    + list(args.kwonlyargs)):
            names.add(arg.arg)
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
    for node in _walk_own(func_node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
    return names


# ----------------------------------------------------------------------
# Rule: determinism-taint
# ----------------------------------------------------------------------

#: Wall-clock reads (every one a taint source).
TIME_CLOCKS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime", "time.clock_gettime_ns",
})

_DATETIME_SOURCES = frozenset({
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "datetime.now",
    "datetime.utcnow", "datetime.today",
})

_FS_SOURCES = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})

_FS_METHODS = frozenset({"iterdir", "glob", "rglob", "scandir"})

#: RNG constructors that are fine *when seeded* (checked by
#: ``unseeded-rng``); everything else on these modules draws from
#: hidden global state and is a taint source outright.
_SEEDABLE_RANDOM = frozenset({"Random", "SystemRandom"})
_SEEDABLE_NP_RANDOM = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "BitGenerator",
})

#: Fingerprint / serialization / persistent-cache-key sinks, matched
#: against qualified function names with fnmatch semantics.
TAINT_SINKS: Tuple[str, ...] = (
    "*.canonical_fingerprint",
    "*.profile_fingerprint",
    "*.profile_to_dict",
    "*.save_profile",
    "*ProfileStore.put",
    "*ExperimentSpec.to_dict",
    "*ExperimentSpec.fingerprint",
    "*RunResult.to_dict",
    "*RunResult.save",
    "*RunResult.fingerprint",
    "*RunStore.put",
    "*RunStore.path",
)


def _taint_sources(info: FunctionInfo,
                   module: ModuleInfo) -> List[Tuple[int, str]]:
    """Nondeterministic source sites in one function body.

    Returns ``(line, label)`` pairs, deduplicated and sorted.
    """
    sites: Set[Tuple[int, str]] = set()
    exempt = _sorted_wrapped_calls(info.node)
    shadowed = set(module.bindings) - set(module.imports)

    def qualified(node: ast.AST) -> Optional[str]:
        parts = dotted_parts(node)
        if parts is None:
            return None
        return ".".join(module.qualify(parts))

    for node in _walk_own(info.node):
        if isinstance(node, ast.Call):
            dotted = qualified(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if dotted in TIME_CLOCKS or dotted in _DATETIME_SOURCES:
                sites.add((node.lineno, dotted))
            elif (parts[0] == "random" and len(parts) == 2
                    and parts[1] not in _SEEDABLE_RANDOM):
                sites.add((node.lineno, dotted))
            elif (parts[:2] == ["numpy", "random"] and len(parts) == 3
                    and parts[2] not in _SEEDABLE_NP_RANDOM):
                sites.add((node.lineno, dotted))
            elif dotted in _FS_SOURCES and id(node) not in exempt:
                sites.add((node.lineno, dotted))
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr in _FS_METHODS
                    and id(node) not in exempt
                    and dotted not in _FS_SOURCES):
                sites.add((node.lineno, f"*.{node.func.attr}()"))
            elif dotted == "os.getenv":
                sites.add((node.lineno, dotted))
            elif dotted in ("id", "hash") and dotted not in shadowed:
                sites.add((node.lineno, f"{dotted}()"))
        elif isinstance(node, ast.Attribute):
            dotted = qualified(node)
            if dotted == "os.environ":
                sites.add((node.lineno, "os.environ"))
        elif isinstance(node, (ast.For, ast.comprehension)):
            iterable = node.iter
            if isinstance(iterable, (ast.Set, ast.SetComp)):
                sites.add((iterable.lineno, "set iteration"))
            elif (isinstance(iterable, ast.Call)
                    and isinstance(iterable.func, ast.Name)
                    and iterable.func.id == "set"
                    and "set" not in shadowed):
                sites.add((iterable.lineno, "set iteration"))
    return sorted(sites)


@register_rule(
    "determinism-taint",
    "no nondeterministic source may reach a fingerprint/serialization/"
    "cache-key sink through the call graph",
)
def _check_determinism_taint(ctx) -> List[Finding]:
    """Walk the call graph forward from every sink; report sources."""
    graph: CallGraph = ctx.graph
    sink_patterns = tuple(ctx.options.get("taint_sinks", TAINT_SINKS))
    source_cache: Dict[str, List[Tuple[int, str]]] = {}
    findings: List[Finding] = []
    sinks = sorted(
        qualname for qualname in graph.functions
        if any(fnmatchcase(qualname, pat) for pat in sink_patterns)
    )
    for sink in sinks:
        for reached, chain in sorted(graph.reachable(sink).items()):
            info = graph.functions[reached]
            if reached not in source_cache:
                module = graph.modules[info.module]
                source_cache[reached] = _taint_sources(info, module)
            for line, label in source_cache[reached]:
                route = " -> ".join(
                    graph.functions[q].name for q in reversed(chain)
                )
                sink_name = sink.split(".")[-1]
                findings.append(Finding(
                    rule="determinism-taint",
                    path=info.path,
                    line=line,
                    symbol=f"{sink_name}<-{label}",
                    message=(
                        f"nondeterministic source '{label}' (in "
                        f"{info.qualname}) reaches sink '{sink}' via "
                        f"{route}"
                    ),
                ))
    return findings


# ----------------------------------------------------------------------
# Rule: worker-state
# ----------------------------------------------------------------------

_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "add", "discard", "setdefault", "sort", "reverse",
})


def _module_state_mutations(info: FunctionInfo,
                            module: ModuleInfo) -> List[Tuple[int, str]]:
    """Sites where a function mutates module-level state."""
    sites: List[Tuple[int, str]] = []
    local = _local_names(info.node)
    module_names = set(module.defined)

    def is_module_name(node: ast.AST) -> Optional[str]:
        if (isinstance(node, ast.Name) and node.id in module_names
                and node.id not in local):
            return node.id
        return None

    for node in _walk_own(info.node):
        if isinstance(node, ast.Global):
            for name in node.names:
                sites.append((node.lineno, f"declares 'global {name}'"))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                base = target
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                name = is_module_name(base)
                if name is not None and base is not target:
                    sites.append((node.lineno,
                                  f"writes into module-level '{name}'"))
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS):
                name = is_module_name(func.value)
                if name is not None:
                    sites.append((
                        node.lineno,
                        f"calls '{name}.{func.attr}(...)' on "
                        f"module-level state",
                    ))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                base = target
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                name = is_module_name(base)
                if name is not None:
                    sites.append((node.lineno,
                                  f"deletes from module-level '{name}'"))
    return sites


@register_rule(
    "worker-state",
    "callables shipped through a worker pool must be module-level and "
    "must not mutate module-level state",
)
def _check_worker_state(ctx) -> List[Finding]:
    """Check the callable of every dispatch site: ``pool.imap(func, ...)``
    and the grid runner's ``iter_grid(func, ...)``."""
    graph: CallGraph = ctx.graph
    findings: List[Finding] = []
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        module = graph.modules[info.module]
        # The pool implementation module is the mechanism under test,
        # not a client: its internal dispatch shim deliberately keeps a
        # worker-side state cache (the broadcast protocol).
        if "WorkerPool" in module.classes:
            continue
        for call in info.calls:
            dispatch = call.text.split(".")[-1]
            if not (dispatch == "iter_grid"
                    or (dispatch == "imap" and "." in call.text)):
                continue
            if not call.node.args:
                continue
            shipped = call.node.args[0]
            if isinstance(shipped, ast.Lambda):
                findings.append(Finding(
                    rule="worker-state", path=info.path,
                    line=call.lineno, symbol=f"{qualname}.<lambda>",
                    message=("lambda shipped to a worker pool: dispatch "
                             "targets must be module-level (picklable) "
                             "functions"),
                ))
                continue
            if not isinstance(shipped, ast.Name):
                continue
            target = _resolve_shipped(graph, module, shipped.id, info)
            if target is None:
                continue
            if target.is_nested or target.cls is not None:
                findings.append(Finding(
                    rule="worker-state", path=info.path,
                    line=call.lineno, symbol=target.qualname,
                    message=(f"'{target.name}' shipped to a worker pool "
                             f"is not a module-level function (closures "
                             f"do not pickle and hide shared state)"),
                ))
                continue
            for mutated in _shipped_closure(graph, target):
                mut_module = graph.modules[mutated.module]
                for line, what in _module_state_mutations(mutated,
                                                          mut_module):
                    suffix = ("" if mutated is target
                              else f" (via {mutated.name})")
                    findings.append(Finding(
                        rule="worker-state", path=info.path,
                        line=call.lineno, symbol=target.qualname,
                        message=(f"'{target.name}' shipped to a worker "
                                 f"pool {what} at {mutated.path}:{line}"
                                 f"{suffix}; shipped callables must not "
                                 f"mutate module-level state"),
                    ))
    return findings


def _resolve_shipped(graph: CallGraph, module: ModuleInfo, name: str,
                     caller: FunctionInfo) -> Optional[FunctionInfo]:
    """The function a bare name at a dispatch site refers to, if known."""
    nested = f"{caller.qualname}.{name}"
    if nested in graph.functions:
        return graph.functions[nested]
    candidate = f"{module.name}.{name}"
    if candidate in graph.functions:
        return graph.functions[candidate]
    target = module.imports.get(name)
    if target in graph.functions:
        return graph.functions[target]
    return None


def _shipped_closure(graph: CallGraph,
                     target: FunctionInfo) -> List[FunctionInfo]:
    """The shipped function plus its same-module transitive callees.

    Module-level mutable state travels with the shipped function's
    *module* under pickle, so the race surface is the closure of calls
    that stay inside that module.
    """
    seen = {target.qualname}
    queue = [target.qualname]
    out = [target]
    while queue:
        current = queue.pop(0)
        for callee in graph.callees(current):
            if callee in seen:
                continue
            info = graph.functions.get(callee)
            if info is None or info.module != target.module:
                continue
            seen.add(callee)
            queue.append(callee)
            out.append(info)
    return out


# ----------------------------------------------------------------------
# Rule: unseeded-rng
# ----------------------------------------------------------------------

_RNG_CONSTRUCTORS = frozenset({
    "random.Random", "numpy.random.RandomState",
    "numpy.random.default_rng",
})


@register_rule(
    "unseeded-rng",
    "every RNG construction must take an explicit, non-None seed",
)
def _check_unseeded_rng(ctx) -> List[Finding]:
    """Flag seedless ``Random()`` / ``default_rng()`` constructions."""
    findings: List[Finding] = []
    for module in ctx.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            parts = dotted_parts(node.func)
            if parts is None:
                continue
            dotted = ".".join(module.qualify(parts))
            if dotted == "random.SystemRandom":
                findings.append(Finding(
                    rule="unseeded-rng", path=module.path,
                    line=node.lineno, symbol=dotted,
                    message=("random.SystemRandom draws OS entropy and "
                             "can never reproduce; use a seeded "
                             "random.Random"),
                ))
                continue
            if dotted not in _RNG_CONSTRUCTORS:
                continue
            seeded = False
            if node.args:
                first = node.args[0]
                seeded = not (isinstance(first, ast.Constant)
                              and first.value is None)
            else:
                for keyword in node.keywords:
                    if keyword.arg in ("seed", "x"):
                        seeded = not (
                            isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is None
                        )
            if not seeded:
                findings.append(Finding(
                    rule="unseeded-rng", path=module.path,
                    line=node.lineno, symbol=dotted,
                    message=(f"'{dotted}()' constructed without an "
                             f"explicit seed; pass a seed so runs "
                             f"reproduce"),
                ))
    return findings


# ----------------------------------------------------------------------
# Rule: raw-timing
# ----------------------------------------------------------------------

#: Modules allowed to read wall clocks (the telemetry layer itself).
_TIMING_ALLOWED = ("repro.obs", "repro.obs.*")


@register_rule(
    "raw-timing",
    "no raw clock reads outside repro.obs: span.seconds is the single "
    "timing source",
)
def _check_raw_timing(ctx) -> List[Finding]:
    """Flag ``time.perf_counter``-family references outside the obs layer."""
    allowed = tuple(ctx.options.get("timing_allowed_modules",
                                    _TIMING_ALLOWED))
    clock_names = {name.split(".")[-1] for name in TIME_CLOCKS}
    findings: List[Finding] = []
    for module in ctx.modules:
        if any(fnmatchcase(module.name, pat) for pat in allowed):
            continue
        seen: Set[Tuple[int, str]] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in clock_names:
                        seen.add((node.lineno, f"time.{alias.name}"))
            elif isinstance(node, ast.Attribute):
                parts = dotted_parts(node)
                if parts is None:
                    continue
                dotted = ".".join(module.qualify(parts))
                if dotted in TIME_CLOCKS:
                    seen.add((node.lineno, dotted))
        for line, label in sorted(seen):
            findings.append(Finding(
                rule="raw-timing", path=module.path, line=line,
                symbol=label,
                message=(f"raw clock read '{label}' outside repro.obs; "
                         f"time with 'with obs.span(...) as span' and "
                         f"read span.seconds (NullTracer still times)"),
            ))
    return findings


# ----------------------------------------------------------------------
# Rule: exports
# ----------------------------------------------------------------------


#: Public-by-convention module attributes the exports rule ignores:
#: ``logger = logging.getLogger(__name__)`` is the stdlib logging idiom
#: and is deliberately not part of any module's exported API.
_EXPORT_EXEMPT = frozenset({"logger"})


@register_rule(
    "exports",
    "__all__ names must exist; public module symbols must be exported "
    "or underscore-private",
)
def _check_exports(ctx) -> List[Finding]:
    """Check ``__all__`` consistency in every module declaring one."""
    findings: List[Finding] = []
    for module in ctx.modules:
        if module.dunder_all is None:
            continue
        exported = set(module.dunder_all)
        for name in module.dunder_all:
            if name not in module.bindings:
                findings.append(Finding(
                    rule="exports", path=module.path,
                    line=module.dunder_all_line, symbol=name,
                    message=(f"'{name}' is listed in __all__ but not "
                             f"defined or imported in the module"),
                ))
        for name in sorted(module.defined):
            if (name.startswith("_") or name in exported
                    or name in _EXPORT_EXEMPT):
                continue
            findings.append(Finding(
                rule="exports", path=module.path,
                line=module.defined[name], symbol=name,
                message=(f"public symbol '{name}' is neither exported "
                         f"in __all__ nor underscore-private"),
            ))
    return findings


# ----------------------------------------------------------------------
# Rule: docstrings
# ----------------------------------------------------------------------

#: The packages whose public APIs the documentation pass guarantees.
DOCSTRING_TARGETS: Tuple[str, ...] = (
    "src/repro/explore",
    "src/repro/api",
    "src/repro/obs",
    "src/repro/analysis",
    "src/repro/faults",
    "src/repro/serve",
    "src/repro/core/model.py",
)


def _path_in_targets(path: str, targets: Sequence[str]) -> bool:
    """Whether a repo-relative path falls under any target entry."""
    for target in targets:
        target = target.rstrip("/")
        if path == target or path.startswith(target + "/"):
            return True
        if fnmatchcase(path, target):
            return True
    return False


def _walk_docstrings(node: ast.AST, qualname: str, path: str,
                     findings: List[Finding]) -> None:
    for child in getattr(node, "body", []):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            if child.name.startswith("_"):
                continue
            child_name = f"{qualname}.{child.name}"
            if ast.get_docstring(child) is None:
                # Properties wrapping one-line returns still need docs;
                # no exemptions keeps the rule easy to reason about.
                findings.append(Finding(
                    rule="docstrings", path=path, line=child.lineno,
                    symbol=child_name,
                    message=f"missing docstring: {child_name}",
                ))
            if isinstance(child, ast.ClassDef):
                _walk_docstrings(child, child_name, path, findings)


@register_rule(
    "docstrings",
    "modules and public APIs in the guaranteed packages carry "
    "docstrings",
)
def _check_docstrings(ctx) -> List[Finding]:
    """Require docstrings on public APIs under the guaranteed targets."""
    targets = tuple(ctx.options.get("docstring_targets",
                                    DOCSTRING_TARGETS))
    findings: List[Finding] = []
    for module in ctx.modules:
        if not _path_in_targets(module.path, targets):
            continue
        if ast.get_docstring(module.tree) is None:
            findings.append(Finding(
                rule="docstrings", path=module.path, line=1,
                symbol=module.name,
                message=f"missing module docstring: {module.path}",
            ))
        _walk_docstrings(module.tree, module.name, module.path,
                         findings)
    return findings


# ----------------------------------------------------------------------
# Rule: supervision-exceptions
# ----------------------------------------------------------------------

#: Module patterns (``fnmatch`` over dotted names) forming the
#: supervision layer: the code that catches other code's failures on
#: purpose, and must therefore say exactly which failures it catches.
SUPERVISION_MODULES: Tuple[str, ...] = (
    "repro.faults",
    "repro.faults.*",
    "repro.api.pool",
)


def _blanket_handler_label(type_node: Optional[ast.AST]) -> Optional[str]:
    """The offending label of a blanket handler, or ``None`` if named.

    Flags ``except:`` (no type), ``except Exception`` /
    ``BaseException``, and tuples containing either.  Handlers naming
    concrete classes -- including project exception types referenced by
    attribute -- pass.
    """
    if type_node is None:
        return "bare except"
    nodes = (type_node.elts if isinstance(type_node, ast.Tuple)
             else [type_node])
    for node in nodes:
        if (isinstance(node, ast.Name)
                and node.id in ("Exception", "BaseException")):
            return f"except {node.id}"
    return None


@register_rule(
    "supervision-exceptions",
    "no bare except / blanket Exception handlers in the supervision "
    "layer",
)
def _check_supervision_exceptions(ctx) -> List[Finding]:
    """Flag blanket exception handlers inside the supervision modules.

    The retry/restart machinery decides, per failure class, whether to
    retry, restart the pool, or give up -- a handler that catches
    ``Exception`` (or everything) erases that decision and turns
    deterministic bugs into silent retries.  Scope comes from the
    ``supervision_modules`` option (default
    :data:`SUPERVISION_MODULES`).
    """
    patterns = tuple(ctx.options.get("supervision_modules",
                                     SUPERVISION_MODULES))
    findings: List[Finding] = []
    for module in ctx.modules:
        if not any(fnmatchcase(module.name, pat) for pat in patterns):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            label = _blanket_handler_label(node.type)
            if label is None:
                continue
            findings.append(Finding(
                rule="supervision-exceptions", path=module.path,
                line=node.lineno, symbol=label,
                message=(f"{label} in supervision module "
                         f"'{module.name}': name the concrete failure "
                         f"classes this handler absorbs (blanket "
                         f"handlers turn real bugs into silent "
                         f"retries)"),
            ))
    return findings


# ----------------------------------------------------------------------
# Rule: async-safety
# ----------------------------------------------------------------------

#: Module patterns (``fnmatch`` over dotted names) forming the async
#: service layer, where the event loop must never block.
ASYNC_MODULES: Tuple[str, ...] = (
    "repro.serve",
    "repro.serve.*",
)

#: Dotted blocking calls that stall the event loop outright.
_BLOCKING_CALLS = frozenset({
    "time.sleep",
    "os.replace",
    "os.rename",
})

#: Attribute-call method names that dispatch blocking work (the worker
#: pool's map surface).
_BLOCKING_METHODS = frozenset({"imap"})


def _blocking_sites(info: FunctionInfo,
                    module: ModuleInfo) -> List[Tuple[int, str]]:
    """Blocking call sites in one function body.

    Returns ``(line, label)`` pairs, deduplicated and sorted.  A
    function merely *passed* somewhere (e.g. into
    ``loop.run_in_executor``) is never a call site, so routing blocking
    work through the executor is exempt by construction.
    """
    sites: Set[Tuple[int, str]] = set()
    local = _local_names(info.node)
    shadowed = set(module.bindings) - set(module.imports)

    for node in _walk_own(info.node):
        if not isinstance(node, ast.Call):
            continue
        parts = dotted_parts(node.func)
        dotted = (".".join(module.qualify(parts))
                  if parts is not None else None)
        if dotted is not None:
            root = dotted.split(".")[0]
            if dotted in _BLOCKING_CALLS:
                sites.add((node.lineno, dotted))
                continue
            if root == "subprocess":
                sites.add((node.lineno, dotted))
                continue
            if (dotted == "open" and "open" not in local
                    and "open" not in shadowed):
                sites.add((node.lineno, "open()"))
                continue
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _BLOCKING_METHODS):
            sites.add((node.lineno, f"*.{node.func.attr}()"))
    return sorted(sites)


@register_rule(
    "async-safety",
    "coroutines in the service layer may not reach blocking calls "
    "except through run_in_executor",
)
def _check_async_safety(ctx) -> List[Finding]:
    """Walk the call graph forward from every service-layer coroutine.

    Any ``async def`` in the scoped modules (the ``async_modules``
    option, default :data:`ASYNC_MODULES`) is a start point; every
    function it can reach through *direct* calls is scanned for
    blocking sites.  Call edges come only from actual call expressions,
    so work handed to ``loop.run_in_executor`` (a function reference
    argument, never a call) stays invisible to the walk -- exactly the
    one sanctioned escape hatch.
    """
    graph: CallGraph = ctx.graph
    patterns = tuple(ctx.options.get("async_modules", ASYNC_MODULES))
    site_cache: Dict[str, List[Tuple[int, str]]] = {}
    findings: List[Finding] = []
    coroutines = sorted(
        qualname for qualname, info in graph.functions.items()
        if isinstance(info.node, ast.AsyncFunctionDef)
        and any(fnmatchcase(info.module, pat) for pat in patterns)
    )
    for coroutine in coroutines:
        for reached, chain in sorted(graph.reachable(coroutine).items()):
            info = graph.functions[reached]
            if reached not in site_cache:
                module = graph.modules[info.module]
                site_cache[reached] = _blocking_sites(info, module)
            for line, label in site_cache[reached]:
                route = " -> ".join(
                    graph.functions[q].name for q in chain
                )
                coroutine_name = coroutine.split(".")[-1]
                findings.append(Finding(
                    rule="async-safety",
                    path=info.path,
                    line=line,
                    symbol=f"{coroutine_name}<-{label}",
                    message=(
                        f"blocking call '{label}' (in {info.qualname}) "
                        f"is reachable from coroutine '{coroutine}' via "
                        f"{route}; the event loop must not block -- "
                        f"route it through loop.run_in_executor"
                    ),
                ))
    return findings
