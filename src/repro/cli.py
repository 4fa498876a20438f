"""Command-line interface: profile, predict, simulate, sweep, search,
validate, dvfs, run, serve, request, stats, lint.

Every experiment subcommand is a thin adapter over the programmatic API
(:mod:`repro.api`): it parses flags into a declarative
:class:`~repro.api.spec.ExperimentSpec`, executes it on a
:class:`~repro.api.session.Session`, and renders the unified
:class:`~repro.api.results.RunResult` payload -- output is bitwise
identical to the historical hand-wired implementations.  ``run``
executes spec JSON files directly (one warm session for the whole
campaign, with optional run-store skipping of already-computed specs).

Examples::

    python -m repro.cli workloads
    python -m repro.cli profile gcc --instructions 50000 -o gcc.profile
    python -m repro.cli profile gcc mcf lbm --store .profile-store \\
        --json profiles.json
    python -m repro.cli predict gcc.profile
    python -m repro.cli predict gcc.profile --width 2 --rob 64 --llc-mb 2
    python -m repro.cli simulate gcc --instructions 50000
    python -m repro.cli sweep gcc.profile
    python -m repro.cli sweep gcc.profile mcf.profile \\
        --workers 4 --objective edp
    python -m repro.cli search gcc.profile --optimizer ga \\
        --budget 200 --objective edp --seed 0
    python -m repro.cli search gcc.profile --space space.json \\
        --optimizer sa --budget 500 --trajectory out.json
    python -m repro.cli validate gcc mcf --limit 64 --workers 4 \\
        --json report.json
    python -m repro.cli dvfs gcc.profile --power-cap 12
    python -m repro.cli run sweep.json validate.json \\
        --workers 4 --runs .run-store
    python -m repro.cli serve --port 8765 --workers 4 --runs .run-store
    python -m repro.cli request sweep.json --port 8765 --stream
    python -m repro.cli request --stats --port 8765
    python -m repro.cli lint --json lint-report.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro import obs
from repro.api import (
    ExperimentSpec,
    RunStore,
    Session,
    SpecError,
    config_from_overrides,
)
from repro.core.interval import MLP_MODELS
from repro.explore.search import OBJECTIVES, OPTIMIZERS
from repro.simulator import simulate
from repro.workloads import generate_trace, make_workload, workload_names


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, default=None,
                        help="dispatch width override")
    parser.add_argument("--rob", type=int, default=None,
                        help="ROB size override")
    parser.add_argument("--llc-mb", type=int, default=None,
                        help="LLC size in MB")
    parser.add_argument("--frequency", type=float, default=None,
                        help="clock frequency in GHz")
    parser.add_argument("--prefetch", action="store_true",
                        help="enable the stride prefetcher")


def _add_telemetry_arguments(
    parser: argparse.ArgumentParser, suppress: bool = False
) -> None:
    """Add the global ``--trace`` / ``--metrics`` telemetry flags.

    The flags live on the root parser (with real defaults) *and* on
    every subcommand with ``default=argparse.SUPPRESS``, so they can be
    written either before or after the subcommand without the
    subparser's default clobbering a root-level value.
    """
    trace_kwargs = ({"default": argparse.SUPPRESS} if suppress
                    else {"default": None})
    metrics_kwargs = ({"default": argparse.SUPPRESS} if suppress
                      else {"default": False})
    parser.add_argument(
        "--trace", metavar="FILE.json", dest="trace", **trace_kwargs,
        help="record wall-time spans and export a Chrome "
             "trace_event file (open in chrome://tracing / Perfetto, "
             "or summarize with 'repro stats')")
    parser.add_argument(
        "--metrics", action="store_true", dest="metrics",
        **metrics_kwargs,
        help="print a telemetry summary (span table, cache/store "
             "counters) after the command")


def _error(message: str) -> int:
    """Print one CLI error line to stderr and return exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_workloads(args: argparse.Namespace) -> int:
    for name in workload_names():
        print(name)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    if args.output is None and args.store is None:
        return _error("need -o/--output and/or --store")
    try:
        spec = ExperimentSpec(
            "profile",
            workloads=list(args.workloads),
            output=args.output,
            store=args.store,
            instructions=args.instructions,
            micro_trace=args.micro_trace,
            window=args.window,
            seed=args.seed,
            reuse_sample_rate=args.reuse_sample_rate,
            reuse_seed=args.reuse_seed,
        )
        with Session() as session:
            result = session.run(spec)
    except SpecError as exc:
        return _error(str(exc))
    for entry in result.data["profiles"]:
        destinations = [d for d in (
            entry["output"],
            f"store:{entry['fingerprint'][:12]}"
            if entry["fingerprint"] else None,
        ) if d]
        print(f"profiled {entry['instructions']} instructions of "
              f"{entry['workload']} ({entry['micro_traces']} "
              f"micro-traces) -> {', '.join(destinations)}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result.data, handle, indent=2)
        print(f"report -> {args.json}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    try:
        spec = ExperimentSpec(
            "predict",
            profile=args.profile,
            mlp_model=args.mlp_model,
            width=args.width,
            rob=args.rob,
            llc_mb=args.llc_mb,
            frequency=args.frequency,
            prefetch=args.prefetch,
        )
        with Session() as session:
            data = session.run(spec).data
    except (SpecError, OSError) as exc:
        return _error(str(exc))
    print(f"workload:  {data['workload']}")
    print(f"config:    {data['config']}")
    print(f"CPI:       {data['cpi']:.3f}   "
          f"(IPC {1 / data['cpi']:.3f})")
    print(f"time:      {data['seconds'] * 1e3:.3f} ms")
    print(f"power:     {data['power_watts']:.2f} W "
          f"(static {data['power_static_watts']:.2f} W)")
    print(f"energy:    {data['energy_joules'] * 1e3:.3f} mJ   "
          f"EDP {data['edp']:.3e}   ED2P {data['ed2p']:.3e}")
    print("CPI stack: " + "  ".join(
        f"{key}={value:.3f}"
        for key, value in data["cpi_stack"].items()
    ))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    with obs.span("workloads.trace", workload=args.workload):
        trace = generate_trace(
            make_workload(args.workload, seed=args.seed),
            max_instructions=args.instructions,
        )
    config = config_from_overrides(
        width=args.width,
        rob=args.rob,
        llc_mb=args.llc_mb,
        frequency=args.frequency,
        prefetch=args.prefetch,
    )
    with obs.span("simulate.run", workload=args.workload,
                  config=config.name):
        result = simulate(trace, config)
    obs.metrics().inc("sim.points")
    print(f"workload:  {trace.name}")
    print(f"config:    {config.name}")
    print(f"cycles:    {result.cycles:.0f}")
    print(f"CPI:       {result.cpi:.3f}")
    print(f"branches:  {result.branches} "
          f"({result.branch_mispredictions} mispredicted)")
    print(f"MPKI:      " + "/".join(f"{m:.1f}" for m in result.mpki))
    print("CPI stack: " + "  ".join(
        f"{key}={value:.3f}" for key, value in result.cpi_stack().items()
    ))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = ExperimentSpec(
            "sweep",
            profiles=list(args.profiles),
            space=args.space,
            objective=args.objective,
            limit=args.limit,
        )
        with Session(workers=args.workers) as session:
            data = session.run(spec).data
    except (SpecError, OSError) as exc:
        return _error(str(exc))
    for w in data["workloads"]:
        print(f"{w['workload']}: {len(w['points'])} designs evaluated; "
              f"{len(w['frontier'])} Pareto-optimal:")
        for p in w["frontier"]:
            print(f"  {p['config']:<32s} "
                  f"{p['seconds'] * 1e6:9.1f} us "
                  f"{p['power_watts']:7.2f} W  CPI {p['cpi']:5.2f}")
    best = data["best_average"]
    if best is not None:
        if best["objective"]:
            print(f"best average config ({best['objective']}): "
                  f"{best['config']}")
        else:
            print(f"best average config: {best['config']}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    # Argument-only validation first, before any profile I/O.
    if args.population is not None and args.optimizer != "ga":
        return _error("--population only applies to --optimizer ga")
    if args.batch_size is not None and args.optimizer == "ga":
        return _error("use --population for the GA batch size")
    try:
        spec = ExperimentSpec(
            "search",
            profiles=list(args.profiles),
            space=args.space,
            optimizer=args.optimizer,
            objective=args.objective,
            power_cap=args.power_cap,
            budget=args.budget,
            seed=args.seed,
            population=args.population,
            batch_size=args.batch_size,
        )
        with Session(workers=args.workers) as session:
            data = session.run(spec).data
    except (SpecError, OSError) as exc:
        return _error(str(exc))
    trajectory = data["trajectory"]
    evaluations = trajectory["evaluations"]
    evaluated = len(evaluations)
    size = data["space_size"]
    print(f"space:       {data['space']} ({size} valid configurations)")
    print(f"workloads:   {', '.join(data['workloads'])}")
    print(f"optimizer:   {data['optimizer']} (seed {data['seed']})")
    print(f"objective:   {data['objective']} (minimized, averaged over "
          f"{len(data['workloads'])} workload(s))")
    print(f"evaluated:   {evaluated} configs "
          f"({100.0 * evaluated / size:.1f}% of the space, budget "
          f"{data['budget']}) in {trajectory['wall_seconds']:.2f} s")
    best = data["best"]
    point_text = " ".join(f"{k}={v}" for k, v in best["point"].items())
    print(f"best {data['objective']}: {best['fitness']:.6e} "
          f"(found at evaluation {best['index'] + 1})")
    print(f"best point:  {point_text}")
    print(f"best config: {best['config']}")
    improvements = []
    best_so_far = None
    for evaluation in evaluations:
        if best_so_far is None or evaluation["fitness"] < best_so_far:
            best_so_far = evaluation["fitness"]
            improvements.append(evaluation)
    shown = improvements[-8:]
    print(f"best-so-far curve ({len(improvements)} improvements, "
          f"last {len(shown)} shown):")
    for evaluation in shown:
        print(f"  eval {evaluation['index'] + 1:>5d}: "
              f"{evaluation['fitness']:.6e}")
    if args.trajectory:
        with open(args.trajectory, "w") as handle:
            json.dump(trajectory, handle, indent=2)
        print(f"trajectory -> {args.trajectory}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        spec = ExperimentSpec(
            "validate",
            workloads=list(args.workloads),
            space=args.space,
            limit=args.limit,
            instructions=args.instructions,
            micro_trace=args.micro_trace,
            window=args.window,
            trace_seed=args.trace_seed,
            train_fraction=args.train_fraction,
            seed=args.seed,
        )
        with Session(workers=args.workers) as session:
            data = session.run(spec).data
    except (SpecError, OSError) as exc:
        return _error(str(exc))
    # The payload is ValidationReport.as_dict(); render it through the
    # one canonical formatter instead of duplicating it here.
    from repro.explore.validate import report_lines

    print("\n".join(report_lines(data)))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(data, handle, indent=2)
        print(f"report -> {args.json}")
    return 0


def cmd_dvfs(args: argparse.Namespace) -> int:
    frequencies = None
    if args.frequencies:
        try:
            frequencies = [float(text)
                           for text in args.frequencies.split(",")]
        except ValueError:
            return _error(f"--frequencies must be comma-separated "
                          f"numbers, got {args.frequencies!r}")
    try:
        spec = ExperimentSpec(
            "dvfs",
            profile=args.profile,
            frequencies=frequencies,
            power_cap=args.power_cap,
            width=args.width,
            rob=args.rob,
            llc_mb=args.llc_mb,
            frequency=args.frequency,
            prefetch=args.prefetch,
        )
        with Session(workers=args.workers) as session:
            data = session.run(spec).data
    except (SpecError, OSError) as exc:
        return _error(str(exc))
    print(f"workload: {data['workload']}   base: {data['base_config']}")
    for index, p in enumerate(data["points"]):
        marker = ("   <- ED2P optimum"
                  if index == data["optimum_index"] else "")
        print(f"  {p['frequency_ghz']:5.2f} GHz "
              f"@{p['vdd']:.2f} V  "
              f"{p['seconds'] * 1e3:8.3f} ms  "
              f"{p['power_watts']:6.2f} W  "
              f"{p['energy_joules'] * 1e3:8.3f} mJ  "
              f"ED2P {p['ed2p']:.3e}{marker}")
    cap = data["power_cap"]
    if cap is not None:
        if cap["config"] is None:
            print(f"no operating point fits {cap['watts']:.1f} W")
        else:
            print(f"fastest under {cap['watts']:.1f} W: {cap['config']} "
                  f"({cap['seconds'] * 1e3:.3f} ms, "
                  f"{cap['power_watts']:.2f} W)")
    return 0


def _recovery_lines(session) -> List[str]:
    """Readable recovery summary from the session's plain-int counters."""
    pairs = [
        ("task retries", session.pool.retries),
        ("task timeouts", session.pool.timeouts),
        ("pool restarts", session.pool.restarts),
        ("worker crashes", session.pool.worker_crashes),
        ("pool give-ups", session.pool.give_ups),
    ]
    if session.run_store is not None:
        pairs.append(("run-store entries quarantined",
                      session.run_store.quarantined))
    pairs.append(("failed specs", len(session.failures)))
    lines = [f"  {label:<32} {value}"
             for label, value in pairs if value]
    if not lines:
        return []
    return ["-- recovery " + "-" * 48] + lines


def cmd_run(args: argparse.Namespace) -> int:
    from repro.faults import ENV_SEED, ENV_SPEC, FaultSpecError, \
        RetryPolicy
    from repro.faults import inject as faults_inject

    specs = []
    for path in args.specs:
        try:
            specs.append(ExperimentSpec.load(path))
        except (OSError, ValueError) as exc:
            return _error(f"{path}: {exc}")
    if args.faults is not None:
        # Validate the spec before exporting it to worker processes.
        try:
            faults_inject.FaultPlan.parse(args.faults,
                                          seed=args.faults_seed)
        except FaultSpecError as exc:
            return _error(f"--faults: {exc}")
        os.environ[ENV_SPEC] = args.faults
        os.environ[ENV_SEED] = str(args.faults_seed)
    try:
        faults_inject.refresh()
    except FaultSpecError as exc:
        return _error(f"{faults_inject.ENV_SPEC}: {exc}")
    try:
        retry = RetryPolicy(max_attempts=args.task_retries + 1,
                            timeout=args.task_timeout)
    except ValueError as exc:
        return _error(str(exc))
    try:
        with Session(workers=args.workers,
                     profile_store=args.store,
                     run_store=args.runs,
                     retry=retry) as session:
            results = session.run_many(specs,
                                       keep_going=args.keep_going)
            failures = list(session.failures)
            recovery = _recovery_lines(session)
    except SpecError as exc:
        return _error(str(exc))
    for path, result in zip(args.specs, results):
        if result is None:
            print(f"{'FAILED':<6} {'-':<9} {'':>14} {path}")
            continue
        status = "cached" if result.cached else "ran"
        print(f"{status:<6} {result.kind:<9} "
              f"[{result.spec_fingerprint[:12]}] {path}")
    computed = sum(1 for r in results
                   if r is not None and not r.cached)
    cached = sum(1 for r in results if r is not None and r.cached)
    summary = (f"{len(results)} spec(s): {computed} computed, "
               f"{cached} from run store")
    if failures:
        summary += f", {len(failures)} failed"
    print(summary)
    if recovery:
        print("\n".join(recovery))
    for spec, exc in failures:
        print(f"failed: {spec.kind} "
              f"[{spec.fingerprint[:12]}] ({type(exc).__name__}: {exc})",
              file=sys.stderr)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump([r.to_dict() if r is not None else None
                       for r in results], handle, indent=2)
        print(f"results -> {args.json}")
    return 1 if failures else 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ExperimentServer

    try:
        run_store = None
        if args.runs is not None:
            run_store = RunStore(args.runs, max_entries=args.max_entries)
        session = Session(workers=args.workers,
                          profile_store=args.store,
                          run_store=run_store)
    except (SpecError, ValueError) as exc:
        return _error(str(exc))
    server = ExperimentServer(
        session, args.host, args.port,
        max_queue=args.max_queue,
        request_timeout=args.request_timeout,
        drain_timeout=args.drain_timeout,
    )

    async def _serve() -> None:
        await server.start()
        print(f"repro serve: listening on "
              f"http://{server.host}:{server.port} "
              f"(workers={args.workers}, "
              f"runs={args.runs or 'none'})")
        print("repro serve: POST /run | GET /health /stats /metrics")
        sys.stdout.flush()
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        return _error(f"bind {args.host}:{args.port}: {exc}")
    finally:
        session.close()
    print(f"repro serve: drained "
          f"({server.requests} request(s), "
          f"{server.computations} computation(s), "
          f"{server.coalesced} coalesced)")
    return 0


def cmd_request(args: argparse.Namespace) -> int:
    from repro.serve import ServeError, get_json, request_run

    if args.stats:
        try:
            payload = get_json(args.host, args.port, "/stats",
                               timeout=args.timeout)
        except (ServeError, OSError) as exc:
            return _error(str(exc))
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.spec is None:
        return _error("spec file required (or use --stats)")
    try:
        spec = ExperimentSpec.load(args.spec)
    except (OSError, ValueError) as exc:
        return _error(f"{args.spec}: {exc}")

    def on_point(event) -> None:
        print(json.dumps(event, sort_keys=True))

    try:
        reply = request_run(
            args.host, args.port, spec.to_dict(),
            stream=args.stream, timeout=args.timeout,
            on_point=on_point if args.stream else None)
    except (ServeError, OSError) as exc:
        return _error(str(exc))
    status = "cached" if reply["cached"] else "computed"
    print(f"{status:<8} {spec.kind:<9} "
          f"[{spec.fingerprint[:12]}] {args.spec}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(reply, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"result -> {args.json}")
    return 0


def _span_table_lines(spans) -> List[str]:
    """Fixed-width table of aggregated span stats (name-keyed dicts)."""
    lines = [f"{'span':<28} {'calls':>6} {'total ms':>10} "
             f"{'mean ms':>10} {'max ms':>10}"]
    for name, record in spans.items():
        lines.append(
            f"{name:<28} {record['calls']:>6d} "
            f"{record['total_ms']:>10.2f} {record['mean_ms']:>10.2f} "
            f"{record['max_ms']:>10.2f}"
        )
    return lines


def _metrics_lines(metrics) -> List[str]:
    """Readable lines for one metrics snapshot (or delta)."""
    lines: List[str] = []
    if metrics.get("counters"):
        lines.append("counters:")
        for name, value in metrics["counters"].items():
            lines.append(f"  {name:<36} {value}")
    if metrics.get("gauges"):
        lines.append("gauges:")
        for name, value in metrics["gauges"].items():
            lines.append(f"  {name:<36} {value}")
    if metrics.get("histograms"):
        lines.append("histograms:")
        for name, record in metrics["histograms"].items():
            mean = (record["sum"] / record["count"]
                    if record["count"] else 0.0)
            lines.append(
                f"  {name:<36} count={record['count']} "
                f"mean={mean:.6g} min={record['min']:.6g} "
                f"max={record['max']:.6g}"
            )
    return lines


def _render_telemetry(telemetry) -> None:
    """Print the ``--metrics`` summary: span table + metric values."""
    summary = telemetry.summary()
    print("-- telemetry " + "-" * 47)
    if summary["spans"]:
        print("\n".join(_span_table_lines(summary["spans"])))
    lines = _metrics_lines(summary["metrics"])
    if lines:
        print("\n".join(lines))


def cmd_stats(args: argparse.Namespace) -> int:
    try:
        events = obs.read_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        return _error(f"{args.trace_file}: {exc}")
    spans = obs.span_stats(events)
    metrics = None
    for event in events:
        if event.get("name") == obs.METRICS_EVENT:
            metrics = event.get("args", {}).get("metrics")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"spans": spans, "metrics": metrics},
                      handle, indent=2)
        print(f"stats -> {args.json}")
        return 0
    n_events = sum(1 for e in events if e.get("ph") == "X")
    print(f"{args.trace_file}: {n_events} span event(s), "
          f"{len(spans)} distinct span(s)")
    if spans:
        print("\n".join(_span_table_lines(spans)))
    if metrics:
        print("\n".join(_metrics_lines(metrics)))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    # Imported here so the analysis package stays off the hot path of
    # every experiment subcommand.
    from repro.analysis import LintError, run_lint

    try:
        report = run_lint(args.paths or ["src/repro"],
                          rules=args.rules or None)
    except (LintError, OSError) as exc:
        return _error(str(exc))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_json_dict(), handle, indent=2)
            handle.write("\n")
        print(f"report -> {args.json}")
    print("\n".join(report.render_lines()))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Micro-architecture independent analytical processor "
            "performance and power modeling (ISPASS 2015 reproduction)"
        ),
    )
    _add_telemetry_arguments(parser)
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("workloads",
                                help="list the synthetic workload suite")
    sub.set_defaults(func=cmd_workloads)

    sub = subparsers.add_parser(
        "profile",
        help="profile workload(s) to a file and/or a profile store")
    sub.add_argument("workloads", nargs="+", metavar="workload",
                     help="workload name(s) (see 'workloads')")
    sub.add_argument("-o", "--output", default=None,
                     help="output profile path (JSON; exactly one "
                          "workload)")
    sub.add_argument("--store", default=None, metavar="DIR",
                     help="archive the profiles in this "
                          "content-addressed ProfileStore "
                          "(<fingerprint>.profile.json)")
    sub.add_argument("--instructions", type=int, default=50_000)
    sub.add_argument("--micro-trace", type=int, default=1000)
    sub.add_argument("--window", type=int, default=5000)
    sub.add_argument("--seed", type=int, default=42,
                     help="seed of the trace generator")
    sub.add_argument("--reuse-sample-rate", "--sample-rate",
                     dest="reuse_sample_rate", type=float, default=1.0,
                     help="fraction of accesses recorded by the reuse "
                          "pass (StatStack burst sampling)")
    sub.add_argument("--reuse-seed", type=int, default=0,
                     help="seed of the reuse-sampling RNG")
    sub.add_argument("--json", default=None, metavar="OUT.json",
                     help="write a machine-readable profiling summary "
                          "(fingerprints, timings)")
    sub.set_defaults(func=cmd_profile)

    sub = subparsers.add_parser("predict",
                                help="evaluate the analytical model")
    sub.add_argument("profile", help="profile file from 'profile'")
    sub.add_argument("--mlp-model", choices=MLP_MODELS,
                     default="stride")
    _add_config_arguments(sub)
    sub.set_defaults(func=cmd_predict)

    sub = subparsers.add_parser("simulate",
                                help="run the cycle-level simulator")
    sub.add_argument("workload")
    sub.add_argument("--instructions", type=int, default=50_000)
    sub.add_argument("--seed", type=int, default=42)
    _add_config_arguments(sub)
    sub.set_defaults(func=cmd_simulate)

    sub = subparsers.add_parser("sweep",
                                help="design-space sweep + Pareto front")
    sub.add_argument("profiles", nargs="+", metavar="profile",
                     help="one or more profile files from 'profile'")
    sub.add_argument("--space", default=None, metavar="FILE.json",
                     help="declarative DesignSpace JSON (default: the "
                          "Table 6.3 grid)")
    sub.add_argument("--objective", choices=sorted(OBJECTIVES),
                     default=None,
                     help="rank the best average config by this "
                          "objective (default: average CPI)")
    sub.add_argument("--limit", type=int, default=None,
                     help="evaluate only the first N configurations "
                          "(0 evaluates none)")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes (1 = serial)")
    sub.set_defaults(func=cmd_sweep)

    sub = subparsers.add_parser(
        "search",
        help="guided design-space search under an evaluation budget")
    sub.add_argument("profiles", nargs="+", metavar="profile",
                     help="one or more profile files from 'profile'")
    sub.add_argument("--space", default=None, metavar="FILE.json",
                     help="declarative DesignSpace JSON (default: the "
                          "Table 6.3 grid)")
    sub.add_argument("--optimizer", choices=sorted(OPTIMIZERS),
                     default="ga",
                     help="search agent (default: ga)")
    sub.add_argument("--objective", choices=sorted(OBJECTIVES),
                     default="edp",
                     help="scalar to minimize (default: edp)")
    sub.add_argument("--power-cap", type=float, default=None,
                     metavar="WATTS",
                     help="discard configs whose predicted power "
                          "exceeds this cap")
    sub.add_argument("--budget", type=int, default=200,
                     help="max distinct configurations to evaluate")
    sub.add_argument("--seed", type=int, default=0,
                     help="optimizer RNG seed (same seed = same "
                          "trajectory at any worker count)")
    sub.add_argument("--population", type=int, default=None,
                     help="GA population size (ga only)")
    sub.add_argument("--batch-size", type=int, default=None,
                     help="proposals per engine batch (random/hill/sa)")
    sub.add_argument("--workers", type=int, default=1,
                     help="engine worker processes (1 = serial)")
    sub.add_argument("--trajectory", default=None, metavar="OUT.json",
                     help="write the full search trajectory as JSON")
    sub.set_defaults(func=cmd_search)

    sub = subparsers.add_parser(
        "validate",
        help="model-vs-simulator validation campaign (thesis "
             "S7.4/S7.5)")
    sub.add_argument("workloads", nargs="+", metavar="workload",
                     help="workload names (see 'workloads')")
    sub.add_argument("--space", default=None, metavar="FILE.json",
                     help="declarative DesignSpace JSON (default: the "
                          "Table 6.3 grid)")
    sub.add_argument("--limit", type=int, default=None,
                     help="validate only the first N configurations")
    sub.add_argument("--instructions", type=int, default=20_000,
                     help="trace length per workload")
    sub.add_argument("--micro-trace", type=int, default=1000)
    sub.add_argument("--window", type=int, default=5000)
    sub.add_argument("--trace-seed", type=int, default=42,
                     help="seed of the trace generators")
    sub.add_argument("--train-fraction", type=float, default=0.25,
                     help="fraction of simulated designs used to train "
                          "the S7.5 empirical baseline (0 disables)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed of the baseline subsample RNG")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes for both sweeps "
                          "(1 = serial; results are identical)")
    sub.add_argument("--json", default=None, metavar="OUT.json",
                     help="write the full report as JSON")
    sub.set_defaults(func=cmd_validate)

    sub = subparsers.add_parser(
        "dvfs",
        help="DVFS operating-point exploration (thesis S7.2-7.3)")
    sub.add_argument("profile", help="profile file from 'profile'")
    sub.add_argument("--frequencies", default=None,
                     metavar="GHZ[,GHZ...]",
                     help="comma-separated operating frequencies "
                          "(default: the Table 7.2 grid)")
    sub.add_argument("--power-cap", type=float, default=None,
                     metavar="WATTS",
                     help="also report the fastest point under this cap")
    sub.add_argument("--workers", type=int, default=1,
                     help="evaluate the grid through the session's "
                          "SweepEngine with this many workers "
                          "(1 = serial)")
    _add_config_arguments(sub)
    sub.set_defaults(func=cmd_dvfs)

    sub = subparsers.add_parser(
        "run",
        help="execute declarative ExperimentSpec JSON file(s) on one "
             "warm session")
    sub.add_argument("specs", nargs="+", metavar="spec.json",
                     help="ExperimentSpec JSON files (kind: profile | "
                          "predict | sweep | search | validate | dvfs)")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes shared by every stage "
                          "(1 = serial)")
    sub.add_argument("--store", default=None, metavar="DIR",
                     help="ProfileStore directory that profile specs "
                          "without a store of their own archive "
                          "their profiles into")
    sub.add_argument("--runs", default=None, metavar="DIR",
                     help="RunStore directory: cache results by spec "
                          "fingerprint and skip already-computed specs "
                          "(also the campaign checkpoint: re-running "
                          "resumes where an aborted campaign stopped)")
    sub.add_argument("--json", default=None, metavar="OUT.json",
                     help="write every RunResult artifact as one JSON "
                          "list")
    sub.add_argument("--task-timeout", type=float, default=None,
                     metavar="SEC",
                     help="per-task wall-clock budget on the worker "
                          "pool; a task exceeding it restarts the pool "
                          "and is retried (default: no timeout)")
    sub.add_argument("--task-retries", type=int, default=2, metavar="N",
                     help="retries per task after the first attempt "
                          "(default: 2)")
    sub.add_argument("--keep-going", action="store_true",
                     help="record a failing spec and continue the "
                          "campaign instead of aborting (exit status 1 "
                          "if anything failed)")
    sub.add_argument("--faults", default=None, metavar="SPEC",
                     help="deterministic fault injection, e.g. "
                          "'crash:0.05,hang:0.01:0.2,corrupt_store:0.02'"
                          " (kinds: crash | hang | task_error | "
                          "corrupt_store); equivalent to setting "
                          "REPRO_FAULTS")
    sub.add_argument("--faults-seed", type=int, default=0, metavar="N",
                     help="seed of the fault-injection hash "
                          "(REPRO_FAULTS_SEED; default: 0)")
    sub.set_defaults(func=cmd_run)

    sub = subparsers.add_parser(
        "serve",
        help="serve experiments over HTTP from one warm session "
             "(dedup, streamed sweeps, sharded run store)")
    sub.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    sub.add_argument("--port", type=int, default=8765,
                     help="bind port; 0 picks a free one "
                          "(default: 8765)")
    sub.add_argument("--workers", type=int, default=1,
                     help="session worker processes (1 = serial)")
    sub.add_argument("--store", default=None, metavar="DIR",
                     help="ProfileStore directory that profile "
                          "requests without a store of their own "
                          "archive their profiles into")
    sub.add_argument("--runs", default=None, metavar="DIR",
                     help="RunStore directory: results cached by "
                          "content key")
    sub.add_argument("--max-entries", type=int, default=None,
                     metavar="N",
                     help="LRU cap on stored runs (default: unbounded)")
    sub.add_argument("--max-queue", type=int, default=32, metavar="N",
                     help="in-flight request cap; excess requests get "
                          "503 (default: 32)")
    sub.add_argument("--request-timeout", type=float, default=None,
                     metavar="SEC",
                     help="per-request deadline; 504 on expiry while "
                          "the computation still warms the store "
                          "(default: none)")
    sub.add_argument("--drain-timeout", type=float, default=10.0,
                     metavar="SEC",
                     help="seconds SIGTERM/SIGINT waits for in-flight "
                          "requests; idle connections close at once "
                          "(default: 10)")
    sub.set_defaults(func=cmd_serve)

    sub = subparsers.add_parser(
        "request",
        help="POST an ExperimentSpec JSON file to a running "
             "'repro serve'")
    sub.add_argument("spec", nargs="?", default=None,
                     metavar="spec.json",
                     help="ExperimentSpec JSON file (omit with "
                          "--stats)")
    sub.add_argument("--host", default="127.0.0.1",
                     help="server address (default: 127.0.0.1)")
    sub.add_argument("--port", type=int, default=8765,
                     help="server port (default: 8765)")
    sub.add_argument("--stream", action="store_true",
                     help="stream NDJSON partial results (one JSON "
                          "line per design point) as they are computed")
    sub.add_argument("--stats", action="store_true",
                     help="print the server's GET /stats document and "
                          "exit")
    sub.add_argument("--timeout", type=float, default=None,
                     metavar="SEC",
                     help="socket timeout (default: wait indefinitely)")
    sub.add_argument("--json", default=None, metavar="OUT.json",
                     help="write the full reply as JSON")
    sub.set_defaults(func=cmd_request)

    sub = subparsers.add_parser(
        "stats",
        help="summarize a --trace file: span table + recorded metrics")
    sub.add_argument("trace_file", metavar="TRACE.json",
                     help="trace file written by --trace")
    sub.add_argument("--json", default=None, metavar="OUT.json",
                     help="write the span/metrics summary as JSON")
    sub.set_defaults(func=cmd_stats)

    sub = subparsers.add_parser(
        "lint",
        help="determinism & contract static analysis "
             "(see repro.analysis)")
    sub.add_argument("paths", nargs="*", metavar="PATH",
                     help="files/directories to analyze (default: "
                          "src/repro)")
    sub.add_argument("--rules", action="append", default=None,
                     metavar="RULE",
                     help="run only this rule (repeatable; default: "
                          "all registered rules)")
    sub.add_argument("--json", default=None, metavar="OUT.json",
                     help="also write the machine-readable report")
    sub.set_defaults(func=cmd_lint)

    # The global telemetry flags work before or after the subcommand
    # (SUPPRESS keeps a subcommand-less occurrence authoritative).
    for sub in subparsers.choices.values():
        _add_telemetry_arguments(sub, suppress=True)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    want_metrics = bool(getattr(args, "metrics", False))
    if trace_path is None and not want_metrics:
        return args.func(args)
    # Either flag lights up the whole layer: spans feed both the trace
    # file and the --metrics span table, and the metrics registry
    # feeds the summary and the trace's trailing metrics event.
    telemetry = obs.Telemetry(trace=True, metrics=True)
    with obs.activate(telemetry):
        status = args.func(args)
    if trace_path is not None:
        telemetry.tracer.export(trace_path, metrics=telemetry.metrics)
        print(f"trace -> {trace_path}")
    if want_metrics:
        _render_telemetry(telemetry)
    return status


if __name__ == "__main__":
    sys.exit(main())
