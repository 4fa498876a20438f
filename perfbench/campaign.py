"""The three workloads and their rounds.

Every workload prints every end-to-end metric, so every round of every
workload runs all three activities, serially, in the same order:

1. ``dse``: a fresh ``Session(workers=1)`` runs a ``profile`` spec, a
   Table 6.3 ``sweep`` spec and a seeded GA ``search`` spec over the
   18,225-point space, all on the same five applications.
2. ``validate``: a fresh ``Session(workers=1)`` runs one ``validate``
   spec (analytical model against the cycle-level simulator) on the same
   five applications over a few Table 6.3 corners.
3. ``service``: two client threads, one keep-alive connection each,
   send their next slice of seeded requests to a ``repro serve``
   process (closed loop): warm reads of sweeps and predicts computed at
   set-up, and cold sweeps of new trace seeds that compute and write.

The workload named on the command line runs its own activity at full
size and the other two at a small fixed size (:func:`sizes_for`), so
each layer does most of its work in one workload and little in the
others.  Work is fixed, not time: the number of rounds follows from
``--seconds`` and a nominal round length measured on a 2-CPU host, and
every round repeats the same cold work on the same seeded inputs.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import multiprocessing
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from perfbench.harness import (REFERENCE_UNIT_S, OutputCheck, Tracer,
                               digest, host_work_unit, median,
                               stable_payload, tail, vm_hwm_mb)

#: One suite application per behaviour family: streaming, pointer
#: chasing, cache-resident FP, branchy integer and phased.  Footprints
#: range from L1-resident (gamess) to far beyond the LLC (mcf, 48 MB).
APPS = ("libquantum", "mcf", "gamess", "gcc", "astar")

#: Profiling grid of every dse/validate spec: 1000-instruction
#: micro-traces at the head of every 5000-instruction window.
SAMPLING = {"micro_trace": 1000, "window": 5000}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Host work units timed before every set-up, every timed phase and
#: every service burst, on each CPU in turn.  A shared host runs slower
#: or faster by up to half for seconds to minutes at a time, the
#: program and the unit alike, so every host-time end-to-end metric is
#: scaled by the run's median unit against
#: :data:`~perfbench.harness.REFERENCE_UNIT_S`, which lowers most of
#: their run-to-run spreads (``perfbench/README.md`` has the runs).
CALIBRATION_UNITS = 3

#: End-to-end metrics in host time, and in work per host second: the
#: first are divided by the run's host factor, the second multiplied.
HOST_TIMES = ("setup_s", "serve_p50_ms", "serve_tail_ms")
HOST_RATES = ("profile_instr_per_s", "sweep_points_per_s",
              "search_evals_per_s", "sim_instr_per_s", "serve_rps")

#: Processes that rerun the service requests in process after the
#: rounds, outside every timed window, on the second CPU that is idle
#: by then: the check is a fifth of a run's wall time, and every run
#: must fit the benchmark's time budget.
CHECK_WORKERS = 2

#: A run whose rounds pass this many times ``--seconds`` stops and
#: fails: its work, and with it what its metrics mean, would otherwise
#: depend on host speed.  At 2.5 a run that stops still ends within
#: 180 s at ``--seconds 24``.
OVERRUN_FACTOR = 2.5

#: Traced rounds also redo their work through direct calls, which about
#: doubles them; traced runs plan this many times fewer rounds.
TRACED_ROUND_COST = 1.5

#: GA seed of every search.  Not derived from the workload seed: the
#: GA's path decides how many model evaluations its ModelCache saves
#: (3210 to 3780 misses over eight seeds at budget 72), which would make
#: the search's work, not the code's speed, differ from seed to seed.
GA_SEED = 0


@dataclass(frozen=True)
class DseSize:
    """Per-app trace length and GA evaluation budget."""

    instructions: int
    budget: int


@dataclass(frozen=True)
class ValidateSize:
    """Per-app trace length and number of Table 6.3 corners."""

    instructions: int
    corners: int


@dataclass(frozen=True)
class ServiceSize:
    """Closed-loop clients, requests per client per round, warm sweep
    reads per warm predict read, each client's pause between a reply
    and its next request, and the trace length of every request's spec
    (warm and cold)."""

    clients: int
    reads: int
    writes: int
    sweeps_per_predict: int = 1
    think_s: float = 0.0
    instructions: int = 10_000


@dataclass(frozen=True)
class Sizes:
    """The work of one round, and its nominal length in seconds."""

    dse: DseSize
    validate: ValidateSize
    service: ServiceSize
    round_s: float


FULL = {
    "dse": DseSize(instructions=30_000, budget=72),
    "validate": ValidateSize(instructions=10_000, corners=4),
    "service": ServiceSize(clients=2, reads=15, writes=3, think_s=0.02),
}
#: The service mixes keep the median and the tail inside a latency mode
#: (predict replies ~1.5 ms, sweep replies ~6 ms, writes 150-600 ms),
#: not on the edge between two.  Full: half the reads are predicts and a
#: sixth of the requests writes, so the median falls inside the sweep
#: replies and p95 inside the writes.  Its clients pause 20 ms after
#: each reply: back to back, two clients keep the server saturated and
#: each read's latency depends on how their requests interleave (lock
#: hand-offs, the writes' batch windows), which moves the median between
#: modes from run to run.  Minor: one client (with two, each
#: reply's latency depends on how the server's threads share the
#: interpreter lock), three sweep reads per predict read and 5 writes in
#: 75, so the median falls inside the sweep replies and p95 inside the
#: writes.
MINOR = {
    "dse": DseSize(instructions=8_000, budget=48),
    "validate": ValidateSize(instructions=6_000, corners=2),
    "service": ServiceSize(clients=1, reads=70, writes=5,
                           sweeps_per_predict=3),
}
#: Seconds per round on a 2-CPU Xeon, used to plan a run of
#: ``round(seconds / round_s)`` rounds.
ROUND_S = {"dse": 5.8, "validate": 5.8, "service": 4.2}

WORKLOADS = tuple(ROUND_S)


def sizes_for(workload: str) -> Sizes:
    """Full size for the workload's own activity, minor for the rest."""
    if workload not in ROUND_S:
        raise ValueError(f"unknown workload {workload!r}")
    pick = {name: (FULL if name == workload else MINOR)[name]
            for name in WORKLOADS}
    return Sizes(round_s=ROUND_S[workload], **pick)


def search_space():
    """The 18,225-point space of the guided-search acceptance benchmark."""
    from repro.explore import DesignSpace, Parameter

    return DesignSpace(
        parameters=(
            Parameter.integer("dispatch_width", 2, 6),
            Parameter.integer("rob_size", 32, 288, 32),
            Parameter.categorical("l1d_kb", (16, 32, 64)),
            Parameter.categorical("l2_kb", (128, 256, 512)),
            Parameter.categorical("llc_mb", (1, 2, 4, 8, 16)),
            Parameter.real("frequency_ghz", 1.2, 3.6, 0.3),
        ),
        name="bench-guided-search",
    )


def corner_space(corners: int):
    """Table 6.3 corners: a small core (width 2, ROB 64) and a big one
    (width 6, ROB 256), each with a 2 MB and an 8 MB LLC; two corners
    keep only the small core with the small LLC and the big core with
    the big LLC."""
    from repro.explore import DesignSpace, Parameter

    small = "dispatch_width == 2 and rob_size == 64"
    big = "dispatch_width == 6 and rob_size == 256"
    constraint = f"({small}) or ({big})"
    if corners == 2:
        constraint = f"({small} and llc_mb == 2) or ({big} and llc_mb == 8)"
    elif corners != 4:
        raise ValueError("corners must be 2 or 4")
    return DesignSpace(
        parameters=(
            Parameter.categorical("dispatch_width", (2, 6)),
            Parameter.categorical("rob_size", (64, 256)),
            Parameter.categorical("llc_mb", (2, 8)),
        ),
        constraints=(constraint,),
        name=f"table-6.3-corners-{corners}",
    )


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """One client request: its class (read/write) and spec."""

    id: str
    cls: str
    spec: Dict[str, Any]


class Inputs:
    """Everything the workload seed decides.

    The program sees only the specs built here.  Reads cycle through the
    warm specs and writes through the applications in seeded orders, so
    every seed does the same amount of each kind of work.  Each client
    draws from its own stream, so a run with fewer rounds (a traced run)
    sends a prefix of the same requests.
    """

    def __init__(self, seed: int, sizes: Sizes, rounds: int) -> None:
        rng = random.Random(f"perfbench:{seed}")
        self.dse_trace_seed = rng.randrange(1, 10**6)
        self.validate_trace_seed = rng.randrange(1, 10**6)
        self.warm_trace_seed = rng.randrange(1, 10**6)
        size = sizes.service
        length = size.instructions
        used = set()

        def cold_seed(stream: random.Random) -> int:
            # Cold seeds come from a range no other seed here can take,
            # and never repeat within a run.
            while True:
                value = stream.randrange(10**6, 10**9)
                if value not in used:
                    used.add(value)
                    return value

        self.warm_specs = [
            spec for app in APPS for spec in (
                sweep_spec(app, length, self.warm_trace_seed),
                {"kind": "predict",
                 "params": {"workload": app, "instructions": length,
                            "trace_seed": self.warm_trace_seed}},
            )
        ]
        #: Per client, per round: the requests of that round's slice.
        self.schedule: List[List[List[Request]]] = []
        for client in range(size.clients):
            stream = random.Random(f"perfbench:{seed}:client{client}")
            reads = _cycle(stream, [
                spec for spec in self.warm_specs
                for _ in range(size.sweeps_per_predict
                               if spec["kind"] == "sweep" else 1)])
            apps = _cycle(stream, APPS)
            slices = []
            for round_index in range(rounds):
                kinds = ["read"] * size.reads + ["write"] * size.writes
                stream.shuffle(kinds)
                slices.append([
                    Request(
                        f"c{client}r{round_index}q{i}", kind,
                        next(reads) if kind == "read"
                        else sweep_spec(next(apps), length,
                                        cold_seed(stream)))
                    for i, kind in enumerate(kinds)
                ])
            self.schedule.append(slices)
        #: One cold in-process sweep per traced round (``api.run_sweep``).
        stream = random.Random(f"perfbench:{seed}:api")
        self.api_cold_specs = [
            sweep_spec(APPS[i % len(APPS)], length, cold_seed(stream))
            for i in range(rounds)]


_check_session = None


def _in_process_digest(spec: Dict[str, Any]) -> str:
    """Digest of ``spec`` run by this check process's own
    ``Session(workers=1)``, in the form a service reply carries it."""
    global _check_session
    from repro.api import Session

    if _check_session is None:
        _check_session = Session(workers=1)
    return digest(_check_session.run(spec).to_dict(include_telemetry=False))


def _cycle(rng: random.Random, items):
    """Endless passes over seeded shuffles of ``items``."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def sweep_spec(app: str, instructions: int,
               trace_seed: int) -> Dict[str, Any]:
    """A Table 6.3 sweep of one application's trace."""
    return {"kind": "sweep",
            "params": {"workloads": [app], "instructions": instructions,
                       "trace_seed": trace_seed}}


# ----------------------------------------------------------------------
# The service process and its clients
# ----------------------------------------------------------------------

class ServeProcess:
    """``python -m repro.cli serve --workers 1 --runs DIR`` as a child."""

    def __init__(self, root: str, runs: str, log: str) -> None:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._log = open(log, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "1",
             "--port", "0", "--runs", runs],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            text=True)
        self.port = self._wait_for_port(timeout=60.0)

    def _wait_for_port(self, timeout: float) -> int:
        """Read stdout until the server prints its listening address."""
        deadline = time.monotonic() + timeout
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                continue
            line = stdout.readline()
            if not line:
                break
            if "listening on http://" in line:
                return int(line.split("http://", 1)[1].split()[0]
                           .rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("repro serve did not start (see its log)")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM``."""
        return vm_hwm_mb(str(self.process.pid))

    def stop(self) -> None:
        """Drain with SIGTERM and wait; kill if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class Client:
    """One closed-loop client over one keep-alive connection."""

    def __init__(self, port: int, tracer: Tracer, check: OutputCheck,
                 reply_dir: str) -> None:
        self.tracer = tracer
        self.check = check
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=120)
        #: Client-side latency in seconds, by request class.
        self.latencies: Dict[str, List[float]] = {"read": [], "write": []}
        #: ``(digest of the request spec, SHA-256 of the raw reply body)``
        #: per reply.  Bodies are parsed after the rounds, one per
        #: distinct body, so the client sends its next request as soon
        #: as a reply is in: both clients keep the server busy instead
        #: of overlapping by a host-speed-dependent share.  Each
        #: distinct body is written once to ``reply_dir``, so the bodies
        #: stay out of this process's peak RSS (``peak_rss_mb`` of dse
        #: and validate).
        self.replies: List[Tuple[str, str]] = []
        self.reply_dir = reply_dir
        self._kept = set()
        self.completed = 0

    def post(self, spec: Dict[str, Any]) -> Tuple[int, bytes]:
        """POST one spec to ``/run``; the status and the raw body."""
        self.conn.request("POST", "/run", body=json.dumps(spec).encode(),
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, response.read()

    def get(self, path: str) -> Dict[str, Any]:
        """GET one JSON document."""
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status}")
        return json.loads(body)

    def send(self, request: Request, parent: Optional[int] = None,
             timed: bool = True) -> None:
        """Send one request; account for it and keep its reply digest."""
        self.check.attempt()
        try:
            with self.tracer.span("service.request", group=request.id,
                                  parent=parent, collect=False,
                                  cls=request.cls) as span:
                status, body = self.post(request.spec)
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            self.check.fail(f"{request.id}: {type(exc).__name__}: {exc}")
            return
        if status != 200:
            self.check.fail(f"{request.id}: HTTP {status}")
            return
        if timed:
            self.latencies[request.cls].append(span.seconds)
            self.completed += 1
        self.replies.append((digest(request.spec), self.keep(body)))

    def keep(self, body: bytes) -> str:
        """Write a raw reply body to ``reply_dir`` unless this client
        already did; its SHA-256."""
        body_hash = hashlib.sha256(body).hexdigest()
        if body_hash not in self._kept:
            self._kept.add(body_hash)
            with open(os.path.join(self.reply_dir, body_hash), "wb") as out:
                out.write(body)
        return body_hash

    def body(self, body_hash: str) -> bytes:
        """A raw reply body kept by :meth:`keep`."""
        with open(os.path.join(self.reply_dir, body_hash), "rb") as handle:
            return handle.read()

    def run_slice(self, requests: List[Request], parent: int,
                  think_s: float) -> None:
        """Thread body: one round's requests, each sent ``think_s``
        after the previous reply."""
        for position, request in enumerate(requests):
            if position and think_s:
                time.sleep(think_s)
            self.send(request, parent)

    def close(self) -> None:
        """Close the connection."""
        self.conn.close()


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

class Campaign:
    """One run of one workload: set-up, rounds, checks and metrics.

    Parameters
    ----------
    workload:
        ``dse``, ``validate`` or ``service``.
    seed:
        The workload seed (derives every input).
    seconds:
        Target measuring time; fixes the number of rounds.
    traced:
        Record spans and run the per-layer direct calls
        (:mod:`perfbench.layers`) on every other round.
    root / workdir:
        The checkout root and a scratch directory inside it.
    sizes:
        Override the round sizes (the smoke test uses tiny ones).
    """

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, root: str, workdir: str,
                 sizes: Optional[Sizes] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.root = root
        self.workdir = workdir
        self.sizes = sizes or sizes_for(workload)
        round_s = self.sizes.round_s * (TRACED_ROUND_COST if traced else 1)
        self.rounds = max(2, round(seconds / round_s))
        self.inputs = Inputs(seed, self.sizes, self.rounds)
        self.tracer = Tracer(enabled=traced)
        self.check = OutputCheck()
        self.server: Optional[ServeProcess] = None
        #: The round clients (the first is the last set-up's), and the
        #: closed clients of earlier set-ups (their replies are checked
        #: too).
        self.clients: List[Client] = []
        self.setup_clients: List[Client] = []
        self.setup_s: List[float] = []
        #: Seconds of every host work unit of the run.
        self.units: List[float] = []
        #: Timed samples by name, one per round.
        self.samples: Dict[str, List[float]] = {}
        #: ModelCache ``(hits, misses)`` per dse phase, per round.
        self.cache_counts: Dict[str, List[Tuple[int, int]]] = {}
        self.validate_report: Optional[Dict[str, Any]] = None
        self.rounds_run = 0
        self.window_s = 0.0
        self.peak_rss_mb = float("nan")
        self.stats_before: Dict[str, Any] = {}
        self.stats_after: Dict[str, Any] = {}
        self.sent = 0
        self.layers = None

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """Write the space files, then set up the service
        :data:`SETUP_REPEATS` times (process start, imports, listen, warm
        set); the last server stays up for the rounds."""
        self.search_space_path = os.path.join(self.workdir, "search.json")
        search_space().save(self.search_space_path)
        self.corners_path = os.path.join(self.workdir, "corners.json")
        corner_space(self.sizes.validate.corners).save(self.corners_path)
        self.reply_dir = os.path.join(self.workdir, "replies")
        os.makedirs(self.reply_dir)
        for index in range(SETUP_REPEATS):
            if self.server is not None:
                self.server.stop()
            self.calibrate()
            with self.tracer.span("setup", group=index) as span:
                self.server = ServeProcess(
                    self.root, os.path.join(self.workdir, f"runs-{index}"),
                    os.path.join(self.workdir, f"serve-{index}.log"))
                client = Client(self.server.port, self.tracer, self.check,
                                self.reply_dir)
                for i, spec in enumerate(self.inputs.warm_specs):
                    client.send(Request(f"warm{index}.{i}", "read", spec),
                                timed=False)
            self.setup_s.append(span.seconds)
            if index < SETUP_REPEATS - 1:
                client.close()
                self.setup_clients.append(client)
        self.clients = [client] + [
            Client(self.server.port, self.tracer, self.check, self.reply_dir)
            for _ in range(self.sizes.service.clients - 1)]
        self.stats_before = client.get("/stats")

    # -- rounds ----------------------------------------------------------

    def run(self) -> None:
        """Set up, run every round, then check the service replies."""
        self.setup()
        if self.traced:
            from perfbench.layers import Layers

            self.layers = Layers(self)
        start = time.perf_counter()
        for index in range(self.rounds):
            if time.perf_counter() - start > OVERRUN_FACTOR * self.seconds:
                self.check.attempt()
                self.check.fail(
                    f"stopped after {index} of {self.rounds} rounds: over "
                    f"{OVERRUN_FACTOR:g} x --seconds")
                break
            traced = self.traced and index % 2 == 0
            self.tracer.enabled = traced
            self.run_round(index, traced)
            self.rounds_run += 1
        self.window_s = time.perf_counter() - start
        self.tracer.enabled = self.traced
        self.stats_after = self.clients[0].get("/stats")
        self.peak_rss_mb = (self.server.peak_rss_mb()
                            if self.workload == "service"
                            else vm_hwm_mb())
        self.check_replies()

    def run_round(self, index: int, traced: bool) -> None:
        """One round: dse, validate, service, then (traced) the direct
        per-layer calls."""
        self.dse_part(index)
        traces = self.validate_part(index, keep_traces=traced)
        self.service_part(index)
        if traced and self.layers is not None:
            self.layers.direct_calls(index, traces)

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def calibrate(self) -> None:
        """Time :data:`CALIBRATION_UNITS` host work units on the next of
        this process's CPUs in turn.  Each CPU of a shared host runs
        fast or slow on its own, changing within a second, and the
        server and this process may run on any of them, so the units
        sample every CPU, not only the one this process happens to be
        on."""
        gc.collect()
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)
        os.sched_setaffinity(
            0, {cpus[len(self.units) // CALIBRATION_UNITS % len(cpus)]})
        try:
            self.units.extend(host_work_unit()
                              for _ in range(CALIBRATION_UNITS))
        finally:
            os.sched_setaffinity(0, allowed)

    def host_factor(self) -> float:
        """The run's median host work unit over the reference host's:
        above 1 when this host ran slower."""
        return median(self.units) / REFERENCE_UNIT_S

    def _run_spec(self, session, spec, name: str, index: int):
        """Run one spec on ``session`` as a timed, checked operation."""
        self.calibrate()
        self.check.attempt()
        try:
            with self.tracer.span(name, group=index) as span:
                result = session.run(spec)
        except Exception as exc:  # noqa: BLE001 -- counted as a failure
            self.check.fail(f"{name}: {type(exc).__name__}: {exc}")
            return None
        payload = stable_payload(result.kind, result.data)
        self.check.same_as_first(name, payload)
        self._sample(name, span.seconds)
        return result

    def dse_part(self, index: int):
        """profile, sweep and search on a fresh session."""
        from repro.api import ExperimentSpec, Session

        size = self.sizes.dse
        seed = self.inputs.dse_trace_seed
        common = dict(workloads=list(APPS), instructions=size.instructions,
                      **SAMPLING)
        session = Session(workers=1)
        cache = session.model.cache
        phases = (
            ("profile", ExperimentSpec("profile", seed=seed, **common)),
            ("sweep", ExperimentSpec("sweep", trace_seed=seed, **common)),
            ("search", ExperimentSpec(
                "search", trace_seed=seed, space=self.search_space_path,
                budget=size.budget, seed=GA_SEED, **common)),
        )
        for name, spec in phases:
            hits, misses = cache.hits, cache.misses
            result = self._run_spec(session, spec, f"dse.{name}", index)
            if result is None:
                continue
            counts = (cache.hits - hits, cache.misses - misses)
            self.check.same_as_first(f"dse.{name}.cache", counts)
            self.cache_counts.setdefault(name, []).append(counts)
            data = result.data
            if name == "profile":
                work = sum(entry["instructions"]
                           for entry in data["profiles"])
                ok = work == len(APPS) * size.instructions
            elif name == "sweep":
                work = sum(len(w["points"]) for w in data["workloads"])
                ok = work == len(APPS) * data["n_configs"] == len(APPS) * 243
            else:
                evaluations = data["trajectory"]["evaluations"]
                work = len(evaluations)
                ok = (work == size.budget and data["best"]["fitness"]
                      == min(e["fitness"] for e in evaluations))
            if not ok:
                self.check.fail(f"dse.{name}: malformed result")
            self._sample(f"dse.{name}.work", work)
        session.close()

    def validate_part(self, index: int, keep_traces: bool):
        """One validate spec on a fresh session; the session's traces
        when ``keep_traces`` (the session itself is dropped, so its
        objects never slow a later part's garbage collections)."""
        from repro.api import ExperimentSpec, Session

        size = self.sizes.validate
        session = Session(workers=1)
        spec = ExperimentSpec(
            "validate", workloads=list(APPS),
            instructions=size.instructions,
            trace_seed=self.inputs.validate_trace_seed,
            space=self.corners_path, **SAMPLING)
        result = self._run_spec(session, spec, "validate.run", index)
        if result is not None:
            report = result.data
            simulated = sum(w["instructions"] * w["n_configs"]
                            for w in report["workloads"])
            if (len(report["workloads"]) != len(APPS)
                    or simulated != len(APPS) * size.corners
                    * size.instructions):
                self.check.fail("validate.run: malformed report")
            self._sample("validate.run.work", simulated)
            self.validate_report = report
        traces = None
        if keep_traces:
            traces = [session.trace(app, size.instructions,
                                    self.inputs.validate_trace_seed)
                      for app in APPS]
        session.close()
        return traces

    def service_part(self, index: int) -> None:
        """Every client sends its slice of this round, concurrently."""
        self.calibrate()
        before = sum(client.completed for client in self.clients)
        with self.tracer.span("service.burst", group=index) as burst:
            threads = [
                threading.Thread(
                    target=client.run_slice,
                    args=(self.inputs.schedule[i][index], burst.id,
                          self.sizes.service.think_s))
                for i, client in enumerate(self.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        completed = sum(client.completed for client in self.clients) - before
        self.sent += sum(len(self.inputs.schedule[i][index])
                         for i in range(len(self.clients)))
        self._sample("service.completed", completed)
        self._sample("service.burst_s", burst.seconds)

    # -- checks ----------------------------------------------------------

    def check_replies(self) -> None:
        """Every reply must equal the same spec run in process.  Each
        distinct spec runs once, after the rounds, in one of
        :data:`CHECK_WORKERS` forked processes."""
        specs = {digest(spec): spec for spec in self.inputs.warm_specs}
        for slices in self.inputs.schedule:
            for requests in slices:
                for request in requests:
                    specs[digest(request.spec)] = request.spec
        clients = self.clients + self.setup_clients
        keys = list(dict.fromkeys(
            key for client in clients for key, _ in client.replies))
        with ProcessPoolExecutor(
                CHECK_WORKERS,
                mp_context=multiprocessing.get_context("fork")) as pool:
            expected = dict(zip(keys, pool.map(
                _in_process_digest, [specs[key] for key in keys])))
        got: Dict[str, str] = {}
        for client in clients:
            for key, body_hash in client.replies:
                if body_hash not in got:
                    got[body_hash] = digest(
                        json.loads(client.body(body_hash))["result"])
                self.check.equal(f"reply {key[:12]}", expected[key],
                                 got[body_hash])

    # -- metrics ---------------------------------------------------------

    def latencies(self, cls: Optional[str] = None) -> List[float]:
        """Client-side latencies of the measured rounds, in seconds."""
        classes = (cls,) if cls else ("read", "write")
        return [value for client in self.clients for c in classes
                for value in client.latencies[c]]

    def rate(self, phase: str) -> float:
        """Work per host second of one phase over all rounds: the total
        work of its runs over their total time.  Host speed drifts for
        every phase at once over 10-20 s, so the median of a few rounds
        is one round's reading; the total uses every round."""
        return (sum(self.samples[f"{phase}.work"])
                / sum(self.samples[phase]))

    def end_to_end(self) -> Dict[str, float]:
        """The end-to-end metrics of this run (tracing off), host times
        and rates scaled to the reference host."""
        factor = self.host_factor()
        metrics = self.unscaled()
        for name in HOST_TIMES:
            metrics[name] /= factor
        for name in HOST_RATES:
            metrics[name] *= factor
        return metrics

    def unscaled(self) -> Dict[str, float]:
        """The end-to-end metrics as this host measured them."""
        accuracy = _accuracy(self.validate_report)
        every = self.latencies()
        return {
            "setup_s": median(self.setup_s),
            "peak_rss_mb": self.peak_rss_mb,
            "profile_instr_per_s": self.rate("dse.profile"),
            "sweep_points_per_s": self.rate("dse.sweep"),
            "search_evals_per_s": self.rate("dse.search"),
            "sim_instr_per_s": self.rate("validate.run"),
            "cpi_error_pct": accuracy[0],
            "power_error_pct": accuracy[1],
            "serve_rps": (sum(self.samples["service.completed"])
                          / sum(self.samples["service.burst_s"])),
            "serve_p50_ms": 1000.0 * median(every),
            "serve_tail_ms": 1000.0 * tail(every)[1],
        }

    def notes(self) -> List[str]:
        """Human-readable context printed above the result line."""
        every = self.latencies()
        percentile, _ = tail(every)
        lines = [
            f"workload {self.workload} seed {self.seed}: "
            f"{self.rounds_run} of {self.rounds} rounds in "
            f"{self.window_s:.1f}s, set-up samples "
            f"{[round(s, 3) for s in self.setup_s]}",
            f"serve_tail_ms is p{percentile:g} of {len(every)} requests",
            f"host factor {self.host_factor():.4f}: median of "
            f"{len(self.units)} host work units over {REFERENCE_UNIT_S} s",
            "unscaled: " + json.dumps(self.unscaled()),
        ]
        lines.extend(f"failure: {reason}" for reason in self.check.reasons)
        return lines

    def close(self) -> None:
        """Stop the server and close the connections."""
        if self.layers is not None:
            self.layers.close()
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.stop()
            self.server = None


def _accuracy(report: Optional[Dict[str, Any]]) -> Tuple[float, float]:
    """Mean relative CPI and power error (percent) over every
    (application, configuration) pair of a validate report."""
    if report is None:
        return float("nan"), float("nan")
    return tuple(
        100.0 * sum(w[key]["mean"] * w[key]["count"]
                    for w in report["workloads"])
        / sum(w[key]["count"] for w in report["workloads"])
        for key in ("cpi_error", "power_error"))
