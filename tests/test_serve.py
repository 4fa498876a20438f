"""Service-layer tests: protocol units, the run store, request
coalescing, streaming determinism, error paths, disconnect isolation,
graceful drain, and the chaos leg's bitwise-identity contract.

Counter-exact tests neutralize any externally supplied fault plan (the
autouse fixture, mirroring ``test_faults``) so the CI chaos leg can run
this file; the dedicated chaos test then re-activates the leg's
``REPRO_FAULTS`` spec (captured at import time) explicitly.
"""

import json
import os
import socket
import threading

import pytest

import repro.api
import repro.serve
from repro.api import ExperimentSpec, Session
from repro.api.runstore import RunStore
from repro.api.session import _point_dict
from repro.faults import RetryPolicy, inject
from repro.serve import (
    InflightTable,
    ServeError,
    ServerThread,
    get_json,
    request_run,
)
from repro.serve.protocol import (
    STATUS_REASONS,
    HttpRequest,
    ProtocolError,
    render_response,
)

#: The chaos leg's spec/seed, captured before the env-clearing fixture
#: runs (empty locally -- the default below is then used).
CI_CHAOS_SPEC = os.environ.get(inject.ENV_SPEC)
CI_CHAOS_SEED = os.environ.get(inject.ENV_SEED) or "1337"

DEFAULT_CHAOS_SPEC = ("crash:0.15,hang:0.08:0.05,task_error:0.15,"
                      "corrupt_store:0.3")

HOST = "127.0.0.1"

SWEEP = {"kind": "sweep",
         "params": {"workloads": ["gcc"], "limit": 4,
                    "instructions": 3000}}
SWEEP_TWO = {"kind": "sweep",
             "params": {"workloads": ["gcc", "mcf"], "limit": 4,
                        "instructions": 3000}}
PREDICT = {"kind": "predict",
           "params": {"workload": "gcc", "instructions": 3000}}

#: Run-dependent result fields ignored by bitwise comparisons (the
#: same convention as the test_faults chaos campaign).
_WALL_KEYS = ("seconds", "wall_seconds", "telemetry", "cached")


def _strip(obj):
    """Result payload minus wall-clock fields, for bitwise comparison."""
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items()
                if k not in _WALL_KEYS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    """Each test starts (and the file ends) with no active fault plan."""
    monkeypatch.delenv(inject.ENV_SPEC, raising=False)
    monkeypatch.delenv(inject.ENV_SEED, raising=False)
    inject.refresh()
    yield
    os.environ.pop(inject.ENV_SPEC, None)
    os.environ.pop(inject.ENV_SEED, None)
    inject.refresh()


def _result(reply):
    """The result payload of one client reply."""
    return reply["result"]["data"]


# ----------------------------------------------------------------------
# Protocol units
# ----------------------------------------------------------------------


class TestProtocol:
    def _request(self, body=b"{}", query=None):
        return HttpRequest("POST", "/run", query or {},
                           {"content-type": "application/json"}, body)

    def test_json_body_parses(self):
        assert self._request(b'{"a": 1}').json() == {"a": 1}

    def test_junk_body_is_a_400(self):
        with pytest.raises(ProtocolError) as err:
            self._request(b"{nope").json()
        assert err.value.status == 400

    def test_flags_accept_truthy_spellings(self):
        for value in ("1", "true", "yes", "on"):
            assert self._request(query={"stream": value}).flag("stream")
        assert not self._request(query={"stream": "0"}).flag("stream")
        assert not self._request().flag("stream")

    def test_render_response_is_wire_complete(self):
        raw = render_response(200, b'{"ok": true}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 12" in head
        assert body == b'{"ok": true}'

    def test_every_emitted_status_has_a_reason(self):
        for status in (200, 400, 404, 405, 413, 500, 503, 504):
            assert status in STATUS_REASONS


# ----------------------------------------------------------------------
# Sharded run store
# ----------------------------------------------------------------------


def _make_result(tag):
    """A distinct storable result keyed by ``tag``."""
    from repro.api.results import RunResult

    spec = ExperimentSpec("predict", workload="gcc",
                          instructions=3000 + tag)
    return RunResult(spec=spec, data={"tag": tag})


class TestShardedRunStore:
    def test_put_lands_in_the_shard_directory(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        result = _make_result(0)
        key = store.put(result)
        assert os.path.exists(os.path.join(
            str(tmp_path / "runs"), key[:2], f"{key}.run.json"))
        assert store.get(result.spec).data == {"tag": 0}
        assert result.spec in store

    def test_flat_entries_are_plain_misses_left_untouched(self, tmp_path):
        root = str(tmp_path / "runs")
        result = _make_result(1)
        os.makedirs(root)
        flat_path = os.path.join(root,
                                 f"{result.spec.fingerprint}.run.json")
        result.save(flat_path)
        store = RunStore(root, max_entries=1)
        assert len(store) == 0
        assert result.spec not in store
        assert store.get(result.spec) is None
        store.put(_make_result(2))
        store.put(_make_result(3))
        assert store.evictions == 1
        assert os.path.exists(flat_path)

    def test_lru_cap_evicts_least_recently_used(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"), max_entries=2)
        first, second, third = (_make_result(i) for i in range(3))
        store.put(first)
        store.put(second)
        store.get(first.spec)          # first is now most recent
        store.put(third)               # evicts second
        assert store.evictions == 1
        assert len(store) == 2
        assert store.get(second.spec) is None
        assert store.get(first.spec) is not None
        assert store.get(third.spec) is not None

    def test_recency_seed_is_deterministic(self, tmp_path):
        root = str(tmp_path / "runs")
        writer = RunStore(root)
        keys = [writer.put(_make_result(i)) for i in range(4)]
        reopened = RunStore(root, max_entries=4)
        assert len(reopened) == 4
        reopened.put(_make_result(99))  # evicts sorted-first key
        survivor_keys = sorted(keys)[1:]
        assert reopened.get(
            _make_result(keys.index(sorted(keys)[0])).spec) is None
        for key in survivor_keys:
            assert key in reopened

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunStore(str(tmp_path), max_entries=0)

    def test_serve_name_is_the_run_store(self):
        assert repro.serve.ShardedRunStore is repro.api.RunStore

    def test_shard_width_is_not_a_parameter(self, tmp_path):
        with pytest.raises(TypeError):
            repro.serve.ShardedRunStore(str(tmp_path), shard_width=2)


class TestRunStoreCounterSafety:
    def test_concurrent_access_keeps_counters_exact(self, tmp_path):
        """The counter-race regression: N threads hammering one store
        must account every hit/miss/put exactly (lock-guarded
        ``_count``), and every put must land readable."""
        store = RunStore(str(tmp_path / "runs"))
        per_thread, n_threads = 8, 6
        results = [_make_result(i) for i in range(per_thread)]

        def hammer():
            for result in results:
                store.put(result)
                assert store.get(result.spec) is not None
                store.get(_make_result(500).spec)  # guaranteed miss

        threads = [threading.Thread(target=hammer)
                   for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.puts == per_thread * n_threads
        assert store.hits == per_thread * n_threads
        assert store.misses == per_thread * n_threads
        assert store.corrupt == 0


# ----------------------------------------------------------------------
# Dedup / coalescing
# ----------------------------------------------------------------------


class TestInflightTable:
    def test_identical_keys_share_one_computation(self):
        import asyncio

        async def scenario():
            table = InflightTable()
            calls = []

            async def compute():
                calls.append(1)
                await asyncio.sleep(0.02)
                return "value"

            results = await asyncio.gather(
                *(table.run("k", compute) for _ in range(5)))
            return table, calls, results

        table, calls, results = asyncio.run(scenario())
        assert calls == [1]
        assert results == ["value"] * 5
        assert table.leaders == 1
        assert table.followers == 4
        assert len(table) == 0

    def test_waiter_cancellation_spares_the_computation(self):
        import asyncio

        async def scenario():
            table = InflightTable()

            async def compute():
                await asyncio.sleep(0.05)
                return "done"

            first = asyncio.ensure_future(table.run("k", compute))
            await asyncio.sleep(0.01)
            first.cancel()
            # A second waiter attached to the same computation still
            # gets the value: the cancel killed only the first wait.
            return await table.run("k", compute)

        assert asyncio.run(scenario()) == "done"


@pytest.fixture()
def serve(tmp_path):
    """A server thread over a fresh session + run store."""
    store = RunStore(str(tmp_path / "runs"))
    session = Session(workers=1, run_store=store)
    with ServerThread(session, port=0) as thread:
        yield thread
    session.close()


class TestCoalescing:
    def test_identical_concurrent_requests_compute_once(self, serve):
        n = 8
        replies = [None] * n
        barrier = threading.Barrier(n)

        def fire(i):
            barrier.wait()
            replies[i] = request_run(HOST, serve.port, SWEEP,
                                     timeout=120)

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert all(reply is not None for reply in replies)
        payloads = {json.dumps(_strip(_result(reply)), sort_keys=True)
                    for reply in replies}
        assert len(payloads) == 1
        stats = get_json(HOST, serve.port, "/stats")
        assert stats["server"]["computations"] == 1
        assert stats["server"]["coalesced"] == n - 1
        assert stats["server"]["requests"] >= n

    def test_warm_requests_hit_the_store(self, serve):
        cold = request_run(HOST, serve.port, PREDICT, timeout=120)
        warm = request_run(HOST, serve.port, PREDICT, timeout=120)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert _strip(_result(cold)) == _strip(_result(warm))
        stats = get_json(HOST, serve.port, "/stats")
        assert stats["server"]["store_hits"] == 1
        assert stats["server"]["computations"] == 1

    def test_leader_answered_by_the_store_is_not_a_computation(
            self, tmp_path):
        # The store can fill between a request's pre-check and its
        # turn on the session lock (an identical leader finishing);
        # Session.run then answers from the store: no computation.
        store = RunStore(str(tmp_path / "runs"))
        session = Session(workers=1, run_store=store)
        session.run(ExperimentSpec.coerce(SWEEP))
        session.lookup = lambda spec: None   # the pre-check missed
        with ServerThread(session, port=0) as thread:
            reply = request_run(HOST, thread.port, SWEEP, timeout=120)
            stats = get_json(HOST, thread.port, "/stats")
        session.close()
        assert reply["cached"] is True
        assert stats["dedup"]["leaders"] == 1
        assert stats["server"]["computations"] == 0
        assert stats["server"]["coalesced"] == 1
        assert stats["batch"] == {"computed": 0, "merged": 0}

    def test_compatible_sweeps_merge_into_one_engine_pass(self, tmp_path):
        # Sweeps that differ only in workloads no longer merge: each is
        # its own Session.run, and each reply holds only its own
        # workloads, equal to the same spec run solo.
        store = RunStore(str(tmp_path / "runs"))
        session = Session(workers=1, run_store=store)
        with ServerThread(session, port=0) as thread:
            replies = [None, None]
            barrier = threading.Barrier(2)

            def fire(i, spec):
                barrier.wait()
                replies[i] = request_run(HOST, thread.port, spec,
                                         timeout=120)

            threads = [
                threading.Thread(target=fire, args=(0, SWEEP)),
                threading.Thread(target=fire, args=(1, SWEEP_TWO)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = get_json(HOST, thread.port, "/stats")
        session.close()
        assert stats["server"]["computations"] == 2
        assert stats["batch"] == {"computed": 2, "merged": 0}
        # Each reply covers exactly its own workloads.
        assert [w["workload"]
                for w in _result(replies[0])["workloads"]] == ["gcc"]
        assert [w["workload"]
                for w in _result(replies[1])["workloads"]] == ["gcc",
                                                               "mcf"]
        with Session(workers=1) as direct:
            for spec, reply in zip((SWEEP, SWEEP_TWO), replies):
                solo = direct.run(ExperimentSpec.coerce(spec))
                assert _strip(_result(reply)) == _strip(
                    solo.to_dict()["data"])


# ----------------------------------------------------------------------
# Streaming determinism & served-vs-solo identity
# ----------------------------------------------------------------------


def _streamed_sweep(tmp_path, tag, spec=SWEEP_TWO):
    """One cold streamed sweep on a fresh server; returns (points, reply)."""
    store = RunStore(str(tmp_path / f"runs-{tag}"))
    session = Session(workers=1, run_store=store)
    points = []
    with ServerThread(session, port=0) as thread:
        reply = request_run(HOST, thread.port, spec, stream=True,
                            timeout=120, on_point=points.append)
    session.close()
    return points, reply


class TestStreaming:
    def test_ndjson_point_order_is_deterministic(self, tmp_path):
        first_points, first = _streamed_sweep(tmp_path, "a")
        second_points, second = _streamed_sweep(tmp_path, "b")
        assert first_points == second_points
        assert _strip(_result(first)) == _strip(_result(second))
        # Engine order: profile-major, config order per profile.
        workloads = [p["workload"] for p in first_points]
        assert workloads == ["gcc"] * 4 + ["mcf"] * 4

    def test_served_sweep_matches_direct_session_run(self, tmp_path):
        points, reply = _streamed_sweep(tmp_path, "served")
        with Session(workers=1) as direct:
            solo = direct.run(ExperimentSpec.coerce(SWEEP_TWO))
        assert _strip(_result(reply)) == _strip(solo.to_dict()["data"])

    @pytest.mark.parametrize("stream", [False, True])
    def test_served_predict_matches_direct_session_run(self, serve,
                                                       stream):
        # Every kind computes through Session.run; only sweeps stream
        # points, so a predict's on_point is never called.
        points = []
        reply = request_run(HOST, serve.port, PREDICT, stream=stream,
                            timeout=120, on_point=points.append)
        with Session(workers=1) as direct:
            solo = direct.run(ExperimentSpec.coerce(PREDICT),
                              on_point=points.append)
        assert points == []
        assert _strip(_result(reply)) == _strip(solo.to_dict()["data"])

    def test_concurrent_identical_streams_compute_once(self, tmp_path):
        # One computation; the leader's client gets every point in
        # engine order, a follower gets the result line only, and all
        # results are identical.
        expected = []
        with Session(workers=1) as direct:
            solo = direct.run(ExperimentSpec.coerce(SWEEP_TWO),
                              on_point=expected.append)
        expected = [{"event": "point", "workload": p.workload,
                     **_point_dict(p)} for p in expected]
        assert [p["workload"] for p in expected] == (["gcc"] * 4
                                                     + ["mcf"] * 4)

        n = 6
        store = RunStore(str(tmp_path / "runs"))
        session = Session(workers=1, run_store=store)
        points = [[] for _ in range(n)]
        replies = [None] * n
        barrier = threading.Barrier(n)

        def fire(i):
            barrier.wait()
            replies[i] = request_run(HOST, thread.port, SWEEP_TWO,
                                     stream=True, timeout=120,
                                     on_point=points[i].append)

        with ServerThread(session, port=0) as thread:
            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            stats = get_json(HOST, thread.port, "/stats")
        session.close()

        assert stats["server"]["computations"] == 1
        assert stats["server"]["coalesced"] == n - 1
        assert stats["server"]["streams"] == n
        payloads = {json.dumps(_strip(_result(reply)), sort_keys=True)
                    for reply in replies}
        assert payloads == {json.dumps(_strip(solo.to_dict()["data"]),
                                       sort_keys=True)}
        assert all(got in (expected, []) for got in points)
        assert points.count(expected) == 1

    def test_streamed_warm_hit_sends_result_only(self, serve):
        request_run(HOST, serve.port, SWEEP, timeout=120)
        points = []
        warm = request_run(HOST, serve.port, SWEEP, stream=True,
                           timeout=120, on_point=points.append)
        assert warm["cached"] is True
        assert points == []


class TestDisconnect:
    def test_disconnect_does_not_poison_shared_computation(self, serve):
        # One raw client sends the sweep and vanishes mid-response;
        # the coalesced computation must still complete for others.
        body = json.dumps(SWEEP).encode()
        quitter = socket.create_connection((HOST, serve.port))
        quitter.sendall(
            b"POST /run?stream=1 HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body)
        quitter.close()

        reply = request_run(HOST, serve.port, SWEEP, timeout=120)
        assert "workloads" in _result(reply)
        stats = get_json(HOST, serve.port, "/stats")
        assert stats["server"]["errors"] == 0
        health = get_json(HOST, serve.port, "/health")
        assert health["status"] == "ok"


class TestErrors:
    """A failed computation is answered, counted as an error and never
    as a disconnect; a stream that fails after its headers ends with
    one error line and closes."""

    @staticmethod
    def _missing_specs(tmp_path):
        missing = str(tmp_path / "missing.json")
        return missing, [
            {"kind": "predict", "params": {"profile": missing}},
            {"kind": "sweep", "params": {"workloads": ["gcc"],
                                         "space": missing, "limit": 2,
                                         "instructions": 3000}},
        ]

    @pytest.mark.parametrize("stream", [False, True])
    def test_missing_file_is_a_500(self, serve, tmp_path, stream):
        missing, specs = self._missing_specs(tmp_path)
        for spec in specs:
            with pytest.raises(ServeError) as err:
                request_run(HOST, serve.port, spec, stream=stream,
                            timeout=60)
            assert err.value.status == 500
            assert "FileNotFoundError" in str(err.value)
            assert missing in str(err.value)
        stats = get_json(HOST, serve.port, "/stats")
        assert stats["server"]["errors"] == len(specs)
        assert stats["server"]["disconnects"] == 0
        assert stats["server"]["streams"] == (len(specs) if stream
                                              else 0)

    def test_streamed_failure_after_headers_ends_the_stream(
            self, serve, tmp_path, gcc_profile):
        from repro.profiler.serialization import save_profile

        paths = [str(tmp_path / f"gcc-{i}.profile") for i in range(2)]
        for path in paths:
            save_profile(gcc_profile, path)
        spec = {"kind": "sweep", "params": {"profiles": paths,
                                            "limit": 2}}
        body = json.dumps(spec).encode()
        raw = b""
        with socket.create_connection((HOST, serve.port),
                                      timeout=60) as client:
            client.sendall(
                b"POST /run?stream=1 HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body)
            while True:  # the server must close; a hang times out here
                data = client.recv(65536)
                if not data:
                    break
                raw += data

        head, _, chunked = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert chunked.endswith(b"0\r\n\r\n")
        assert b"HTTP/1.1 400" not in chunked
        lines = [line for line in chunked.split(b"\r\n")
                 if line.startswith(b"{")]
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["event"] == "error"
        assert event["status"] == 400
        assert "duplicate profile name(s): gcc" in event["error"]

        with pytest.raises(ServeError) as err:
            request_run(HOST, serve.port, spec, stream=True, timeout=60)
        assert err.value.status == 400
        stats = get_json(HOST, serve.port, "/stats")
        assert stats["server"]["errors"] == 2
        assert stats["server"]["disconnects"] == 0


    @pytest.mark.parametrize("stream", [False, True])
    def test_spec_the_parser_cannot_read_is_answered(self, serve,
                                                     stream):
        # A str limit and a list kind fail as a SpecError naming the
        # parameter, answered 400 before any stream starts.
        specs = [
            ({"kind": "sweep", "params": {"workloads": ["gcc"],
                                          "limit": "4"}}, "'limit'"),
            ({"kind": ["sweep"]}, "'kind'"),
        ]
        for spec, parameter in specs:
            with pytest.raises(ServeError) as err:
                request_run(HOST, serve.port, spec, stream=stream,
                            timeout=60)
            assert err.value.status == 400
            assert parameter in str(err.value)
        stats = get_json(HOST, serve.port, "/stats")
        assert stats["server"]["errors"] == 2
        assert stats["server"]["disconnects"] == 0
        assert stats["server"]["streams"] == 0
        assert get_json(HOST, serve.port, "/health")["status"] == "ok"

    def test_descriptor_as_profile_is_a_400_and_service_survives(
            self, serve):
        # A non-string profile is a client error before anything opens
        # it -- here, the number of the server's listening socket.
        fd = serve.server._server.sockets[0].fileno()
        spec = {"kind": "predict", "params": {"profile": fd}}
        with pytest.raises(ServeError) as err:
            request_run(HOST, serve.port, spec, timeout=60)
        assert err.value.status == 400
        assert "'profile'" in str(err.value)
        stats = get_json(HOST, serve.port, "/stats")
        assert stats["server"]["errors"] == 1
        assert get_json(HOST, serve.port, "/health")["status"] == "ok"

    def test_duplicate_workloads_are_a_400(self, serve):
        spec = {"kind": "validate",
                "params": {"workloads": ["gcc", "gcc"], "limit": 2,
                           "instructions": 3000}}
        with pytest.raises(ServeError) as err:
            request_run(HOST, serve.port, spec, timeout=60)
        assert err.value.status == 400
        assert "duplicate workload name(s): gcc" in str(err.value)
        stats = get_json(HOST, serve.port, "/stats")
        assert stats["server"]["errors"] == 1
        assert stats["server"]["computations"] == 0

    def test_coalesced_failure_is_logged_once(self, caplog):
        # Four requests wait on one failing Session.run: each is
        # answered and counted, the traceback is logged once.
        n = 4
        session = Session(workers=1)
        release = threading.Event()

        def failing_run(spec, on_point=None):
            release.wait(60)
            raise RuntimeError("engine failed")

        session.run = failing_run
        statuses = [None] * n

        def fire(i):
            try:
                request_run(HOST, thread.port, SWEEP, timeout=120)
            except ServeError as exc:
                statuses[i] = exc.status

        import time
        with caplog.at_level("WARNING", logger="repro.serve.server"):
            with ServerThread(session, port=0) as thread:
                threads = [threading.Thread(target=fire, args=(i,))
                           for i in range(n)]
                for t in threads:
                    t.start()
                for _ in range(1000):
                    dedup = get_json(HOST, thread.port, "/stats")["dedup"]
                    if dedup["followers"] == n - 1:
                        break
                    time.sleep(0.01)
                release.set()
                for t in threads:
                    t.join(timeout=60)
                stats = get_json(HOST, thread.port, "/stats")
        session.close()

        assert dedup == {"leaders": 1, "followers": n - 1, "inflight": 1}
        assert statuses == [500] * n
        assert stats["server"]["errors"] == n
        logged = [record for record in caplog.records
                  if record.getMessage() == "computation failed"]
        assert len(logged) == 1
        assert "engine failed" in str(logged[0].exc_info[1])


class TestServiceSurface:
    def test_unknown_route_and_method_errors(self, serve):
        with pytest.raises(ServeError) as err:
            get_json(HOST, serve.port, "/nope")
        assert err.value.status == 404
        conn_err = None
        try:
            request_run(HOST, serve.port, {"kind": "sweep"})
        except ServeError as exc:
            conn_err = exc
        assert conn_err is not None and conn_err.status == 400

    def test_batching_knobs_are_gone(self, serve):
        from repro.serve import ExperimentServer

        session = Session(workers=1)
        try:
            for knob in ({"batch_window": 0.05}, {"max_batch": 4}):
                with pytest.raises(TypeError):
                    ExperimentServer(session, HOST, 0, **knob)
        finally:
            session.close()
        assert not hasattr(repro.serve, "SweepBatcher")
        request_run(HOST, serve.port, SWEEP, timeout=120)
        stats = get_json(HOST, serve.port, "/stats")
        assert stats["batch"] == {"computed": 1, "merged": 0}

    def test_metrics_endpoint_reports_disabled_without_telemetry(
            self, serve):
        assert get_json(HOST, serve.port, "/metrics") == {
            "enabled": False}

    def test_metrics_counters_equal_stats(self, tmp_path):
        # Every count reaches /metrics as it happens, including the
        # run-store hits of the warm path, which no Session.run sees.
        from repro.obs import Telemetry

        session = Session(workers=1,
                          run_store=RunStore(str(tmp_path / "runs")),
                          telemetry=Telemetry(trace=False, metrics=True))
        n = 4
        barrier = threading.Barrier(n)

        def fire():
            barrier.wait()
            request_run(HOST, thread.port, SWEEP, timeout=120)

        with ServerThread(session, port=0) as thread:
            request_run(HOST, thread.port, PREDICT, timeout=120)
            threads = [threading.Thread(target=fire) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            for spec in (PREDICT, PREDICT, SWEEP):
                assert request_run(HOST, thread.port, spec,
                                   timeout=120)["cached"] is True
            metrics = get_json(HOST, thread.port, "/metrics")
            stats = get_json(HOST, thread.port, "/stats")
        session.close()

        counters = metrics["counters"]
        store = {name[len("run_store."):]: value
                 for name, value in counters.items()
                 if name.startswith("run_store.")}
        assert store == {name: value
                         for name, value in stats["store"].items()
                         if value}
        assert store["hits"] >= 3
        assert (counters.get("serve.dedup_leaders", 0),
                counters.get("serve.dedup_followers", 0)) == (
            stats["dedup"]["leaders"], stats["dedup"]["followers"])
        assert stats["dedup"]["leaders"] >= 2
        assert counters["serve.store_hits"] == stats["server"][
            "store_hits"]

    def test_graceful_drain_finishes_inflight_work(self, tmp_path):
        store = RunStore(str(tmp_path / "runs"))
        session = Session(workers=1, run_store=store)
        thread = ServerThread(session, port=0)
        thread.__enter__()
        reply_box = {}

        def fire():
            reply_box["reply"] = request_run(HOST, thread.port, SWEEP,
                                             timeout=120)

        worker = threading.Thread(target=fire)
        worker.start()
        # Wait until the sweep is admitted before asking for the drain.
        import time
        for _ in range(500):
            if get_json(HOST, thread.port, "/health")["active"] >= 1:
                break
            time.sleep(0.01)
        thread.stop()            # drain waits for the in-flight sweep
        worker.join(timeout=60)
        session.close()
        assert "workloads" in _result(reply_box["reply"])

    def test_drain_closes_idle_keep_alive_connections(self):
        # A client parked between requests has nothing in flight: the
        # drain closes its connection at once instead of waiting out
        # drain_timeout for a request that may never come.
        import http.client
        import time

        session = Session(workers=1)
        thread = ServerThread(session, port=0, drain_timeout=10.0)
        thread.__enter__()
        conn = http.client.HTTPConnection(HOST, thread.port, timeout=30)
        try:
            conn.request("GET", "/health")
            with conn.getresponse() as response:
                assert response.status == 200
                response.read()
            start = time.monotonic()
            thread.stop()
            elapsed = time.monotonic() - start
            assert conn.sock.recv(1) == b""   # closed by the server
        finally:
            conn.close()
            session.close()
        assert elapsed < 5.0


# ----------------------------------------------------------------------
# Chaos: the serve suite under fault injection stays bitwise identical
# ----------------------------------------------------------------------


class TestChaosServe:
    def test_served_results_match_fault_free_bitwise(self, tmp_path,
                                                     monkeypatch):
        clean_points, clean_reply = _streamed_sweep(tmp_path, "clean")

        monkeypatch.setenv(inject.ENV_SPEC,
                           CI_CHAOS_SPEC or DEFAULT_CHAOS_SPEC)
        monkeypatch.setenv(inject.ENV_SEED, CI_CHAOS_SEED)
        inject.refresh()
        store = RunStore(str(tmp_path / "runs-chaos"))
        retry = RetryPolicy(max_attempts=6, timeout=30,
                            backoff_base=0.001, backoff_max=0.01)
        session = Session(workers=1, run_store=store, retry=retry)
        chaos_points = []
        with ServerThread(session, port=0) as thread:
            chaos_reply = request_run(HOST, thread.port, SWEEP_TWO,
                                      stream=True, timeout=120,
                                      on_point=chaos_points.append)
            warm = request_run(HOST, thread.port, SWEEP_TWO,
                               timeout=120)
        session.close()

        assert chaos_points == clean_points
        assert _strip(_result(chaos_reply)) == _strip(
            _result(clean_reply))
        # Even through store corruption, a warm re-read either serves
        # the identical artifact or transparently recomputes it.
        assert _strip(_result(warm)) == _strip(_result(clean_reply))
