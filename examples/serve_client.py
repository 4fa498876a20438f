"""The experiment service end to end: one warm server, many clients.

Starts an in-process ``ServerThread`` over a single Session with a
run store, then exercises the three things the service layer
buys:

1. request dedup -- four concurrent identical sweeps coalesce into
   exactly one engine computation;
2. warm cache hits -- a repeat request is served from the run store
   without touching the engine;
3. streaming -- a sweep with ``stream=True`` yields design points as
   NDJSON lines while the engine produces them.

Run with:  PYTHONPATH=src python examples/serve_client.py
"""

import json
import tempfile
import threading

from repro.api import RunStore, Session
from repro.serve import ServerThread, get_json, request_run

HOST = "127.0.0.1"

SWEEP = {
    "kind": "sweep",
    "params": {"workloads": ["gcc"], "limit": 8, "instructions": 4000},
}
N_CLIENTS = 4

with tempfile.TemporaryDirectory(prefix="serve_example_") as workdir:
    store = RunStore(f"{workdir}/runs")
    session = Session(workers=1, run_store=store)
    with ServerThread(session, port=0) as server:
        print(f"== serving on {HOST}:{server.port}")

        # 1. Four clients fire the identical sweep at once; the server
        #    runs the engine once and fans the result out.
        barrier = threading.Barrier(N_CLIENTS)
        replies = [None] * N_CLIENTS

        def fire(index):
            barrier.wait()
            replies[index] = request_run(HOST, server.port, SWEEP,
                                         timeout=120)

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(N_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = get_json(HOST, server.port, "/stats")
        payloads = {json.dumps(r["result"]["data"], sort_keys=True)
                    for r in replies}
        print(f"== dedup: {N_CLIENTS} identical requests -> "
              f"{stats['server']['computations']} computation(s), "
              f"{stats['server']['coalesced']} coalesced, "
              f"{len(payloads)} distinct payload(s)")

        # 2. The computation warmed the run store: a repeat
        #    request is a pure store hit.
        warm = request_run(HOST, server.port, SWEEP, timeout=60)
        print(f"== warm repeat: cached={warm['cached']}")

        # 3. Streaming: design points arrive one NDJSON line at a
        #    time, in the same deterministic order a direct engine
        #    run produces.
        points = []
        streamed = request_run(
            HOST, server.port,
            {"kind": "sweep",
             "params": {"workloads": ["gcc", "mcf"], "limit": 4,
                        "instructions": 4000}},
            stream=True, timeout=120,
            on_point=lambda point: points.append(point))
        print(f"== stream: {len(points)} points "
              f"({[p['workload'] for p in points]}), "
              f"cached={streamed['cached']}")
    session.close()
    print("== drained cleanly")
