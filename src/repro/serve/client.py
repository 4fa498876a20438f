"""Blocking client helpers for the ``repro serve`` HTTP surface.

A thin synchronous convenience layer over :mod:`http.client` (stdlib,
like everything else here) used by ``repro request``, the test suite
and the benchmark harness.  Everything speaks the JSON surface of
:class:`~repro.serve.server.ExperimentServer`; streamed NDJSON
responses are decoded line-by-line (``http.client`` undoes the chunked
transfer encoding transparently) so partial design points can be
observed as the server computes them.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Callable, Dict, Mapping, Optional

__all__ = ["ServeError", "get_json", "request_run"]


class ServeError(RuntimeError):
    """A non-2xx answer from the experiment service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        #: The HTTP status the server answered with.
        self.status = status


def _error_message(body: bytes) -> str:
    """The server's ``error`` field, or the raw body as a fallback."""
    try:
        payload = json.loads(body.decode("utf-8"))
        return str(payload.get("error", payload))
    except (UnicodeDecodeError, ValueError):
        return body.decode("utf-8", "replace").strip()


def get_json(host: str, port: int, path: str,
             timeout: Optional[float] = None) -> Dict[str, Any]:
    """GET one JSON document (``/health``, ``/stats``, ``/metrics``)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise ServeError(response.status, _error_message(body))
        return json.loads(body.decode("utf-8"))
    finally:
        conn.close()


def request_run(
    host: str,
    port: int,
    spec: Mapping[str, Any],
    stream: bool = False,
    timeout: Optional[float] = None,
    on_point: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """POST one experiment spec and return the final answer.

    Parameters
    ----------
    spec:
        The experiment spec as a JSON-clean mapping (``{"kind": ...,
        "params": {...}}``).
    stream:
        Ask for chunked NDJSON; every partial ``point`` event is passed
        to ``on_point`` as it arrives.
    timeout:
        Socket timeout in seconds (``None`` waits indefinitely).

    Returns
    -------
    dict
        ``{"cached": bool, "result": {...}}`` -- identical shape for
        streamed and plain requests.

    Raises
    ------
    ServeError
        On a non-2xx answer, or on a stream's ``error`` line (a
        computation that failed after the stream's headers went out).
    """
    body = json.dumps(dict(spec), sort_keys=True).encode("utf-8")
    path = "/run?stream=1" if stream else "/run"
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        # Closing the response releases the socket even when a stream
        # ends early (an error line raises before the end of the body).
        with conn.getresponse() as response:
            if response.status != 200:
                raise ServeError(response.status,
                                 _error_message(response.read()))
            if not stream:
                return json.loads(response.read().decode("utf-8"))
            final: Optional[Dict[str, Any]] = None
            while True:
                line = response.readline()
                if not line:
                    break
                event = json.loads(line.decode("utf-8"))
                kind = event.get("event")
                if kind == "result":
                    final = {"cached": event["cached"],
                             "result": event["result"]}
                elif kind == "error":
                    raise ServeError(event["status"], event["error"])
                elif on_point is not None:
                    on_point(event)
            if final is None:
                raise ServeError(502,
                                 "stream ended without a result event")
            return final
    finally:
        conn.close()
