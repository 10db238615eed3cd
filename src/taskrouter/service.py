"""Routing front end shared by the CLI and the serve loop.

A :class:`Router` bundles a loaded scheduler state, the expansion parameters
regenerated from its featurizer config, and an executor registry. Serving
speaks newline-delimited JSON over stdio or a local TCP socket: one response
line per request line, in order, and a malformed request produces an error
line instead of killing the loop. One class, ``_Requests``, frames request
lines for both transports.

stdio is a blocking loop of bounded reads. TCP is one thread running one
``selectors`` loop over non-blocking sockets, so routing never competes with
itself for the interpreter lock. It serves at most :data:`MAX_CONNECTIONS`
clients at once, and a connection with :data:`OUTPUT_LIMIT` response bytes
unsent is neither read nor answered until its client reads.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from . import library
from .checks import digits, json_fields, parse_json
from .features import ExpansionParams, featurize_batch
from .library import ExecutorRegistry
from .scheduler import SchedulerState, Weights, load_weights, predict_proba

__all__ = ["MAX_CONNECTIONS", "OUTPUT_LIMIT", "REQUEST_LINE_LIMIT", "RouteResult", "Router",
           "serve_stdio", "serve_tcp", "parse_endpoint"]

# Longest request line the serve loop accepts, newline included.
REQUEST_LINE_LIMIT = 1 << 20
# Most TCP connections served at once; one more is sent an error line, shut
# down for writing and closed.
MAX_CONNECTIONS = 64
# Pending response bytes at which a TCP connection stops being read and answered.
OUTPUT_LIMIT = 1 << 20
# Most bytes taken from a request stream in one read.
_READ_SIZE = 1 << 16


def _encode(response: dict) -> bytes:
    return (json.dumps(response) + "\n").encode("utf-8")


_TOO_LONG = _encode({"error": f"request line exceeds {REQUEST_LINE_LIMIT} bytes"})
_TOO_MANY = _encode({"error": f"too many connections; at most {MAX_CONNECTIONS}"})
_NO_EXECUTOR = (None, None, "")  # name, chunk and response fragment of a missing executor


@dataclass(frozen=True)
class RouteResult:
    """Outcome of routing one instruction."""

    task_id: int
    probabilities: list[float]
    executor_name: str | None
    action_chunk: np.ndarray | None
    missing_executor: bool
    latency_micros: int

    def to_json_dict(self) -> dict:
        doc: dict = {
            "task_id": self.task_id,
            "probabilities": self.probabilities,
            "missing_executor": self.missing_executor,
        }
        if not self.missing_executor:
            doc["executor_name"] = self.executor_name
            doc["action_chunk"] = self.action_chunk.tolist()
        doc["latency_micros"] = self.latency_micros
        return doc


class Router:
    """A read-only routing snapshot: state, expansion params, registry.

    ``state`` is a :class:`SchedulerState`, or the :class:`Weights` that
    :meth:`from_files` loads: a route reads only its W and featurizer. The
    expansion params are made from the featurizer config, whose seed fixes
    them; the state's ``sha256``, which ``stats`` reports, covers that
    config too. The registry is read only here, at construction: for
    each executor of a class the state can route to (``task_id < d_K``), its
    action chunk (read-only) and its encoded response fragment are computed
    once, so a request only featurizes, predicts and picks the most probable
    task. :attr:`registry` keeps every spec, reachable or not.
    """

    def __init__(
        self, state: SchedulerState | Weights, registry: ExecutorRegistry | None = None
    ) -> None:
        if state.featurizer is None:
            raise ValueError(
                "state carries no featurizer config; it cannot route raw text"
            )
        if state.d_k < 1:
            raise ValueError("state has no trained classes; train it first")
        self.state = state
        self.registry = registry if registry is not None else ExecutorRegistry()
        self.params = ExpansionParams.for_config(state.featurizer)
        # task id -> (executor name, action chunk, its route response fragment)
        self._executors: dict[int, tuple[str, np.ndarray, str]] = {}
        for spec in self.registry:
            if spec.task_id >= state.d_k:
                continue
            chunk = library.execute(spec, None).actions
            chunk.flags.writeable = False
            fragment = (f', "executor_name": {json.dumps(spec.name)}, '
                        f'"action_chunk": {json.dumps(chunk.tolist())}')
            self._executors[spec.task_id] = (spec.name, chunk, fragment)

    @classmethod
    def from_files(
        cls, state_path: str | Path, registry_path: str | Path | None = None
    ) -> "Router":
        """A router on the weights of a state file, verified whole; L is never held."""
        registry = (
            library.load_manifest(registry_path) if registry_path is not None else None
        )
        return cls(load_weights(state_path), registry)

    def route(self, text: str) -> RouteResult:
        """Featurize, pick the most probable task, and look up its executor's chunk."""
        start = time.perf_counter()
        vector = featurize_batch([text], self.state.featurizer, self.params)[0]
        probs = predict_proba(self.state, vector)
        task_id = int(np.argmax(probs))
        name, chunk, _ = self._executors.get(task_id, _NO_EXECUTOR)
        latency = int(round((time.perf_counter() - start) * 1e6))
        return RouteResult(
            task_id=task_id,
            probabilities=[float(p) for p in probs],
            executor_name=name,
            action_chunk=chunk,
            missing_executor=name is None,
            latency_micros=latency,
        )

    def stats(self) -> dict:
        """The served state's shape and fingerprint; ``state_sha256`` is its file's ``sha256``."""
        return {
            "d_K": self.state.d_k,
            "tasks_seen": self.state.tasks_seen,
            "gamma": self.state.gamma,
            "state_sha256": self.state.sha256,
        }

    def handle_request_line(self, line: str) -> bytes:
        """One request line to one response line, newline included; never raises."""
        try:
            doc = parse_json(line, "invalid JSON")
            if not isinstance(doc, dict):
                return _encode({"error": "request must be a JSON object"})
            op = doc.get("op")
            if op == "route":
                text = json_fields(doc, "route request", ("op", "text"))["text"]
                if not isinstance(text, str):
                    return _encode({"error": "route request needs a string 'text' field"})
                result = self.route(text)
                # The bytes of _encode(result.to_json_dict()), from the stored fragment.
                head = json.dumps({"task_id": result.task_id, "probabilities": result.probabilities,
                                   "missing_executor": result.missing_executor})
                fragment = self._executors.get(result.task_id, _NO_EXECUTOR)[2]
                return (f'{head[:-1]}{fragment}, "latency_micros": '
                        f'{result.latency_micros}}}\n').encode("utf-8")
            if op == "stats":
                json_fields(doc, "stats request", ("op",))
                return _encode(self.stats())
            return _encode({"error": f"unknown op {op!r}"})
        except Exception as exc:  # a bad request must not kill the loop
            return _encode({"error": str(exc)})


class _Requests:
    """The request lines of one byte stream, fed to it in pieces of any size.

    Every framing rule of both transports lives here: a line holds at most
    :data:`REQUEST_LINE_LIMIT` bytes, its newline included; a longer one gets
    one error line, and the rest of it is dropped up to its newline without
    being held; blank lines are skipped; bytes are decoded as UTF-8 with
    undecodable ones replaced; and an unterminated last line is answered
    once the stream ends.
    """

    def __init__(self) -> None:
        self.pending = bytearray()
        self.discarding = False  # inside an oversized line, dropping up to its newline
        self.ended = False

    def feed(self, data: bytes) -> None:
        """Append bytes read from the stream; empty ``data`` marks its end."""
        if data:
            self.pending += data
        else:
            self.ended = True

    def answer(self, router: Router) -> bytes | None:
        """The response line to the next whole request held, or None if none is."""
        while True:
            if self.discarding:
                end = self.pending.find(b"\n")
                if end < 0:
                    self.pending.clear()
                    return None
                del self.pending[: end + 1]
                self.discarding = False
                continue
            end = self.pending.find(b"\n", 0, REQUEST_LINE_LIMIT)
            if end >= 0:
                raw = self.pending[: end + 1]
                del self.pending[: end + 1]
            elif len(self.pending) > REQUEST_LINE_LIMIT:
                self.discarding = True
                return _TOO_LONG
            elif self.ended and self.pending:
                raw = bytes(self.pending)
                self.pending.clear()
            else:
                return None
            line = raw.decode("utf-8", errors="replace").strip()
            if line:
                return router.handle_request_line(line)


def serve_stdio(router: Router, in_stream: IO[bytes], out_stream: IO[bytes]) -> None:
    """Serve newline-delimited JSON requests from a binary stream until it closes.

    The stream is read in ``read1`` calls of bounded size, and each response
    is flushed as soon as it is written.
    """
    requests = _Requests()
    while not requests.ended:
        requests.feed(in_stream.read1(_READ_SIZE))
        while (response := requests.answer(router)) is not None:
            out_stream.write(response)
            out_stream.flush()


def parse_endpoint(endpoint: str) -> tuple[str, str, int]:
    """Parse "stdio" or "tcp:HOST:PORT" into (kind, host, port)."""
    if endpoint == "stdio":
        return ("stdio", "", 0)
    if endpoint.startswith("tcp:"):
        rest = endpoint[4:]
        host, sep, port_text = rest.rpartition(":")
        if not sep or not host:
            raise ValueError(f"bad tcp endpoint {endpoint!r}; expected tcp:HOST:PORT")
        port = digits(port_text, f"the port of endpoint {endpoint!r}")
        if port > 65535:
            raise ValueError(f"port out of range in endpoint {endpoint!r}")
        return ("tcp", host, port)
    raise ValueError(f"unknown endpoint {endpoint!r}; expected 'stdio' or 'tcp:HOST:PORT'")


class _Connection:
    """One TCP client: its request framing and the response bytes not yet sent."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.requests = _Requests()
        self.out = bytearray()

    def pump(self, router: Router) -> None:
        """Answer held requests and send, until they run out or the socket is full.

        No request is answered while :data:`OUTPUT_LIMIT` bytes or more wait
        to be sent, so a client that does not read holds a bounded buffer.
        """
        while True:
            while len(self.out) < OUTPUT_LIMIT:
                response = self.requests.answer(router)
                if response is None:
                    break
                self.out += response
            if not self.out:
                return
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:sent]
            if self.out:
                return

    def events(self) -> int:
        """The readiness to wait for next; 0 once the connection is done."""
        read = not self.requests.ended and len(self.out) < OUTPUT_LIMIT
        return (selectors.EVENT_READ if read else 0) | (
            selectors.EVENT_WRITE if self.out else 0
        )


def _accept(listener: socket.socket, selector: selectors.BaseSelector) -> None:
    try:
        sock, _ = listener.accept()
    except OSError:  # the client gave up before it was accepted, or no fd is left
        return
    sock.setblocking(False)
    # The listener is registered too, so the map holds one more than the clients.
    if len(selector.get_map()) > MAX_CONNECTIONS:
        with sock:
            try:
                sock.send(_TOO_MANY)  # fits the empty send buffer of a new socket
                # Closing with unread bytes resets the connection, which can
                # cost the client the error line: end the write side first,
                # then drain one bounded read of what has already arrived.
                sock.shutdown(socket.SHUT_WR)
                sock.recv(_READ_SIZE)
            except OSError:  # includes BlockingIOError: nothing to drain
                pass
        return
    selector.register(sock, selectors.EVENT_READ, _Connection(sock))


def _serve_connection(
    key: selectors.SelectorKey, ready: int, selector: selectors.BaseSelector,
    router: Router,
) -> None:
    """Read once if readable, answer and send what the buffers allow, then re-arm."""
    conn: _Connection = key.data
    try:
        if ready & selectors.EVENT_READ:
            try:
                conn.requests.feed(conn.sock.recv(_READ_SIZE))
            except BlockingIOError:
                pass
        conn.pump(router)
        events = conn.events()
    except OSError:  # the client reset the connection or stopped reading it
        events = 0
    if not events:
        selector.unregister(conn.sock)
        conn.sock.close()
    elif events != key.events:
        selector.modify(conn.sock, events, conn)


def serve_tcp(router: Router, host: str, port: int, *, ready_stream: IO[str]) -> None:
    """Serve over a local TCP socket; prints one ready line with the bound address.

    One thread serves every connection from one ``selectors`` loop, and each
    connection is answered in request order. A connection whose client has
    shut down its sending side is answered in full before it is closed. Runs
    until interrupted.
    """
    with socket.create_server((host, port)) as listener, \
            selectors.DefaultSelector() as selector:
        listener.setblocking(False)
        selector.register(listener, selectors.EVENT_READ)
        bound_host, bound_port = listener.getsockname()[:2]
        ready_stream.write(
            json.dumps({"listening": {"host": bound_host, "port": bound_port}}) + "\n"
        )
        ready_stream.flush()
        try:
            while True:
                for key, ready in selector.select():
                    if key.fileobj is listener:
                        _accept(listener, selector)
                    else:
                        _serve_connection(key, ready, selector, router)
        finally:
            for key in list(selector.get_map().values()):
                if key.fileobj is not listener:
                    key.fileobj.close()
