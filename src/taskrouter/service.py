"""Routing front end shared by the CLI and the serve loop.

A :class:`Router` bundles a loaded scheduler state, the expansion parameters
regenerated from its stored seed, and an executor registry. Serving speaks
newline-delimited JSON over stdio or a local TCP socket: one response line
per request line, in order, and a malformed request produces an error line
instead of killing the loop.
"""

from __future__ import annotations

import json
import socketserver
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO

import numpy as np

from . import library
from .features import ExpansionParams, featurize_one
from .library import ExecutorRegistry, Observation
from .scheduler import SchedulerState, load_state, payload_sha256, predict_proba

__all__ = ["RouteResult", "Router", "serve_stdio", "serve_tcp", "parse_endpoint"]


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
    """A read-only routing snapshot: state, expansion params, registry."""

    def __init__(
        self, state: SchedulerState, registry: ExecutorRegistry | None = None
    ) -> None:
        if state.featurizer is None:
            raise ValueError(
                "state carries no featurizer config; it cannot route raw text"
            )
        if state.d_k < 1:
            raise ValueError("state has no trained classes; train it first")
        self.state = state
        self.registry = registry if registry is not None else ExecutorRegistry()
        self.params = ExpansionParams.for_config(state.featurizer, state.expansion_seed)

    @classmethod
    def from_files(
        cls, state_path: str | Path, registry_path: str | Path | None = None
    ) -> "Router":
        state = load_state(state_path)
        registry = (
            library.load_manifest(registry_path) if registry_path is not None else None
        )
        return cls(state, registry)

    def route(self, text: str) -> RouteResult:
        """Featurize, pick the most probable task, and run its executor if any."""
        start = time.perf_counter()
        vector = featurize_one(text, self.state.featurizer, self.params)
        probs = predict_proba(self.state, vector)
        task_id = int(np.argmax(probs))
        spec = self.registry.lookup(task_id)
        chunk = None
        if spec is not None:
            observation = Observation(
                proprioception=np.zeros(0), image_digest=b"", instruction=text
            )
            chunk = library.execute(spec, observation).actions
        latency = int(round((time.perf_counter() - start) * 1e6))
        return RouteResult(
            task_id=task_id,
            probabilities=[float(p) for p in probs],
            executor_name=None if spec is None else spec.name,
            action_chunk=chunk,
            missing_executor=spec is None,
            latency_micros=latency,
        )

    @cached_property
    def state_sha256(self) -> str:
        """Fingerprint of the served state: the ``payload_sha256`` its file holds."""
        return payload_sha256(self.state)

    def stats(self) -> dict:
        return {
            "d_K": self.state.d_k,
            "tasks_seen": self.state.tasks_seen,
            "gamma": self.state.gamma,
            "state_sha256": self.state_sha256,
        }

    def handle_request_line(self, line: str) -> dict:
        """One request line to one response dict; never raises."""
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"error": f"invalid JSON: {exc}"}
        if not isinstance(doc, dict):
            return {"error": "request must be a JSON object"}
        op = doc.get("op")
        try:
            if op == "route":
                text = doc.get("text")
                if not isinstance(text, str):
                    return {"error": "route request needs a string 'text' field"}
                return self.route(text).to_json_dict()
            if op == "stats":
                return self.stats()
            return {"error": f"unknown op {op!r}"}
        except Exception as exc:  # a bad request must not kill the loop
            return {"error": str(exc)}


def _serve_lines(router: Router, in_stream: IO[bytes], out_stream: IO[bytes]) -> None:
    """Answer each non-blank request line with one response line until the input closes."""
    for raw in in_stream:
        # Undecodable bytes are replaced, so a garbage line gets an error line.
        line = raw.decode("utf-8", errors="replace").strip()
        if not line:
            continue
        out_stream.write((json.dumps(router.handle_request_line(line)) + "\n").encode("utf-8"))
        out_stream.flush()


def serve_stdio(router: Router, in_stream: IO[bytes], out_stream: IO[bytes]) -> None:
    """Serve newline-delimited JSON requests from a binary stream until it closes."""
    _serve_lines(router, in_stream, out_stream)


def parse_endpoint(endpoint: str) -> tuple[str, str, int]:
    """Parse "stdio" or "tcp:HOST:PORT" into (kind, host, port)."""
    if endpoint == "stdio":
        return ("stdio", "", 0)
    if endpoint.startswith("tcp:"):
        rest = endpoint[4:]
        host, sep, port_text = rest.rpartition(":")
        if not sep or not host:
            raise ValueError(f"bad tcp endpoint {endpoint!r}; expected tcp:HOST:PORT")
        try:
            port = int(port_text)
        except ValueError as exc:
            raise ValueError(f"bad port in endpoint {endpoint!r}") from exc
        if not 0 <= port <= 65535:
            raise ValueError(f"port out of range in endpoint {endpoint!r}")
        return ("tcp", host, port)
    raise ValueError(f"unknown endpoint {endpoint!r}; expected 'stdio' or 'tcp:HOST:PORT'")


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        _serve_lines(self.server.router, self.rfile, self.wfile)  # type: ignore[attr-defined]


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], router: Router) -> None:
        super().__init__(address, _LineHandler)
        self.router = router


def serve_tcp(router: Router, host: str, port: int, *, ready_stream: IO[str]) -> None:
    """Serve over a local TCP socket; prints one ready line with the bound address.

    Responses preserve request order within each connection. Runs until
    interrupted.
    """
    with _Server((host, port), router) as server:
        bound_host, bound_port = server.server_address[:2]
        ready_stream.write(
            json.dumps({"listening": {"host": bound_host, "port": bound_port}}) + "\n"
        )
        ready_stream.flush()
        server.serve_forever()
