"""The route path: closed-loop routing through a ``taskrouter serve`` TCP subprocess.

One client thread multiplexes one connection per core. Each connection is a
controller that waits for its action chunk before it sends the next
instruction, so the loop is closed and a slower server receives less load.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BLAS_THREAD_VARS,
    SRC,
    Tally,
    median,
    min_samples,
    nproc,
    percentile,
    process_env,
    process_peak_rss_mb,
)
import inputs
from taskrouter import library, scheduler
from taskrouter.features import ExpansionParams, FeaturizerConfig, featurize_batch
from taskrouter.service import Router

READY_TIMEOUT_S = 60.0
RESPONSE_TIMEOUT_S = 30.0
SLICE_S = 1.0


class Fixture:
    """The served state and registry files plus the reference answer per text."""

    def __init__(self, seed: int, workdir: Path, pool: int = inputs.ROUTE_POOL) -> None:
        data = inputs.route_inputs(seed, pool)
        self.texts = data.texts
        self.long_count, self.typo_count = data.long_count, data.typo_count
        config = FeaturizerConfig()
        params = ExpansionParams.create(config.seed, config.d_f, config.d_e)
        features = featurize_batch([r.text for r in data.train], config, params)
        labels = scheduler.one_hot([r.task_id for r in data.train], inputs.N_CLASSES)
        state = scheduler.fit_base(
            features, labels, 1.0, featurizer=config, expansion_seed=config.seed
        )
        self.state_path = workdir / "route_state.json"
        self.registry_path = workdir / "registry.json"
        scheduler.save_state(state, self.state_path)
        library.save_manifest(inputs.registry(seed), self.registry_path)
        # The reference is what an in-process Router on the same files answers.
        self.router = Router.from_files(self.state_path, self.registry_path)
        self.expected_task: list[int] = []
        self.chunks: dict[int, list] = {}
        for text in self.texts:
            result = self.router.route(text)
            chunk = result.action_chunk.tolist()
            if self.chunks.setdefault(result.task_id, chunk) != chunk:
                raise RuntimeError(f"executor {result.task_id} is not deterministic")
            self.expected_task.append(result.task_id)

    def request(self, i: int) -> bytes:
        text = self.texts[i % len(self.texts)]
        return (json.dumps({"op": "route", "text": text}) + "\n").encode("utf-8")

    def correct(self, i: int, line: bytes) -> bool:
        try:
            doc = json.loads(line)
        except ValueError:
            return False
        task = self.expected_task[i % len(self.texts)]
        return (
            isinstance(doc, dict)
            and "error" not in doc
            and doc.get("task_id") == task
            and doc.get("action_chunk") == self.chunks[task]
        )


class Server:
    """A ``taskrouter serve`` subprocess on an ephemeral local TCP port."""

    def __init__(self, fixture: Fixture) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "taskrouter", "serve",
                "--state", str(fixture.state_path),
                "--registry", str(fixture.registry_path),
                "--endpoint", "tcp:127.0.0.1:0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(self.proc.stdout, selectors.EVENT_READ)
                if not sel.select(READY_TIMEOUT_S):
                    raise RuntimeError("serve did not become ready")
            line = self.proc.stdout.readline()
            listening = json.loads(line)["listening"]
        except Exception:
            self.close()
            raise
        self.address = (listening["host"], listening["port"])

    def connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=RESPONSE_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def peak_rss_mb(self) -> float | None:
        """None once serve has exited: its memory can no longer be read."""
        if self.proc.poll() is not None:
            return None
        return process_peak_rss_mb(self.proc.pid)

    def blas_env(self) -> dict:
        if self.proc.poll() is not None:
            return {}
        return {k: process_env(self.proc.pid, k) for k in BLAS_THREAD_VARS}

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _read_line(sock: socket.socket) -> bytes:
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed")
        buf += chunk
    return buf


def start(fixture: Fixture) -> tuple[Server, float, bool]:
    """Spawn serve and route one text; returns (server, seconds, correct)."""
    t0 = time.perf_counter()
    server = Server(fixture)
    try:
        with server.connect() as sock:
            sock.sendall(fixture.request(0))
            line = _read_line(sock)
        elapsed = time.perf_counter() - t0
    except Exception:
        server.close()
        raise
    return server, elapsed, fixture.correct(0, line)


class _Conn:
    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.index = 0
        self.buf = b""
        self.sent_at = 0.0


class Client:
    """One thread multiplexing ``connections`` closed-loop callers.

    The connections stay open from window to window, as a controller's would.
    """

    def __init__(self, server: Server, fixture: Fixture, connections: int) -> None:
        self.fixture = fixture
        self.next_text = 1  # text 0 was the set-up probe
        self.conns = []
        for _ in range(connections):
            sock = server.connect()
            sock.setblocking(False)
            self.conns.append(_Conn(sock))

    def close(self) -> None:
        for conn in self.conns:
            conn.sock.close()

    def window(self, seconds: float):
        """Route for ``seconds``; returns (latencies, attempted, failed, wall seconds).

        Responses are checked after the window, so the client spends as
        little of the shared cores as it can while the clock runs. A wrong
        answer, an error line or a dropped connection counts as a failure.
        """
        done: list[tuple[int, float, bytes]] = []
        attempted = failed = 0
        if not self.conns:  # serve closed every connection earlier
            return [], 1, 1, 0.0

        with selectors.DefaultSelector() as sel:

            def send(conn: _Conn) -> None:
                nonlocal attempted
                conn.index = self.next_text
                self.next_text += 1
                attempted += 1
                conn.sent_at = time.perf_counter()
                try:
                    conn.sock.sendall(self.fixture.request(conn.index))
                except OSError:
                    drop(conn)

            def drop(conn: _Conn) -> None:
                """The outstanding request on ``conn`` is lost; so is ``conn``."""
                nonlocal failed
                failed += 1
                sel.unregister(conn.sock)
                conn.sock.close()
                self.conns.remove(conn)

            t0 = time.perf_counter()
            deadline = t0 + seconds
            for conn in list(self.conns):
                sel.register(conn.sock, selectors.EVENT_READ, conn)
                send(conn)
            while sel.get_map():
                events = sel.select(RESPONSE_TIMEOUT_S)
                if not events:  # every outstanding request timed out
                    for key in list(sel.get_map().values()):
                        drop(key.data)
                    break
                for key, _ in events:
                    conn = key.data
                    try:
                        chunk = conn.sock.recv(65536)
                    except (BlockingIOError, InterruptedError):
                        continue
                    except OSError:
                        chunk = b""
                    if not chunk:
                        drop(conn)
                        continue
                    conn.buf += chunk
                    if not conn.buf.endswith(b"\n"):
                        continue
                    now = time.perf_counter()
                    done.append((conn.index, now - conn.sent_at, conn.buf))
                    conn.buf = b""
                    if now < deadline:
                        send(conn)
                    else:
                        sel.unregister(conn.sock)
            wall = time.perf_counter() - t0
        latencies = []
        for index, latency, line in done:
            if self.fixture.correct(index, line):
                latencies.append(latency)
            else:
                failed += 1
        return latencies, attempted, failed, wall


class Stage:
    """Serve set up ``setup_reps`` times, then one routing window per step.

    Each step is one slice of the run; p50 and throughput are medians over
    slices. The last serve started stays up for the windows.
    """

    def __init__(self, seed: int, workdir: Path, setup_reps: int) -> None:
        self.fixture = Fixture(seed, workdir)
        self.tally = Tally()
        self.setups: list[float] = []
        self.slices: list[tuple[list[float], float]] = []
        for _ in range(setup_reps - 1):
            self._timed_start().close()
        self.server = self._timed_start()
        try:
            self.client = Client(self.server, self.fixture, nproc())
        except Exception:
            self.server.close()
            raise

    def _timed_start(self) -> Server:
        server, elapsed, ok = start(self.fixture)
        self.tally.check(ok)
        self.setups.append(elapsed)
        return server

    def step(self) -> bool:
        latencies, attempted, failed, wall = self.client.window(SLICE_S)
        self.tally.add(attempted, failed)
        self.slices.append((latencies, wall))
        return True

    def close(self) -> None:
        self.client.close()
        self.server.close()

    def finish(self, setup_reps: int) -> dict:
        """Figures of the run, after ``setup_reps`` more timed set-ups."""
        try:
            rss = self.server.peak_rss_mb()
            serve_blas = self.server.blas_env()
        finally:
            self.close()
        for _ in range(setup_reps):
            self._timed_start().close()
        # A window with too few routes for its p50 (serve stalled or gone) is
        # left out of the figures; its lost requests are already failures.
        lat_us = [[lat * 1e6 for lat in part] for part, _ in self.slices]
        kept = [
            (part, wall)
            for part, (_, wall) in zip(lat_us, self.slices)
            if len(part) >= min_samples(50)
        ]
        pooled = [lat for part, _ in kept for lat in part]
        metrics = {"setup_s": median(self.setups)}
        if rss is not None:
            metrics["peak_rss_mb"] = rss
        detail = {
            "routes": len(pooled),
            "slices": len(self.slices),
            "slices_kept": len(kept),
            "slice_s": SLICE_S,
            "connections": nproc(),
            "texts": len(self.fixture.texts),
            "long_texts": self.fixture.long_count,
            "typo_texts": self.fixture.typo_count,
            "setup_samples_s": self.setups,
            "serve_blas_env": serve_blas,
        }
        if kept:
            p50s = [percentile(part, 50) for part, _ in kept]
            rates = [len(part) / wall for part, wall in kept]
            metrics["route_p50_us"] = median(p50s)
            detail.update(route_rps=median(rates), slice_p50_us=p50s, slice_rps=rates)
        if len(pooled) >= min_samples(99):
            detail["route_p99_us"] = percentile(pooled, 99)
        return {
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": metrics,
            "detail": detail,
        }
