"""Serve mode: newline-delimited JSON over stdio and a local TCP socket."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import selectors
import socket
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from taskrouter import library, scheduler, service
from taskrouter.cli import main
from taskrouter.corpus import read_corpus
from taskrouter.features import MAX_TOKENS, FeaturizerConfig
from taskrouter.library import ExecutorRegistry, ExecutorSpec, save_manifest
from taskrouter.scheduler import init, load_state, save_state
from taskrouter.service import (
    MAX_CONNECTIONS,
    OUTPUT_LIMIT,
    REQUEST_LINE_LIMIT,
    Router,
    _Connection,
    parse_endpoint,
    serve_stdio,
)


@pytest.fixture(scope="module")
def served_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    corpus = root / "corpus.jsonl"
    state = root / "state.json"
    manifest = root / "registry.json"
    assert main(["gen-corpus", "--corpus", str(corpus), "--n-classes", "3",
                 "--per-class", "20", "--seed", "3"]) == 0
    assert main(["train-base", "--corpus", str(corpus), "--classes", "0,1,2",
                 "--state-out", str(state), "--d-e", "256", "--d-f", "32",
                 "--seed", "3"]) == 0
    registry = ExecutorRegistry(
        ExecutorSpec(task_id=i, name=f"exec-{i}", action_dim=4, horizon=6)
        for i in range(3)
    )
    save_manifest(registry, manifest)
    return {"corpus": corpus, "state": state, "registry": manifest}


def _header_sha256(state_path):
    return json.loads(state_path.read_bytes().partition(b"\n")[0])["sha256"]


def _requests():
    return [
        json.dumps({"op": "route", "text": "please pick up the ripe banana"}),
        json.dumps({"op": "stats"}),
        json.dumps({"op": "route", "text": "stack the red tomatoes on the plate"}),
    ]


def _serve_command(served_files):
    return [sys.executable, "-m", "taskrouter", "serve",
            "--state", str(served_files["state"]),
            "--registry", str(served_files["registry"])]


@contextlib.contextmanager
def _tcp_port(served_files):
    """A TCP serve subprocess for the test's duration; yields its port."""
    with subprocess.Popen(_serve_command(served_files) + ["--endpoint", "tcp:127.0.0.1:0"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        try:
            yield json.loads(proc.stdout.readline())["listening"]["port"]
        finally:
            proc.terminate()
            proc.wait(timeout=30)


def _connect(port, timeout=30):
    return socket.create_connection(("127.0.0.1", port), timeout=timeout)


def _read_lines(conn, count):
    """The next ``count`` response lines on ``conn``, parsed."""
    data = b""
    while data.count(b"\n") < count:
        block = conn.recv(65536)
        assert block, "connection closed before the last response"
        data += block
    assert data.endswith(b"\n") and data.count(b"\n") == count
    return [json.loads(line) for line in data.splitlines()]


def _without_latency(data):
    docs = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    for doc in docs:
        doc.pop("latency_micros", None)
    return docs


def test_stdio_pipelined_requests_answered_in_order(served_files):
    stdin = "\n".join(_requests()) + "\n"
    proc = subprocess.run(
        [sys.executable, "-m", "taskrouter", "serve",
         "--state", str(served_files["state"]),
         "--registry", str(served_files["registry"])],
        input=stdin, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 3
    first, stats, third = (json.loads(line) for line in lines)
    assert first["task_id"] == 0 and first["executor_name"] == "exec-0"
    assert stats == {"d_K": 3, "tasks_seen": 1, "gamma": 1.0,
                     "state_sha256": _header_sha256(served_files["state"])}
    assert third["task_id"] == 1


def test_stats_reports_the_digest_in_the_served_state_header(served_files, tmp_path):
    other = tmp_path / "other.json"
    assert main(["train-base", "--corpus", str(served_files["corpus"]), "--classes", "0,1",
                 "--state-out", str(other), "--d-e", "256", "--d-f", "32",
                 "--seed", "3"]) == 0
    digests = []
    for state in (served_files["state"], other):
        proc = subprocess.run(
            [sys.executable, "-m", "taskrouter", "serve", "--state", str(state)],
            input=json.dumps({"op": "stats"}) + "\n",
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        served = json.loads(proc.stdout)["state_sha256"]
        line, _, payload = state.read_bytes().partition(b"\n")
        # The digest covers the header's other fields, as compact JSON, then the payload.
        fields = {k: v for k, v in json.loads(line).items() if k != "sha256"}
        signed = json.dumps(fields, separators=(",", ":")).encode() + payload
        assert served == _header_sha256(state) == hashlib.sha256(signed).hexdigest()
        digests.append(served)
    assert digests[0] != digests[1]


def test_first_stats_after_loading_hashes_nothing(served_files, tmp_path, monkeypatch):
    # The header is written with spaces, as the state's own compact header is
    # not; it still loads, since the digest is of the state, and the state
    # keeps the digest it was checked against, so stats reports it unhashed.
    line, _, payload = served_files["state"].read_bytes().partition(b"\n")
    header = json.loads(line)
    spaced = tmp_path / "spaced.state"
    spaced.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    router = Router.from_files(spaced, served_files["registry"])

    def refuse(*args):
        raise AssertionError("the state was hashed again")

    monkeypatch.setattr(scheduler.hashlib, "sha256", refuse)
    monkeypatch.setattr(scheduler, "_payload", refuse)
    assert router.stats()["state_sha256"] == header["sha256"]


def test_served_router_holds_weights_and_answers_as_a_loaded_state_does(served_files):
    # from_files keeps only W; a Router on the whole loaded state answers
    # every sample text and stats with the same bytes, latency_micros apart.
    served = Router.from_files(served_files["state"], served_files["registry"])
    assert isinstance(served.state, scheduler.Weights) and not hasattr(served.state, "L")
    registry = library.load_manifest(served_files["registry"])
    full = Router(load_state(served_files["state"]), registry)
    texts = [r.text for r in read_corpus(served_files["corpus"])] + ["", "héllo wörld"]
    requests = [json.dumps({"op": "route", "text": text}) for text in texts]
    requests.append(json.dumps({"op": "stats"}))

    def answers(router):
        return [re.sub(rb', "latency_micros": \d+}', b"}", router.handle_request_line(request))
                for request in requests]

    assert answers(served) == answers(full)
    assert all(b'"task_id"' in line for line in answers(served)[:-1])
    assert served.stats() == full.stats()


def test_router_executes_only_the_classes_its_state_can_route_to(served_files, monkeypatch):
    # The state has 3 classes, so entries for task ids 3-5 can never be
    # routed to: they are not executed, but the registry keeps them.
    registry = ExecutorRegistry(
        ExecutorSpec(task_id=i, name=f"exec-{i}", action_dim=4, horizon=6) for i in range(6)
    )
    executed = []
    real_execute = library.execute

    def execute(spec, observation):
        executed.append(spec.task_id)
        return real_execute(spec, observation)

    monkeypatch.setattr(library, "execute", execute)
    router = Router(load_state(served_files["state"]), registry)
    assert sorted(executed) == [0, 1, 2]
    assert router.registry.lookup(5).name == "exec-5"


def test_stdio_survives_garbage_lines(served_files):
    stdin = "not json at all\n" + json.dumps({"op": "stats"}) + "\n" \
        + json.dumps({"op": "warp"}) + "\n" + json.dumps({"text": 5, "op": "route"}) + "\n"
    proc = subprocess.run(
        [sys.executable, "-m", "taskrouter", "serve",
         "--state", str(served_files["state"])],
        input=stdin, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert len(lines) == 4
    assert "error" in lines[0]
    assert lines[1]["d_K"] == 3
    assert "unknown op" in lines[2]["error"]
    assert "error" in lines[3]


def test_tcp_round_trip(served_files):
    with _tcp_port(served_files) as port, _connect(port) as conn:
        payload = "\n".join(_requests()) + "\n"
        conn.sendall(payload.encode("utf-8"))
        conn.shutdown(socket.SHUT_WR)
        data = b"".join(iter(lambda: conn.recv(65536), b""))
    lines = [json.loads(line) for line in data.decode().strip().splitlines()]
    assert len(lines) == 3
    assert lines[0]["task_id"] == 0
    assert lines[1]["tasks_seen"] == 1
    assert lines[2]["task_id"] == 1


def test_stdio_and_tcp_answer_the_same_bytes_alike(served_files):
    # A blank line, a garbage line that is not even UTF-8, and a route whose
    # text holds an undecodable byte.
    payload = b"\n".join([
        json.dumps({"op": "stats"}).encode(),
        b"",
        b"\xff\xfe not json",
        b'{"op": "route", "text": "pick up the ripe banana \xe9"}',
        json.dumps({"op": "route", "text": "stack the red tomatoes on the plate"}).encode(),
    ]) + b"\n"
    # A strict text stdin would die on the garbage line; serve must not use one.
    strict_stdin = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    stdio = subprocess.run(_serve_command(served_files), input=payload, capture_output=True,
                           timeout=120, env=strict_stdin)
    assert stdio.returncode == 0, stdio.stderr
    with _tcp_port(served_files) as port, _connect(port) as conn:
        conn.sendall(payload)
        conn.shutdown(socket.SHUT_WR)
        tcp = b"".join(iter(lambda: conn.recv(65536), b""))

    answered = _without_latency(stdio.stdout)
    assert answered == _without_latency(tcp)
    assert len(answered) == 4
    assert "error" in answered[1]
    assert answered[2]["task_id"] == 0 and answered[3]["task_id"] == 1


def test_tcp_deeply_nested_line_gets_an_error_line_and_serve_lives(served_files):
    deep = b"[" * 100_000 + b"\n"  # json.loads raises RecursionError on it
    with _tcp_port(served_files) as port, _connect(port) as conn:
        conn.sendall(deep)
        (refused,) = _read_lines(conn, 1)
        with _connect(port) as other:
            other.sendall(json.dumps({"op": "stats"}).encode() + b"\n")
            (stats,) = _read_lines(other, 1)
    assert refused["error"].startswith("invalid JSON")
    assert stats["d_K"] == 3


def test_tcp_oversized_line_gets_one_error_line(served_files):
    route = json.dumps({"op": "route", "text": "stack the red tomatoes on the plate"})
    with _tcp_port(served_files) as port, _connect(port) as conn:
        conn.sendall(b"x" * (2 * REQUEST_LINE_LIMIT) + b"\n" + route.encode() + b"\n")
        too_long, routed = _read_lines(conn, 2)
    assert too_long == {"error": f"request line exceeds {REQUEST_LINE_LIMIT} bytes"}
    assert routed["task_id"] == 1 and routed["executor_name"] == "exec-1"


def test_tcp_pipelined_connections_each_answered_in_order(served_files):
    requests = _requests() + [
        json.dumps({"op": "route", "text": "put the banana in the bowl"}),
        "not json",
        json.dumps({"op": "route", "text": "place a tomato on the plate"}),
    ]
    per_conn = [[requests[(k + i) % len(requests)] for i in range(5)] for k in range(8)]
    router = Router.from_files(served_files["state"], served_files["registry"])
    expected = []
    for lines in per_conn:
        out = io.BytesIO()
        serve_stdio(router, io.BytesIO(("\n".join(lines) + "\n").encode()), out)
        expected.append(_without_latency(out.getvalue()))
    with _tcp_port(served_files) as port, contextlib.ExitStack() as stack:
        conns = [stack.enter_context(_connect(port)) for _ in per_conn]
        for i in range(5):  # the connections' requests interleave on the server
            for conn, lines in zip(conns, per_conn):
                conn.sendall((lines[i] + "\n").encode())
        answered = [_read_lines(conn, 5) for conn in conns]
    for docs in answered:
        for doc in docs:
            doc.pop("latency_micros", None)
    assert answered == expected


def test_tcp_answers_an_unterminated_last_line_after_half_close(served_files):
    with _tcp_port(served_files) as port, _connect(port) as conn:
        conn.sendall(json.dumps({"op": "stats"}).encode() + b"\n"
                     + json.dumps({"op": "route", "text": "pick up the ripe banana"}).encode())
        conn.shutdown(socket.SHUT_WR)
        stats, routed = _read_lines(conn, 2)
        assert conn.recv(65536) == b""
    assert stats["d_K"] == 3
    assert routed["task_id"] == 0


def test_tcp_client_that_never_reads_does_not_starve_others(served_files):
    route = json.dumps({"op": "route", "text": "pick up the ripe banana"}).encode() + b"\n"
    with _tcp_port(served_files) as port, _connect(port) as flood:
        flood.sendall(route * 2000)
        with _connect(port, timeout=10) as other:
            start = time.monotonic()
            other.sendall(json.dumps({"op": "stats"}).encode() + b"\n")
            (stats,) = _read_lines(other, 1)
            assert time.monotonic() - start < 10
        assert stats["d_K"] == 3
        # Held back, not dropped: once read, every answer arrives in order.
        answered = _read_lines(flood, 2000)
    assert all(doc["task_id"] == 0 for doc in answered)


def test_tcp_connection_over_the_cap_gets_an_error_line_and_eof(served_files):
    stats = json.dumps({"op": "stats"}).encode() + b"\n"
    with _tcp_port(served_files) as port, contextlib.ExitStack() as stack:
        conns = [stack.enter_context(_connect(port)) for _ in range(MAX_CONNECTIONS)]
        for conn in conns:  # each is accepted and served before the next arrives
            conn.sendall(stats)
            assert _read_lines(conn, 1)[0]["d_K"] == 3
        with _connect(port) as extra:
            refused = _read_lines(extra, 1)
            assert extra.recv(65536) == b""
        conns[0].sendall(stats)
        assert _read_lines(conns[0], 1)[0]["d_K"] == 3
    assert refused == [{"error": f"too many connections; at most {MAX_CONNECTIONS}"}]


def test_refused_connection_that_sent_first_reads_its_error_line_and_eof(monkeypatch):
    # A client over the cap whose request is already in the server's buffer
    # when it is accepted: closing with unread bytes would reset it.
    monkeypatch.setattr(service, "MAX_CONNECTIONS", 0)
    with socket.create_server(("127.0.0.1", 0)) as listener, \
            selectors.DefaultSelector() as selector:
        selector.register(listener, selectors.EVENT_READ)
        with _connect(listener.getsockname()[1]) as client:
            client.sendall(json.dumps({"op": "stats"}).encode() + b"\n")
            time.sleep(0.05)  # let the request reach the unaccepted socket
            service._accept(listener, selector)
            assert len(selector.get_map()) == 1  # not registered
            assert _read_lines(client, 1) == [json.loads(service._TOO_MANY)]
            assert client.recv(65536) == b""


def test_connection_holds_back_answers_while_its_output_is_full(served_files):
    router = Router.from_files(served_files["state"], served_files["registry"])
    route = json.dumps({"op": "route", "text": "pick up the ripe banana"}).encode() + b"\n"
    # A little over one response: latency_micros varies in its digits.
    response_size = len(json.dumps(json.loads(router.handle_request_line(route.decode())))) + 32
    server_end, client_end = socket.socketpair()
    with server_end, client_end:
        client_end.settimeout(30)
        server_end.setblocking(False)
        conn = _Connection(server_end)
        requests = OUTPUT_LIMIT // response_size * 2
        conn.requests.feed(route * requests)
        conn.pump(router)  # the client reads nothing, so the socket buffer fills
        conn.pump(router)  # as on the next writable event: tops the output up to the cap
        assert OUTPUT_LIMIT <= len(conn.out) < OUTPUT_LIMIT + response_size
        assert conn.events() == selectors.EVENT_WRITE  # not read while full
        received = b""
        while received.count(b"\n") < requests:
            received += client_end.recv(1 << 16)
            conn.pump(router)
    answered = _without_latency(received)
    assert len(answered) == requests
    assert all(doc["task_id"] == 0 for doc in answered)


class _BoundedReads(io.BytesIO):
    """A request stream that fails any read not bounded by the line limit."""

    def readline(self, size=-1):
        assert 0 < size <= REQUEST_LINE_LIMIT + 1
        return super().readline(size)

    def read1(self, size=-1):
        assert 0 < size <= REQUEST_LINE_LIMIT + 1
        return super().read1(size)

    def read(self, size=-1):
        assert 0 < size <= REQUEST_LINE_LIMIT + 1
        return super().read(size)


def test_oversized_request_lines_get_an_error_line_each(served_files):
    router = Router.from_files(served_files["state"], served_files["registry"])
    stats = json.dumps({"op": "stats"}).encode()
    route = json.dumps({"op": "route", "text": "stack the red tomatoes on the plate"}).encode()
    requests = b"".join([
        b"x" * (2 * REQUEST_LINE_LIMIT) + b"\n",
        route + b"\n",
        stats.ljust(REQUEST_LINE_LIMIT - 1) + b"\n",  # exactly at the limit
        stats.ljust(REQUEST_LINE_LIMIT) + b"\n",  # one byte over it
        b"y" * (2 * REQUEST_LINE_LIMIT),  # never ends in a newline
    ])
    out = io.BytesIO()
    serve_stdio(router, _BoundedReads(requests), out)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(lines) == 5
    too_long = {"error": f"request line exceeds {REQUEST_LINE_LIMIT} bytes"}
    assert lines[0] == lines[3] == lines[4] == too_long
    assert lines[1]["task_id"] == 1 and lines[1]["executor_name"] == "exec-1"
    assert lines[2]["d_K"] == 3


def test_a_text_over_max_tokens_gets_one_error_line_in_bounded_memory(served_files):
    # A request line within the limit holds over half a million one-letter
    # tokens; embedding them all would take hundreds of MiB and seconds.
    router = Router.from_files(served_files["state"], served_files["registry"])
    head, tail = b'{"op": "route", "text": "', b'"}\n'
    count = (REQUEST_LINE_LIMIT - len(head) - len(tail)) // 2
    hostile = head + b"a " * count + tail
    assert len(hostile) <= REQUEST_LINE_LIMIT
    at_cap, over_cap = (json.dumps({"op": "route", "text": "banana " * n}).encode() + b"\n"
                        for n in (MAX_TOKENS, MAX_TOKENS + 1))
    stats = json.dumps({"op": "stats"}).encode() + b"\n"
    out = io.BytesIO()
    tracemalloc.start()
    try:
        serve_stdio(router, io.BytesIO(hostile + stats + at_cap + over_cap), out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(lines) == 4
    refusal = "text has {} tokens; at most " + f"{MAX_TOKENS} are allowed"
    assert lines[0] == {"error": refusal.format(count)}
    assert lines[1]["d_K"] == 3
    assert lines[2]["task_id"] == 0 and lines[2]["executor_name"] == "exec-0"
    assert lines[3] == {"error": refusal.format(MAX_TOKENS + 1)}
    assert peak <= 32 << 20


@pytest.mark.parametrize("size", [REQUEST_LINE_LIMIT, REQUEST_LINE_LIMIT + 1],
                         ids=["at-the-limit", "one-byte-over"])
def test_an_unterminated_last_line_is_held_to_the_same_limit(served_files, size):
    # With no newline to count, a last line of REQUEST_LINE_LIMIT bytes is
    # answered and one a byte longer is refused.
    router = Router.from_files(served_files["state"])
    stats = json.dumps({"op": "stats"}).encode()
    out = io.BytesIO()
    serve_stdio(router, _BoundedReads(stats + b"\n" + stats.ljust(size)), out)
    first, last = [json.loads(line) for line in out.getvalue().splitlines()]
    too_long = {"error": f"request line exceeds {REQUEST_LINE_LIMIT} bytes"}
    assert last == (first if size == REQUEST_LINE_LIMIT else too_long)
    assert first["d_K"] == 3


def test_router_requires_trained_featurized_state(served_files, tmp_path):
    bare = tmp_path / "bare.json"
    save_state(init(8, 1.0), bare)
    with pytest.raises(ValueError):
        Router.from_files(bare)


def test_router_refuses_a_featurized_state_with_no_classes():
    featurizer = FeaturizerConfig(seed=3, d_f=4, d_e=8)
    with pytest.raises(ValueError, match="no trained classes"):
        Router(init(8, 1.0, featurizer=featurizer))


def test_parse_endpoint():
    assert parse_endpoint("stdio") == ("stdio", "", 0)
    assert parse_endpoint("tcp:127.0.0.1:9000") == ("tcp", "127.0.0.1", 9000)
    for bad in ("tcp:127.0.0.1", "tcp::", "tcp:host:notaport", "udp:1:2", "tcp:h:70000",
                "tcp:127.0.0.1:8_0", "tcp:127.0.0.1: 80", "tcp:127.0.0.1:+80",
                "tcp:127.0.0.1:\u0668\u0660"):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


def test_handle_request_line_never_raises(served_files):
    router = Router.from_files(served_files["state"], served_files["registry"])
    assert "error" in json.loads(router.handle_request_line("[1,2,3]"))
    assert "error" in json.loads(router.handle_request_line("{}"))
    response = json.loads(router.handle_request_line(json.dumps({"op": "route", "text": ""})))
    assert "task_id" in response
    assert "error" in json.loads(router.handle_request_line("[" * 100_000))


def test_route_response_bytes_are_the_encoded_route_result(served_files):
    # The serve loop encodes routes from fragments built with the Router; its
    # bytes must be those of encoding the route result whole.
    served = Router.from_files(served_files["state"], served_files["registry"])
    texts = [r.text for r in read_corpus(served_files["corpus"])]
    renamed = ExecutorRegistry([ExecutorSpec(task_id=0, name="exécuteur-ü", action_dim=3,
                                             horizon=5, seed=7, amplitude=0.5),
                                ExecutorSpec(task_id=1, name="exec-1", action_dim=4, horizon=6)])
    cases = [
        (served, {"exec-0", "exec-1", "exec-2"}),
        (Router(served.state, renamed), {"exécuteur-ü", "exec-1", None}),  # 2 has no executor
        (Router(served.state), {None}),
    ]
    for router, expected_names in cases:
        names = set()
        for text in texts:
            line = router.handle_request_line(json.dumps({"op": "route", "text": text}))
            result = router.route(text)
            latency = json.loads(line)["latency_micros"]
            assert line == service._encode(
                dataclasses.replace(result, latency_micros=latency).to_json_dict()
            )
            names.add(result.executor_name)
            if result.action_chunk is not None:
                with pytest.raises(ValueError, match="read-only"):
                    result.action_chunk[0, 0] = 0.0
        assert names == expected_names


def test_zero_amplitude_executor_serves_positive_zeros(served_files):
    # amplitude * sin(x) is -0.0 wherever sin(x) < 0; a chunk of an amplitude-0
    # executor, and the route line built from it, hold 0.0 alone.
    spec = ExecutorSpec(task_id=0, name="still", action_dim=3, horizon=8, amplitude=0.0)
    router = Router(load_state(served_files["state"]), ExecutorRegistry([spec]))
    text = "please pick up the ripe banana"
    chunk = router.route(text).action_chunk
    assert chunk.shape == (8, 3) and not (chunk != 0.0).any() and not np.signbit(chunk).any()
    line = router.handle_request_line(json.dumps({"op": "route", "text": text}))
    response = json.loads(line)
    assert response["executor_name"] == "still"
    assert response["action_chunk"] == [[0.0] * 3] * 8
    assert b"-0.0" not in line


@pytest.mark.parametrize("request_doc, key", [
    ({"op": "stats", "verbose": True}, "verbose"),
    ({"op": "route", "text": "pick up the ripe banana", "top_k": 1}, "top_k"),
    ({"op": "route", "text": 5}, "string 'text'"),
], ids=["stats", "route", "route-text-not-a-string"])
def test_requests_refuse_unknown_keys(served_files, request_doc, key):
    router = Router.from_files(served_files["state"], served_files["registry"])
    response = json.loads(router.handle_request_line(json.dumps(request_doc)))
    assert set(response) == {"error"} and key in response["error"]


# A None entry in sys.modules makes every import of that module fail.
_SCIPY_BLOCKED = ("import sys; sys.modules['scipy'] = None; "
                  "from taskrouter.cli import main; sys.exit(main())")


def test_route_and_serve_run_with_scipy_blocked(served_files):
    # Loading a state reads W back instead of solving for it, so the read
    # path needs numpy alone.
    files = ["--state", str(served_files["state"]), "--registry", str(served_files["registry"])]
    text = "please pick up the ripe banana"
    router = Router.from_files(served_files["state"], served_files["registry"])
    expected = router.route(text).to_json_dict()
    del expected["latency_micros"]
    blocked = [sys.executable, "-c", _SCIPY_BLOCKED]
    routed = subprocess.run(blocked + ["route", *files, text],
                            capture_output=True, timeout=120)
    assert routed.returncode == 0, routed.stderr
    assert _without_latency(routed.stdout) == [expected]
    requests = json.dumps({"op": "route", "text": text}) + "\n" + json.dumps({"op": "stats"}) + "\n"
    served = subprocess.run(blocked + ["serve", *files], input=requests.encode(),
                            capture_output=True, timeout=120)
    assert served.returncode == 0, served.stderr
    assert _without_latency(served.stdout) == [expected, router.stats()]


def test_importing_the_cli_loads_no_scipy():
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, taskrouter.cli; print([m for m in sys.modules if m.startswith('scipy')])"],
        capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"
