"""Serve mode: newline-delimited JSON over stdio and a local TCP socket."""

from __future__ import annotations

import hashlib
import io
import json
import os
import socket
import subprocess
import sys

import pytest

import taskrouter as tr
from taskrouter.cli import main
from taskrouter.service import REQUEST_LINE_LIMIT, Router, parse_endpoint, serve_stdio


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
    registry = tr.ExecutorRegistry(
        tr.ExecutorSpec(task_id=i, name=f"exec-{i}", action_dim=4, horizon=6)
        for i in range(3)
    )
    tr.save_manifest(registry, manifest)
    return {"corpus": corpus, "state": state, "registry": manifest}


def _header_sha256(state_path):
    return json.loads(state_path.read_bytes().partition(b"\n")[0])["payload_sha256"]


def _requests():
    return [
        json.dumps({"op": "route", "text": "please pick up the ripe banana"}),
        json.dumps({"op": "stats"}),
        json.dumps({"op": "route", "text": "stack the red tomatoes on the plate"}),
    ]


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
        payload = state.read_bytes().partition(b"\n")[2]
        assert served == _header_sha256(state) == hashlib.sha256(payload).hexdigest()
        digests.append(served)
    assert digests[0] != digests[1]


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
    with subprocess.Popen(
        [sys.executable, "-m", "taskrouter", "serve",
         "--state", str(served_files["state"]),
         "--registry", str(served_files["registry"]),
         "--endpoint", "tcp:127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            ready = json.loads(proc.stdout.readline())
            port = ready["listening"]["port"]
            with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
                payload = "\n".join(_requests()) + "\n"
                conn.sendall(payload.encode("utf-8"))
                conn.shutdown(socket.SHUT_WR)
                data = b""
                while True:
                    block = conn.recv(65536)
                    if not block:
                        break
                    data += block
            lines = [json.loads(line) for line in data.decode().strip().splitlines()]
            assert len(lines) == 3
            assert lines[0]["task_id"] == 0
            assert lines[1]["tasks_seen"] == 1
            assert lines[2]["task_id"] == 1
        finally:
            proc.terminate()
            proc.wait(timeout=30)


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
    command = [sys.executable, "-m", "taskrouter", "serve",
               "--state", str(served_files["state"]),
               "--registry", str(served_files["registry"])]
    # A strict text stdin would die on the garbage line; serve must not use one.
    strict_stdin = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    stdio = subprocess.run(command, input=payload, capture_output=True, timeout=120,
                           env=strict_stdin)
    assert stdio.returncode == 0, stdio.stderr
    with subprocess.Popen(command + ["--endpoint", "tcp:127.0.0.1:0"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        try:
            port = json.loads(proc.stdout.readline())["listening"]["port"]
            with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
                conn.sendall(payload)
                conn.shutdown(socket.SHUT_WR)
                tcp = b"".join(iter(lambda: conn.recv(65536), b""))
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def without_latency(data):
        docs = [json.loads(line) for line in data.decode("utf-8").splitlines()]
        for doc in docs:
            doc.pop("latency_micros", None)
        return docs

    answered = without_latency(stdio.stdout)
    assert answered == without_latency(tcp)
    assert len(answered) == 4
    assert "error" in answered[1]
    assert answered[2]["task_id"] == 0 and answered[3]["task_id"] == 1


class _BoundedReads(io.BytesIO):
    """A request stream that fails any read not bounded by the line limit."""

    def readline(self, size=-1):
        assert 0 < size <= REQUEST_LINE_LIMIT + 1
        return super().readline(size)


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


def test_router_requires_trained_featurized_state(served_files, tmp_path):
    bare = tmp_path / "bare.json"
    tr.save_state(tr.init(8, 1.0), bare)
    with pytest.raises(ValueError):
        Router.from_files(bare)


def test_parse_endpoint():
    assert parse_endpoint("stdio") == ("stdio", "", 0)
    assert parse_endpoint("tcp:127.0.0.1:9000") == ("tcp", "127.0.0.1", 9000)
    for bad in ("tcp:127.0.0.1", "tcp::", "tcp:host:notaport", "udp:1:2", "tcp:h:70000"):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


def test_handle_request_line_never_raises(served_files):
    router = Router.from_files(served_files["state"], served_files["registry"])
    assert "error" in router.handle_request_line("[1,2,3]")
    assert "error" in router.handle_request_line("{}")
    response = router.handle_request_line(json.dumps({"op": "route", "text": ""}))
    assert "task_id" in response
