"""The traced pass: per-layer metrics from spans around calls into each module.

Spans are recorded here, in the benchmark, around the package's public
functions; nothing under ``src/`` is changed. The route replay walks the hot
path stage by stage and must reproduce ``Router.route`` exactly; the absorb
and protocol replays run the same call sequences as their workloads with the
module functions they call wrapped in spans.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import absorb
import inputs
import protocol
import route
from common import SRC, Tally, Tracer, median, nproc, percentile, self_times
from taskrouter import evaluation, scheduler
from taskrouter.features import (
    FeaturizerConfig,
    embed_sequence,
    expand,
    mean_pool,
    tokenize,
)
from taskrouter.library import Observation, execute
from taskrouter.service import RouteResult, Router

ROUTE_TEXTS = 2000
REPLAY_ROUNDS = 3
TRANSPORT_WINDOW_S = 3.0
IMPORT_REPS = 3
ROUTER_INIT_REPS = 5


@contextmanager
def patched(module, names, tracer: Tracer, prefix: str):
    """Temporarily replace ``module.<name>`` with a span-recording wrapper."""
    saved = {name: getattr(module, name) for name in names}
    for name, func in saved.items():
        setattr(module, name, tracer.wrap(f"{prefix}.{name}", func))
    try:
        yield
    finally:
        for name, func in saved.items():
            setattr(module, name, func)


def traced_route(router: Router, text: str, tracer: Tracer) -> RouteResult:
    """``Router.route`` taken apart into its stages, one span each."""
    config, params, state = router.state.featurizer, router.params, router.state
    with tracer.span("route"):
        with tracer.span("features.tokenize"):
            tokens = tokenize(text, config)
        with tracer.span("features.embed"):
            seq = embed_sequence(tokens, config)
        with tracer.span("features.pool"):
            pooled = mean_pool(seq)
        with tracer.span("features.expand"):
            vector = expand(pooled, params)
        with tracer.span("scheduler.predict_proba"):
            probs = scheduler.predict_proba(state, vector)
            task_id = int(np.argmax(probs))
        with tracer.span("library.lookup"):
            spec = router.registry.lookup(task_id)
        chunk = None
        if spec is not None:
            with tracer.span("library.execute"):
                observation = Observation(np.zeros(0), b"", text)
                chunk = execute(spec, observation).actions
        result = RouteResult(
            task_id=task_id,
            probabilities=[float(p) for p in probs],
            executor_name=None if spec is None else spec.name,
            action_chunk=chunk,
            missing_executor=spec is None,
            latency_micros=0,
        )
    # What the serve loop does with the result, outside Router.route.
    with tracer.span("service.encode"):
        json.dumps(result.to_json_dict())
    return result


def same_route(a: RouteResult, b: RouteResult) -> bool:
    return (
        a.task_id == b.task_id
        and a.probabilities == b.probabilities
        and a.missing_executor == b.missing_executor
        and (a.action_chunk is None) == (b.action_chunk is None)
        and (a.action_chunk is None or np.array_equal(a.action_chunk, b.action_chunk))
    )


def _per_text_us(tracer: Tracer, name: str) -> float:
    return median(tracer.durations(name)) * 1e6


def route_layers(seed: int, workdir: Path, tracer: Tracer, tally: Tally) -> dict:
    fixture = route.Fixture(seed, workdir, ROUTE_TEXTS)
    router = fixture.router
    texts = fixture.texts
    config = router.state.featurizer
    # Rounds alternate an untraced Router.route replay with the traced one;
    # the last traced round is the one kept.
    plain_s, traced_s = [], []
    for round_ in range(REPLAY_ROUNDS):
        t0 = time.perf_counter()
        reference = [router.route(text) for text in texts]
        plain_s.append(time.perf_counter() - t0)
        replay = tracer if round_ == REPLAY_ROUNDS - 1 else Tracer()
        results = []
        for i, text in enumerate(texts):
            replay.request_id = i
            results.append(traced_route(router, text, replay))
        replay.request_id = None
        traced_s.append(sum(replay.durations("route")))
        for ref, got in zip(reference, results):
            tally.check(same_route(ref, got))

    handle_s = []
    for text in texts:
        line = json.dumps({"op": "route", "text": text})
        t0 = time.perf_counter()
        router.handle_request_line(line)
        handle_s.append(time.perf_counter() - t0)
    handle_us = median(handle_s) * 1e6

    server, _, ok = route.start(fixture)
    try:
        tally.check(ok)
        client = route.Client(server, fixture, nproc())
        latencies, attempted, failed, wall = client.window(TRANSPORT_WINDOW_S)
        client.close()
        tally.add(attempted, failed)
    finally:
        server.close()

    init_s = []
    for _ in range(ROUTER_INIT_REPS):
        t0 = time.perf_counter()
        Router(router.state, router.registry)
        init_s.append(time.perf_counter() - t0)

    lookups = tracer.durations("library.lookup")
    return {
        "features.tokenize_us": _per_text_us(tracer, "features.tokenize"),
        "features.embed_us": _per_text_us(tracer, "features.embed"),
        "features.pool_us": _per_text_us(tracer, "features.pool"),
        "features.expand_us": _per_text_us(tracer, "features.expand"),
        "features.tokens_per_text": float(np.mean([len(tokenize(t, config)) for t in texts])),
        "scheduler.predict_proba_us": _per_text_us(tracer, "scheduler.predict_proba"),
        "library.lookup_us": _per_text_us(tracer, "library.lookup"),
        "library.execute_us": _per_text_us(tracer, "library.execute"),
        "library.executor_hit_ratio": len(tracer.durations("library.execute")) / len(lookups),
        "service.encode_us": _per_text_us(tracer, "service.encode"),
        "service.handle_request_us": handle_us,
        "service.transport_us": median(latencies) * 1e6 - handle_us,
        "route_p99_us": percentile(latencies, 99) * 1e6,
        "route_rps": len(latencies) / wall,
        "service.router_init_ms": median(init_s) * 1e3,
        "trace.overhead_pct": 100.0 * (median(traced_s) / median(plain_s) - 1.0),
    }


def absorb_layers(seed: int, workdir: Path, tracer: Tracer, tally: Tally) -> dict:
    names = ("fit_base", "update", "expand_label_space", "save_state", "load_state")
    with patched(scheduler, names, tracer, "scheduler"), patched(
        absorb, ("featurize_batch",), tracer, "features"
    ):
        data, config, params, _, state = absorb.setup(seed)
        result = absorb.StreamPass(data, config, params, state, workdir, tally)
        while not result.advance():
            pass

    updates = [s for s in tracer.spans if s.name == "scheduler.update"]
    rows = [len(b) for b in data.batches]
    one_row = [s.duration for s, n in zip(updates, rows) if n == 1]
    full = [(s.duration, n) for s, n in zip(updates, rows) if n > inputs.SMALL_BATCH_ROWS[1]]
    return {
        "scheduler.fit_base_s": median(tracer.durations("scheduler.fit_base")),
        "scheduler.update_1row_ms": median(one_row) * 1e3,
        "scheduler.update_ms_per_row": sum(d for d, _ in full) / sum(n for _, n in full) * 1e3,
        "scheduler.expand_label_space_ms": median(tracer.durations("scheduler.expand_label_space")) * 1e3,
        "scheduler.numerical_errors": result.numerical_errors,
        "scheduler.save_state_ms": median(tracer.durations("scheduler.save_state")) * 1e3,
        "scheduler.load_state_ms": median(tracer.durations("scheduler.load_state")) * 1e3,
        "scheduler.state_bytes": (workdir / "absorb_state.json").stat().st_size,
    }


def protocol_layers(seed: int, tracer: Tracer, tally: Tally) -> dict:
    corpus, plan = inputs.protocol_corpus(seed)
    config = FeaturizerConfig()
    children = ("featurize_batch", "fit_base", "expand_label_space", "update", "predict")
    with protocol.TrainingReads().watching() as reads:
        with patched(evaluation, children, tracer, "evaluation"):
            with tracer.span("evaluation.run_protocol"):
                report = evaluation.run_protocol(corpus, plan, config, expansion_seed=config.seed)
    tally.check(reads.once(corpus))
    (top,) = [s for s in tracer.spans if s.name == "evaluation.run_protocol"]
    inside = [s for s in tracer.spans if s.parent == top.span_id]

    def child_s(name: str) -> float:
        return sum(s.duration for s in inside if s.name == f"evaluation.{name}")

    return {
        "evaluation.run_protocol_s": top.duration,
        "evaluation.run_protocol.featurize_batch_s": child_s("featurize_batch"),
        "evaluation.run_protocol.fit_base_s": child_s("fit_base"),
        "evaluation.run_protocol.update_s": child_s("update") + child_s("expand_label_space"),
        "evaluation.run_protocol.predict_s": child_s("predict"),
        "evaluation.run_protocol.self_s": self_times(tracer.spans)[top.span_id],
        "evaluation.training_reads": reads.total,
        "features.batch_us_per_text": child_s("featurize_batch") / len(corpus) * 1e6,
        "forgetting_pct": report.per_phase_forgetting[-1],
    }


def cli_import_s() -> float:
    times = []
    for _ in range(IMPORT_REPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import taskrouter.cli"],
            check=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        times.append(time.perf_counter() - t0)
    return median(times)


def run(seed: int, workdir: Path, trace_path: Path) -> dict:
    tally = Tally()
    tracer = Tracer()
    metrics = {}
    metrics.update(route_layers(seed, workdir, tracer, tally))
    metrics.update(absorb_layers(seed, workdir, tracer, tally))
    metrics.update(protocol_layers(seed, tracer, tally))
    metrics["cli.import_s"] = cli_import_s()
    tracer.write(trace_path)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "detail": {"spans": len(tracer.spans), "trace_file": str(trace_path)},
    }
