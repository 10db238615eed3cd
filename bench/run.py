"""Benchmark of the taskrouter package: one command, every metric by name and unit.

    python3 bench/run.py --workload route_tcp --seed 1 --seconds 30 --trace 0

Three paths are measured (see ``bench/README.md``):

* ``route``: closed-loop routing through a ``taskrouter serve`` subprocess;
* ``absorb``: a base fit, then new classes streamed in and published;
* ``protocol``: the incremental protocol on a noisy 12-theme corpus.

``BENCHMARK.json`` gives every end-to-end metric to every workload, so every
run measures all three paths. Each path lives in its own child process, so
caches and peak memory do not leak from one into another. The children take
turns, one step each per round, for ``--seconds`` and until the absorb stream
has completed once. The turns spread each path's samples over the whole run,
so a slow spell of the shared machine lands on all paths alike instead of on
whichever one ran during it. The workload names the path whose set-up is
timed twice at each end of the run and which supplies ``setup_s`` and
``peak_rss_mb``.

``--trace 1`` runs the traced pass instead, which yields the per-layer metrics.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment, sample counts and every figure that is not a metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import selectors
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BLAS_THREAD_VARS,
    BLAS_THREADS,
    OUT,
    ROOT,
    WORK,
    environment,
    source_present,
)

PRIMARY = {"route_tcp": "route", "absorb_stream": "absorb"}
STAGES = ("route", "absorb", "protocol")
# The primary stage times its set-up this many times at each end of the run,
# so that its samples fall into different spells of a shared machine.
SETUP_REPS = 2
REPLY_TIMEOUT_S = 120.0
CLOSE_TIMEOUT_S = 30.0
# Which stage measures each end-to-end metric; setup_s and peak_rss_mb come
# from the stage the workload is named after.
SOURCE = {
    "route_p50_us": "route",
    "absorb_rows_per_s": "absorb",
    "absorb_batch_p50_ms": "absorb",
    "absorb_batch_p90_ms": "absorb",
    "publish_ms": "absorb",
    "eval_s": "protocol",
    "accuracy_avg_pct": "protocol",
}


def _reply(doc: dict) -> None:
    print(json.dumps(doc), flush=True)


def _stage_main(args: argparse.Namespace) -> int:
    """Child side: set up, then answer ``step`` and ``finish`` lines on stdin."""
    from common import blas_threads, use_source_tree

    use_source_tree()
    workdir = Path(args.workdir)
    if args.stage == "trace":
        import layers

        result = layers.run(args.seed, workdir, Path(args.trace_path))
        result["blas_threads"] = blas_threads()
        _reply(result)
        return 0
    stage = importlib.import_module(args.stage).Stage(args.seed, workdir, args.setup_reps)
    try:
        _reply({"ready": True})
        for line in sys.stdin:
            command, *rest = line.split()
            if command == "step":
                _reply({"done": stage.step()})
            else:
                result = stage.finish(int(rest[0]))
                result["blas_threads"] = blas_threads()
                _reply(result)
                break
    finally:
        stage.close()
    return 0


class _Child:
    """A stage in its own process, driven one line at a time."""

    def __init__(self, stage: str, args: argparse.Namespace, workdir: Path, **extra) -> None:
        self.stage = stage
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--stage", stage, "--seed", str(args.seed), "--workdir", str(workdir),
        ]
        for key, value in extra.items():
            cmd += [f"--{key.replace('_', '-')}", str(value)]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True
        )

    def ask(self, command: str | None = None) -> dict:
        if command is not None:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(REPLY_TIMEOUT_S):
                raise RuntimeError(f"stage {self.stage} did not answer")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"stage {self.stage} exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        """End of input makes the stage release what it holds and exit."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _measure(args: argparse.Namespace, workdir: Path) -> tuple[dict, dict, dict]:
    """Run the stages; returns (stage results, metric values by name, loop timing)."""
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        child = _Child("trace", args, workdir, trace_path=trace_path)
        try:
            stages = {"trace": child.ask()}
        finally:
            child.close()
        return stages, dict(stages["trace"]["metrics"]), {}
    primary = PRIMARY[args.workload]
    children = {}
    try:
        for stage in STAGES:  # one at a time, so set-up is timed on a quiet machine
            children[stage] = _Child(
                stage, args, workdir, setup_reps=SETUP_REPS if stage == primary else 1
            )
            children[stage].ask()
        t0 = time.perf_counter()
        rounds = 0
        while True:
            done = [child.ask("step")["done"] for child in children.values()]
            rounds += 1
            if all(done) and time.perf_counter() - t0 >= args.seconds:
                break
        loop = {"rounds": rounds, "loop_s": time.perf_counter() - t0}
        stages = {
            name: child.ask(f"finish {SETUP_REPS if name == primary else 0}")
            for name, child in children.items()
        }

    finally:
        for child in children.values():
            child.close()
    # A stage leaves out a metric it could not measure; the run is then not correct.
    sources = dict(SOURCE, setup_s=primary, peak_rss_mb=primary)
    values = {
        name: stages[stage]["metrics"][name]
        for name, stage in sources.items()
        if name in stages[stage]["metrics"]
    }
    return stages, values, loop


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(PRIMARY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one stage in this process and print its JSON result.
    parser.add_argument("--stage", choices=STAGES + ("trace",), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--setup-reps", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--trace-path", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not source_present():
        print("error: no taskrouter sources under src/ in this checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.stage:
        return _stage_main(args)
    if args.workload is None:
        parser.error("--workload is required")

    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        stages, values, loop = _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = sum(s["attempted"] for s in stages.values())
    failed = sum(s["failed"] for s in stages.values())
    blas = {name: s["blas_threads"] for name, s in stages.items()}
    serve_env = stages.get("route", {}).get("detail", {}).get("serve_blas_env", {})
    counts = {n for per_lib in blas.values() for n in per_lib.values()}
    counts |= {int(v) for v in serve_env.values() if v is not None}
    blas_ok = counts == {BLAS_THREADS}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": time.perf_counter() - t0,
        "loop": loop,
        "error_rate": failed / attempted if attempted else 1.0,
        "blas_threads": {"held_at": BLAS_THREADS, "per_stage": blas, "serve_env": serve_env},
        "environment": environment(),
        "stages": stages,
        "missing_metrics": missing,
    }
    result = {
        "correct": failed == 0 and blas_ok and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in values
        },
    }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json"
    out_path.write_text(json.dumps({"report": report, "result": result}, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
