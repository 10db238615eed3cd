"""Shared helpers of the benchmark: paths, statistics, spans and the environment.

Importing this module does not import the program under test, so the
orchestrator can check for the source tree before it puts it on ``sys.path``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "taskrouter"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# Every percentile reported must have at least this many samples beyond it.
MIN_BEYOND = 10

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread in every process: the client and serve already share the
# cores, and at d_e=1024 a single thread measured both faster and steadier.
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def source_present() -> bool:
    return (PACKAGE / "__init__.py").is_file()


def use_source_tree() -> None:
    """Import ``taskrouter`` from this checkout's ``src``, never from elsewhere."""
    if not source_present():
        raise SystemExit(f"no taskrouter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import taskrouter

    if Path(taskrouter.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"imported taskrouter from {taskrouter.__file__}, not {PACKAGE}")


# --------------------------------------------------------------------------
# Statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile, refused unless ten samples lie beyond it.

    The nearest rank is ``ceil(q/100 * n)``; the samples beyond it are the
    ``n - rank`` larger ones. A tail figure resting on fewer than
    ``MIN_BEYOND`` samples is noise, so it raises instead of answering.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; need {MIN_BEYOND}"
        )
    return float(ordered[rank - 1])


def min_samples(q: float) -> int:
    """Smallest sample count for which :func:`percentile` answers at ``q``."""
    n = 1
    while n - max(1, math.ceil(q / 100.0 * n)) < MIN_BEYOND:
        n += 1
    return n


class Tally:
    """Operations attempted and failed, the basis of ``error_rate``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


# --------------------------------------------------------------------------
# Spans


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """An open span; a plain class because it is cheaper than a generator."""

    __slots__ = ("tracer", "name", "span_id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        self.span_id = len(tracer.spans)
        tracer.spans.append(None)  # reserve the id so children sort after parents
        self.parent = tracer.stack[-1] if tracer.stack else None
        tracer.stack.append(self.span_id)
        self.start = perf_counter()

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        tracer = self.tracer
        tracer.stack.pop()
        tracer.spans[self.span_id] = Span(
            self.span_id, self.name, self.start, end, self.parent, tracer.request_id
        )


class Tracer:
    """Spans kept in memory; :meth:`write` dumps them as JSON lines at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request_id: int | None = None

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def wrap(self, name: str, func):
        """``func`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        inside = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.span_id, ())
            if min(e, span.end) > max(s, span.start)
        ]
        out[span.span_id] = span.duration - covered(inside)
    return out


# --------------------------------------------------------------------------
# Processes and environment


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def process_env(pid: int, name: str) -> str | None:
    with open(f"/proc/{pid}/environ", "rb") as handle:
        for item in handle.read().split(b"\0"):
            key, _, value = item.partition(b"=")
            if key.decode(errors="replace") == name:
                return value.decode(errors="replace")
    return None


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library mapped into this process."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                out[Path(path).name] = int(func())
                break
    return out


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, which names the code without git."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
    }
