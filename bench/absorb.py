"""The absorb path: a base fit, then new classes absorbed batch by batch and published.

The state after the stream must equal a dense joint ridge solve written here,
independently of the scheduler, to 1e-8.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

from common import Tally, median, peak_rss_mb, percentile
import inputs
from taskrouter import scheduler
from taskrouter.features import ExpansionParams, FeaturizerConfig, featurize_batch
from taskrouter.service import Router

GAMMA = 1.0
JOINT_TOL = 1e-8
SYMMETRY_TOL = 1e-9
MIN_CLASS_ACCURACY = 0.95
# A step absorbs batches for about this long, or up to the next publish.
STEP_S = 1.0


def setup(seed: int):
    """Corpus, base featurization and ``fit_base``: the timed set-up."""
    data = inputs.absorb_inputs(seed)
    config = FeaturizerConfig()
    params = ExpansionParams.create(config.seed, config.d_f, config.d_e)
    features = featurize_batch([r.text for r in data.base], config, params)
    labels = scheduler.one_hot([r.task_id for r in data.base], inputs.N_BASE)
    state = scheduler.fit_base(
        features, labels, GAMMA, featurizer=config, expansion_seed=config.seed
    )
    return data, config, params, features, state


def joint_weights(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Dense ridge solve over every row at once: (FᵀF + γI)⁻¹ FᵀY."""
    gram = features.T @ features + GAMMA * np.eye(features.shape[1])
    return np.linalg.solve(gram, features.T @ labels)


class StreamPass:
    """One pass over the batch stream, advanced a step at a time.

    A batch whose update is numerically singular is counted as failed and
    skipped; the joint-solve check then fails too.
    """

    def __init__(self, data, config, params, state, workdir: Path, tally: Tally) -> None:
        self.data, self.config, self.params = data, config, params
        self.state = state
        self.path = workdir / "absorb_state.json"
        self.tally = tally
        self.next_batch = 0
        self.batch_s: list[float] = []
        self.batch_rows: list[int] = []
        self.publish_s: list[float] = []
        self.features: list[np.ndarray] = []
        self.numerical_errors = 0
        self.last_batch = {}
        for b, batch in enumerate(data.batches):
            self.last_batch[data.stream_rows[batch[-1]].task_id] = b

    @property
    def finished(self) -> bool:
        return self.next_batch == len(self.data.batches)

    def advance(self, seconds: float = math.inf) -> bool:
        """Absorb batches for about ``seconds`` or up to and including the next
        publish, whichever ends first; True once the stream is exhausted."""
        t_start = time.perf_counter()
        while not self.finished and time.perf_counter() - t_start < seconds:
            b = self.next_batch
            self.next_batch += 1
            rows = [self.data.stream_rows[i] for i in self.data.batches[b]]
            label = rows[0].task_id
            state = self.state
            t0 = time.perf_counter()
            x = featurize_batch([r.text for r in rows], self.config, self.params)
            if label >= state.d_k:
                state = scheduler.expand_label_space(state, label + 1)
            try:
                state = scheduler.update(
                    state, x, scheduler.one_hot([label] * len(rows), state.d_k)
                )
            except scheduler.NumericalError:
                self.numerical_errors += 1
                self.tally.check(False)
                continue
            self.batch_s.append(time.perf_counter() - t0)
            self.batch_rows.append(len(rows))
            self.features.append(x)
            self.tally.check(True)
            self.state = state
            if self.last_batch[label] == b:
                self.publish()
                break
        return self.finished

    def publish(self) -> None:
        t0 = time.perf_counter()
        scheduler.save_state(self.state, self.path)
        loaded = scheduler.load_state(self.path)
        self.publish_s.append(time.perf_counter() - t0)
        self.tally.check(
            np.array_equal(loaded.R, self.state.R) and np.array_equal(loaded.Q, self.state.Q)
        )
        self.state = loaded


class Stage:
    """Set-up ``setup_reps`` times, then about a second of the stream per step.

    Passes over the stream repeat for as long as the run lasts. Each pass is
    checked as soon as it is complete and then dropped, keeping only its
    timings, so the memory a run holds does not grow with the passes it fits.
    Only complete passes count: a pass cut off by the end of the run would add
    whichever batches it reached, and a class-sized batch among them moves
    ``absorb_rows_per_s`` by a fifth.
    """

    def __init__(self, seed: int, workdir: Path, setup_reps: int) -> None:
        self.seed = seed
        self.setups = []
        for _ in range(setup_reps):
            self._timed_setup()
        self.workdir = workdir
        self.tally = Tally()
        self.current: StreamPass | None = None
        self.finished = 0
        self.batch_s: list[float] = []
        self.batch_rows: list[int] = []
        self.publish_s: list[float] = []
        self.checks: list[dict] = []

    def close(self) -> None:
        pass

    def _timed_setup(self) -> None:
        t0 = time.perf_counter()
        self.data, self.config, self.params, self.base_features, self.base_state = setup(self.seed)
        self.setups.append(time.perf_counter() - t0)

    def step(self) -> bool:
        if self.current is None:
            self.current = StreamPass(
                self.data, self.config, self.params, self.base_state, self.workdir, self.tally
            )
        if self.current.advance(STEP_S):
            self._retire(self.current)
            self.current = None
        return self.finished > 0

    def _retire(self, done: StreamPass) -> None:
        """Output checks on a finished pass, untimed: joint-solve equality,
        symmetry and per-class routing. Only its timings are kept."""
        tally = self.tally
        state = done.state
        w_error = math.inf
        if not done.numerical_errors:
            features = np.vstack([self.base_features] + done.features)
            labels = [r.task_id for r in self.data.base + self.data.stream_rows]
            w_joint = joint_weights(features, scheduler.one_hot(labels, inputs.N_CLASSES))
            w_error = float(np.abs(state.W - w_joint).max())
        tally.check(w_error <= JOINT_TOL)
        asymmetry = float(np.abs(state.R - state.R.T).max())
        tally.check(asymmetry <= SYMMETRY_TOL)
        router = Router(state)
        per_class = {}
        for record in self.data.held_out:
            hits = per_class.setdefault(record.task_id, [0, 0])
            hits[0] += router.route(record.text).task_id == record.task_id
            hits[1] += 1
        for hit, total in per_class.values():
            tally.check(hit / total >= MIN_CLASS_ACCURACY)
        self.batch_s += done.batch_s
        self.batch_rows += done.batch_rows
        self.publish_s += done.publish_s
        self.finished += 1
        self.checks.append({
            "joint_max_abs_error": w_error,
            "r_asymmetry": asymmetry,
            "min_class_accuracy": min(h / t for h, t in per_class.values()),
        })

    def finish(self, setup_reps: int) -> dict:
        """Figures of the run, after ``setup_reps`` more timed set-ups."""
        self.current = None  # a pass cut off by the end of the run does not count
        for _ in range(setup_reps):
            self._timed_setup()
        ms = [t * 1e3 for t in self.batch_s]
        return {
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {
                "setup_s": median(self.setups),
                "absorb_rows_per_s": sum(self.batch_rows) / sum(self.batch_s),
                "absorb_batch_p50_ms": percentile(ms, 50),
                "absorb_batch_p90_ms": percentile(ms, 90),
                "publish_ms": statistics.fmean(self.publish_s) * 1e3,
                "peak_rss_mb": peak_rss_mb(),
            },
            "detail": {
                "passes": self.finished,
                "batches": len(ms),
                "rows": sum(self.batch_rows),
                "publish_samples_ms": [t * 1e3 for t in self.publish_s],
                "checks": self.checks,
                "setup_samples_s": self.setups,
            },
        }
