"""The protocol path: the replay-free protocol over all themes on a noisy corpus.

Dropped and cross-class swapped tokens keep accuracy well below 100%, so a
change that costs quality or raises forgetting shows here and nowhere else.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from common import Tally, median, peak_rss_mb
import inputs
from taskrouter import evaluation
from taskrouter.evaluation import run_protocol
from taskrouter.features import FeaturizerConfig

MIN_RUNS = 3


class TrainingReads:
    """Every row ``run_protocol`` passes to ``fit_base`` and ``update``, seen from outside.

    The protocol's own read counter is not trusted: the rows are taken from
    the calls themselves and matched, by content, against the featurized
    training records.
    """

    def __init__(self) -> None:
        self.features = None
        self.passed = []

    @contextmanager
    def watching(self):
        featurize, fit_base, update = (
            evaluation.featurize_batch, evaluation.fit_base, evaluation.update
        )

        def featurize_seen(*args, **kwargs):
            self.features = featurize(*args, **kwargs)
            return self.features

        def fit_base_seen(features, *args, **kwargs):
            self.passed.append(features)
            return fit_base(features, *args, **kwargs)

        def update_seen(state, features, *args, **kwargs):
            self.passed.append(features)
            return update(state, features, *args, **kwargs)

        evaluation.featurize_batch = featurize_seen
        evaluation.fit_base = fit_base_seen
        evaluation.update = update_seen
        try:
            yield self
        finally:
            evaluation.featurize_batch, evaluation.fit_base, evaluation.update = (
                featurize, fit_base, update
            )

    @property
    def total(self) -> int:
        return sum(len(x) for x in self.passed)

    def once(self, corpus) -> bool:
        """True when every training row was passed exactly once and nothing else was."""
        if self.features is None:
            return False
        expected = Counter(
            self.features[i].tobytes() for i, r in enumerate(corpus) if r.split == "train"
        )
        return Counter(row.tobytes() for x in self.passed for row in x) == expected


def outcome(report) -> tuple:
    """What must repeat exactly from run to run."""
    return (
        report.per_phase_accuracy,
        report.per_phase_forgetting,
        [m.tolist() for m in report.confusion],
    )


class Stage:
    """One protocol run per step over the same noisy corpus.

    A run that raises counts as a failed attempt; the run goes on.
    """

    def __init__(self, seed: int, workdir: Path, setup_reps: int) -> None:
        self.corpus, self.plan = inputs.protocol_corpus(seed)
        self.config = FeaturizerConfig()
        self.runs: list[float] = []
        self.first = None
        self.reads = None
        self.tally = Tally()

    def close(self) -> None:
        pass

    def step(self) -> bool:
        reads = TrainingReads()
        try:
            with reads.watching():
                t0 = time.perf_counter()
                report = run_protocol(
                    self.corpus, self.plan, self.config, expansion_seed=self.config.seed
                )
                elapsed = time.perf_counter() - t0
        except Exception:
            self.tally.check(False)
        else:
            self.runs.append(elapsed)
            self.first = self.first or report
            self.reads = self.reads or reads.total
            self.tally.check(reads.once(self.corpus) and outcome(report) == outcome(self.first))
        return self.tally.attempted >= MIN_RUNS

    def finish(self, setup_reps: int) -> dict:
        first = self.first
        metrics = {}
        detail = {"runs": len(self.runs), "texts": len(self.corpus), "peak_rss_mb": peak_rss_mb()}
        if first is not None:
            metrics = {
                "eval_s": median(self.runs),
                "accuracy_avg_pct": first.average_accuracy,
            }
            detail.update(
                run_samples_s=self.runs,
                forgetting_pct=first.per_phase_forgetting[-1],
                per_phase_accuracy=first.per_phase_accuracy,
                training_reads_counted=self.reads,
                training_reads_reported=first.training_reads,
            )
        return {
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": metrics,
            "detail": detail,
        }
