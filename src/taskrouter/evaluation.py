"""Incremental-learning protocol, its metrics, and a gradient-descent contrast.

The protocol trains a router on a base set of classes, then absorbs the
remaining classes one phase at a time, evaluating after every phase on the
cumulative test set and on the first phase's own test set. Training rows are
instrumented so a run can prove it never replayed data. The baseline trains a
softmax regression on the identical expanded features with plain gradient
descent, which forgets earlier classes the way the closed-form router
provably does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .checks import check_int
from .corpus import InstructionRecord
from .features import ExpansionParams, FeaturizerConfig, featurize_batch
from .scheduler import _softmax, expand_label_space, fit_base, one_hot, predict, update

__all__ = [
    "PhasePlan",
    "EvalReport",
    "average_accuracy",
    "forgetting_rate",
    "run_protocol",
    "baseline_sequential",
]


@dataclass(frozen=True)
class PhasePlan:
    """Which classes train jointly up front and which arrive one per phase."""

    base_classes: tuple[int, ...]
    incremental_classes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("base_classes", "incremental_classes"):
            ids = getattr(self, name)
            if not isinstance(ids, (list, tuple)):
                raise ValueError(f"{name} must be a list of class ids, got {ids!r}")
            object.__setattr__(self, name, tuple(check_int(c, f"{name} class id") for c in ids))
        base, inc = self.base_classes, self.incremental_classes
        if not base:
            raise ValueError("at least one base class is required")
        if len(set(base)) != len(base) or len(set(inc)) != len(inc):
            raise ValueError("duplicate class ids in the plan")
        if set(base) & set(inc):
            raise ValueError("base and incremental class sets must be disjoint")

    @property
    def all_classes(self) -> tuple[int, ...]:
        return self.base_classes + self.incremental_classes


@dataclass
class EvalReport:
    """Per-phase accuracies, forgetting, confusion counts, and read instrumentation.

    ``read_counts``, ``final_state`` and ``final_weights`` are in-process
    artefacts for callers and tests; they are not part of the JSON form.
    """

    method: str
    phase_names: list[str]
    classes_per_phase: list[list[int]]
    per_phase_accuracy: list[float]
    task1_accuracy: list[float]
    per_phase_forgetting: list[float]
    average_accuracy: float
    confusion: list[np.ndarray]
    training_reads: dict[str, int]
    read_counts: np.ndarray = field(repr=False, default=None)
    final_state: object = field(repr=False, default=None)
    final_weights: np.ndarray | None = field(repr=False, default=None)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "phases": [
                {
                    "name": name,
                    "new_classes": list(classes),
                    "accuracy": acc,
                    "task1_accuracy": t1,
                }
                for name, classes, acc, t1 in zip(
                    self.phase_names,
                    self.classes_per_phase,
                    self.per_phase_accuracy,
                    self.task1_accuracy,
                )
            ],
            "average_accuracy": self.average_accuracy,
            "forgetting": list(self.per_phase_forgetting),
            "confusion": [m.tolist() for m in self.confusion],
            "training_reads": dict(self.training_reads),
        }

    def to_table(self) -> str:
        """Aligned plain-text table: one row per phase plus the average."""
        rows = [("Phase", "Accuracy (%)", "Forgetting (%)")]
        for name, acc, forg in zip(
            self.phase_names, self.per_phase_accuracy, self.per_phase_forgetting
        ):
            rows.append((_display_name(name), f"{acc:.2f}", f"{forg:.2f}"))
        rows.append(("Average", f"{self.average_accuracy:.2f}", ""))
        widths = [max(len(row[i]) for row in rows) for i in range(3)]
        lines = []
        for row in rows:
            lines.append(
                f"{row[0]:<{widths[0]}}  {row[1]:>{widths[1]}}  {row[2]:>{widths[2]}}".rstrip()
            )
        return "\n".join(lines)


def _display_name(phase_name: str) -> str:
    if phase_name == "base":
        return "Base training"
    if phase_name.startswith("il_"):
        return f"IL Phase {phase_name[3:]}"
    return phase_name


def average_accuracy(per_phase: Sequence[float]) -> float:
    """Arithmetic mean of the per-phase cumulative accuracies."""
    values = list(per_phase)
    if not values:
        raise ValueError("need at least one phase accuracy")
    if any(not 0.0 <= v <= 100.0 for v in values):
        raise ValueError("accuracies must lie in [0, 100]")
    return float(sum(values) / len(values))


def forgetting_rate(acc_task1_initial: float, acc_task1_now: float) -> float:
    """Accuracy drop on the first task; negative when accuracy improved."""
    for value in (acc_task1_initial, acc_task1_now):
        if not 0.0 <= value <= 100.0:
            raise ValueError("accuracies must lie in [0, 100]")
    return acc_task1_initial - acc_task1_now


def _index_by_class(
    records: list[InstructionRecord], plan: PhasePlan
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    train_idx: dict[int, list[int]] = {c: [] for c in plan.all_classes}
    test_idx: dict[int, list[int]] = {c: [] for c in plan.all_classes}
    for i, record in enumerate(records):
        (train_idx if record.split == "train" else test_idx)[record.task_id].append(i)
    for c in plan.all_classes:
        if not train_idx[c] or not test_idx[c]:
            raise ValueError(f"class {c} needs both train and test rows")
    return (
        {c: np.array(v, dtype=np.int64) for c, v in train_idx.items()},
        {c: np.array(v, dtype=np.int64) for c, v in test_idx.items()},
    )


def _prepare(
    corpus: Sequence[InstructionRecord],
    plan: PhasePlan,
    config: FeaturizerConfig,
    expansion_seed: int | None,
):
    records = list(corpus)
    if not records:
        raise ValueError("corpus is empty")
    corpus_classes = {r.task_id for r in records}
    plan_classes = set(plan.all_classes)
    if plan_classes != corpus_classes:
        missing = sorted(corpus_classes - plan_classes)
        extra = sorted(plan_classes - corpus_classes)
        raise ValueError(
            f"plan does not cover the corpus (classes missing from plan: {missing}, "
            f"planned but absent: {extra})"
        )
    params = ExpansionParams.for_config(config, expansion_seed)
    features = featurize_batch([r.text for r in records], config, params)
    train_idx, test_idx = _index_by_class(records, plan)
    labels = np.array([r.task_id for r in records], dtype=np.int64)
    return records, params.seed, features, labels, train_idx, test_idx


def _phases(plan: PhasePlan) -> list[tuple[str, list[int]]]:
    out: list[tuple[str, list[int]]] = [("base", list(plan.base_classes))]
    out += [(f"il_{i}", [c]) for i, c in enumerate(plan.incremental_classes, start=1)]
    return out


def _phase_metrics(
    predictor: Callable[[np.ndarray], np.ndarray],
    features: np.ndarray,
    labels: np.ndarray,
    test_idx: dict[int, np.ndarray],
    seen_classes: list[int],
    task1_rows: np.ndarray,
    d_k: int,
) -> tuple[float, float, np.ndarray]:
    cum_rows = np.concatenate([test_idx[c] for c in sorted(seen_classes)])
    preds = np.asarray(predictor(features[cum_rows]))
    truth = labels[cum_rows]
    accuracy = 100.0 * float(np.mean(preds == truth))
    t1_preds = np.asarray(predictor(features[task1_rows]))
    task1_acc = 100.0 * float(np.mean(t1_preds == labels[task1_rows]))
    confusion = np.zeros((d_k, d_k), dtype=np.int64)
    np.add.at(confusion, (truth, preds), 1)
    return accuracy, task1_acc, confusion


def _run_phases(
    method: str,
    corpus: Sequence[InstructionRecord],
    plan: PhasePlan,
    config: FeaturizerConfig,
    expansion_seed: int | None,
    train: Callable[[np.ndarray, np.ndarray, int], Callable[[np.ndarray], np.ndarray]],
    reads_per_phase: int = 1,
) -> EvalReport:
    """The phase loop both methods share; ``train`` is the method's one training step.

    ``train(x, targets, expansion_seed)`` learns from one phase's rows and
    one-hot targets, which widen as classes arrive, and returns a predictor
    from feature rows to class ids; the loop scores it before the next phase
    trains, on the cumulative test set and on the base classes' test set.
    Each phase counts ``reads_per_phase`` reads of its training rows.
    """
    records, seed, features, labels, train_idx, test_idx = _prepare(
        corpus, plan, config, expansion_seed
    )
    reads = np.zeros(len(records), dtype=np.int64)
    task1_rows = np.concatenate([test_idx[c] for c in sorted(plan.base_classes)])
    phase_names: list[str] = []
    classes_per_phase: list[list[int]] = []
    accuracies: list[float] = []
    task1: list[float] = []
    confusions: list[np.ndarray] = []
    width = 0
    seen: list[int] = []
    for name, classes in _phases(plan):
        rows = np.concatenate([train_idx[c] for c in classes])
        width = max(width, max(classes) + 1)
        predictor = train(features[rows], one_hot(labels[rows], width), seed)
        reads[rows] += reads_per_phase
        seen.extend(classes)
        acc, t1, conf = _phase_metrics(
            predictor, features, labels, test_idx, seen, task1_rows, width
        )
        phase_names.append(name)
        classes_per_phase.append(list(classes))
        accuracies.append(acc)
        task1.append(t1)
        confusions.append(conf)

    train_rows = np.concatenate([train_idx[c] for c in plan.all_classes])
    per_row = reads[train_rows]
    return EvalReport(
        method=method,
        phase_names=phase_names,
        classes_per_phase=classes_per_phase,
        per_phase_accuracy=accuracies,
        task1_accuracy=task1,
        per_phase_forgetting=[forgetting_rate(task1[0], t) for t in task1],
        average_accuracy=average_accuracy(accuracies),
        confusion=confusions,
        training_reads={
            "rows": int(train_rows.size),
            "min_reads": int(per_row.min()),
            "max_reads": int(per_row.max()),
            "total_reads": int(per_row.sum()),
        },
        read_counts=reads,
    )


def run_protocol(
    corpus: Sequence[InstructionRecord],
    plan: PhasePlan,
    config: FeaturizerConfig,
    *,
    gamma: float = 1.0,
    expansion_seed: int | None = None,
) -> EvalReport:
    """Run the replay-free protocol: joint base fit, then one update per class.

    Every training row enters the router exactly once across the whole run;
    the function raises if its own instrumentation ever observes a re-read.
    """
    state = None

    def train(x: np.ndarray, targets: np.ndarray, seed: int):
        nonlocal state
        if state is None:
            state = fit_base(x, targets, gamma, featurizer=config, expansion_seed=seed)
        else:
            if targets.shape[1] > state.d_k:
                state = expand_label_space(state, targets.shape[1])
            state = update(state, x, targets)
        return lambda f: predict(state, f)

    report = _run_phases("router", corpus, plan, config, expansion_seed, train)
    reads = report.training_reads
    if (reads["min_reads"], reads["max_reads"]) != (1, 1) or (
        report.read_counts.sum() != reads["rows"]
    ):
        raise RuntimeError("replay detected: a training row was read more than once")
    report.final_state = state
    return report


def baseline_sequential(
    corpus: Sequence[InstructionRecord],
    plan: PhasePlan,
    config: FeaturizerConfig,
    *,
    steps: int = 200,
    learning_rate: float = 0.1,
    expansion_seed: int | None = None,
) -> EvalReport:
    """Sequentially fine-tuned softmax regression on the same expanded features.

    Each phase runs plain full-batch gradient descent on that phase's rows
    only, with no replay and nothing anchoring the old weights, so earlier
    classes degrade as later ones arrive. Evaluation mirrors
    :func:`run_protocol` exactly, through the same phase loop.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    weights = np.zeros((config.d_e, 0))

    def train(x: np.ndarray, targets: np.ndarray, _seed: int):
        nonlocal weights
        grown = targets.shape[1] - weights.shape[1]
        if grown > 0:
            weights = np.hstack([weights, np.zeros((config.d_e, grown))])
        for _ in range(steps):
            probs = _softmax(x @ weights)
            grad = x.T @ (probs - targets) / x.shape[0]
            weights -= learning_rate * grad
        return lambda f: np.argmax(f @ weights, axis=1)

    report = _run_phases(
        "baseline", corpus, plan, config, expansion_seed, train, reads_per_phase=steps
    )
    report.final_weights = weights
    return report
