"""Incremental-learning protocol, its metrics, and a gradient-descent contrast.

The protocol trains a router on a base set of classes, then absorbs the
remaining classes one phase at a time, evaluating after every phase on the
cumulative test set and on the first phase's own test set. The plan's disjoint
classes partition the training rows, so none is replayed;
``tests/test_evaluation.py`` and ``bench/protocol.py`` watch the learner for
it. The baseline trains a softmax regression on the identical expanded
features with plain gradient descent, which forgets earlier classes the way
the closed-form router provably does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .checks import check_int, check_number
from .corpus import InstructionRecord
from .features import ExpansionParams, FeaturizerConfig, featurize_batch
from .scheduler import (_check_expansion_seed, _softmax, expand_label_space, fit_base, one_hot,
                        predict, update)

__all__ = [
    "PhasePlan",
    "EvalReport",
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
    """Per-phase accuracies, forgetting, confusion counts, and training reads.

    ``training_reads`` follows from the plan's partition of the train rows;
    ``final_state`` and ``final_weights`` are in-process artefacts, not JSON.
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
        for i, (acc, forg) in enumerate(zip(self.per_phase_accuracy, self.per_phase_forgetting)):
            name = f"IL Phase {i}" if i else "Base training"
            rows.append((name, f"{acc:.2f}", f"{forg:.2f}"))
        rows.append(("Average", f"{self.average_accuracy:.2f}", ""))
        widths = [max(len(row[i]) for row in rows) for i in range(3)]
        lines = []
        for row in rows:
            lines.append(
                f"{row[0]:<{widths[0]}}  {row[1]:>{widths[1]}}  {row[2]:>{widths[2]}}".rstrip()
            )
        return "\n".join(lines)


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


def _prepare(corpus: Sequence[InstructionRecord], plan: PhasePlan, config: FeaturizerConfig):
    records = list(corpus)
    corpus_classes = {r.task_id for r in records}
    plan_classes = set(plan.all_classes)
    if plan_classes != corpus_classes:
        missing = sorted(corpus_classes - plan_classes)
        extra = sorted(plan_classes - corpus_classes)
        raise ValueError(
            f"plan does not cover the corpus (classes missing from plan: {missing}, "
            f"planned but absent: {extra})"
        )
    params = ExpansionParams.for_config(config)
    features = featurize_batch([r.text for r in records], config, params)
    train_idx, test_idx = _index_by_class(records, plan)
    labels = np.array([r.task_id for r in records], dtype=np.int64)
    return features, labels, train_idx, test_idx


def _phase_metrics(
    predictor: Callable[[np.ndarray], np.ndarray],
    features: np.ndarray,
    labels: np.ndarray,
    test_idx: dict[int, np.ndarray],
    seen_classes: list[int],
    base_classes: tuple[int, ...],
    d_k: int,
) -> tuple[float, float, np.ndarray]:
    cum_rows = np.concatenate([test_idx[c] for c in sorted(seen_classes)])
    preds = np.asarray(predictor(features[cum_rows]))
    truth = labels[cum_rows]
    hits = preds == truth
    accuracy = 100.0 * float(np.mean(hits))
    # The base classes' test rows are among the cumulative ones: one prediction serves both.
    task1_acc = 100.0 * float(np.mean(hits[np.isin(truth, base_classes)]))
    confusion = np.zeros((d_k, d_k), dtype=np.int64)
    np.add.at(confusion, (truth, preds), 1)
    return accuracy, task1_acc, confusion


def _run_phases(
    method: str,
    corpus: Sequence[InstructionRecord],
    plan: PhasePlan,
    config: FeaturizerConfig,
    train: Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray], np.ndarray]],
    reads_per_phase: int = 1,
) -> EvalReport:
    """The phase loop both methods share; ``train`` is the method's one training step.

    ``train(x, targets)`` learns from one phase's rows and one-hot targets,
    which widen as classes arrive, and returns a predictor from feature rows
    to class ids; the loop scores it before the next phase trains, on the
    cumulative test set and on the base classes' test set. The plan's classes
    are disjoint, so each train row goes to ``train`` in exactly one phase,
    which reads it ``reads_per_phase`` times.
    """
    features, labels, train_idx, test_idx = _prepare(corpus, plan, config)
    phases = [("base", list(plan.base_classes))]
    phases += [(f"il_{i}", [c]) for i, c in enumerate(plan.incremental_classes, start=1)]
    accuracies: list[float] = []
    task1: list[float] = []
    confusions: list[np.ndarray] = []
    seen: list[int] = []
    for _, classes in phases:
        rows = np.concatenate([train_idx[c] for c in classes])
        seen.extend(classes)
        width = max(seen) + 1
        predictor = train(features[rows], one_hot(labels[rows], width))
        acc, t1, conf = _phase_metrics(
            predictor, features, labels, test_idx, seen, plan.base_classes, width
        )
        accuracies.append(acc)
        task1.append(t1)
        confusions.append(conf)

    n_train = sum(train_idx[c].size for c in plan.all_classes)
    return EvalReport(
        method=method,
        phase_names=[name for name, _ in phases],
        classes_per_phase=[classes for _, classes in phases],
        per_phase_accuracy=accuracies,
        task1_accuracy=task1,
        per_phase_forgetting=[task1[0] - t for t in task1],
        average_accuracy=sum(accuracies) / len(accuracies),
        confusion=confusions,
        training_reads={
            "rows": n_train,
            "min_reads": reads_per_phase,
            "max_reads": reads_per_phase,
            "total_reads": n_train * reads_per_phase,
        },
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

    Every training row enters the router exactly once across the whole run,
    by the plan's partition of the rows (see :func:`_run_phases`); the tests
    and ``bench/protocol.py`` check it on what ``fit_base`` and ``update`` get.
    The expansion is always ``config``'s seed; ``expansion_seed`` is accepted
    only as None or that seed, for callers in ``bench/``, and goes when they
    next change.
    """
    _check_expansion_seed(expansion_seed, config)
    state = None

    def train(x: np.ndarray, targets: np.ndarray):
        nonlocal state
        if state is None:
            state = fit_base(x, targets, gamma, featurizer=config)
        else:
            if targets.shape[1] > state.d_k:
                state = expand_label_space(state, targets.shape[1])
            state = update(state, x, targets)
        return lambda f: predict(state, f)

    report = _run_phases("router", corpus, plan, config, train)
    report.final_state = state
    return report


def baseline_sequential(
    corpus: Sequence[InstructionRecord],
    plan: PhasePlan,
    config: FeaturizerConfig,
    *,
    steps: int = 200,
    learning_rate: float = 0.1,
) -> EvalReport:
    """Sequentially fine-tuned softmax regression on the same expanded features.

    Each phase runs plain full-batch gradient descent on that phase's rows
    only, with no replay and nothing anchoring the old weights, so earlier
    classes degrade as later ones arrive. Evaluation mirrors
    :func:`run_protocol` exactly, through the same phase loop.
    """
    check_int(steps, "steps")
    if check_number(learning_rate, "learning_rate") < 0.0:
        raise ValueError(f"learning_rate must not be negative, got {learning_rate!r}")
    weights = np.zeros((config.d_e, 0))

    def train(x: np.ndarray, targets: np.ndarray):
        nonlocal weights
        grown = targets.shape[1] - weights.shape[1]
        if grown > 0:
            weights = np.hstack([weights, np.zeros((config.d_e, grown))])
        for _ in range(steps):
            probs = _softmax(x @ weights)
            grad = x.T @ (probs - targets) / x.shape[0]
            weights -= learning_rate * grad
        return lambda f: np.argmax(f @ weights, axis=1)

    report = _run_phases("baseline", corpus, plan, config, train, reads_per_phase=steps)
    report.final_weights = weights
    return report
