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
    ``final_state``, the last phase's model and not JSON, is the router's
    :class:`SchedulerState` or the baseline's ``(d_e, d_K)`` weight matrix.
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
    labels = np.array([r.task_id for r in records], dtype=np.int64)
    train = np.array([r.split == "train" for r in records], dtype=bool)
    classes_per_phase = [list(plan.base_classes)] + [[c] for c in plan.incremental_classes]
    train_rows, test_rows = [], []
    for classes in classes_per_phase:
        for c in classes:
            if np.unique(train[labels == c]).size < 2:
                raise ValueError(f"class {c} needs both train and test rows")
        train_rows.append(np.concatenate([np.flatnonzero(train & (labels == c)) for c in classes]))
        test_rows.append(np.concatenate([np.flatnonzero(~train & (labels == c)) for c in classes]))
    # A corpus the split refuses is never featurized.
    params = ExpansionParams.for_config(config)
    features = featurize_batch([r.text for r in records], config, params)
    return features, labels, classes_per_phase, train_rows, test_rows


def _phase_metrics(
    predictor: Callable[[np.ndarray], np.ndarray],
    features: np.ndarray,
    labels: np.ndarray,
    rows: np.ndarray,
    n_base: int,
    d_k: int,
) -> tuple[float, float, np.ndarray]:
    preds = np.asarray(predictor(features[rows]))
    truth = labels[rows]
    hits = preds == truth
    accuracy = 100.0 * float(np.mean(hits))
    # The base classes' test rows come first: one prediction serves both.
    task1_acc = 100.0 * float(np.mean(hits[:n_base]))
    confusion = np.zeros((d_k, d_k), dtype=np.int64)
    np.add.at(confusion, (truth, preds), 1)
    return accuracy, task1_acc, confusion


def _run_phases(
    method: str,
    corpus: Sequence[InstructionRecord],
    plan: PhasePlan,
    config: FeaturizerConfig,
    learn: Callable[[object, np.ndarray, np.ndarray], object],
    classify: Callable[[object, np.ndarray], np.ndarray],
    reads_per_phase: int = 1,
) -> EvalReport:
    """The phase loop both methods share: a fold of the method's ``learn`` over the phases.

    ``learn(model, x, targets)`` maps the model so far (None at first) and one
    phase's rows, class by class in plan order, with one-hot targets that widen
    as classes arrive, to the next model; ``classify(model, x)`` gives class ids.
    Each model is scored on the cumulative and the base classes' test rows. The
    plan's classes are disjoint, so each train row goes to ``learn`` in exactly
    one phase, which reads it ``reads_per_phase`` times.
    """
    features, labels, classes_per_phase, train_rows, test_rows = _prepare(corpus, plan, config)
    model, width, scores = None, 0, []
    for k, (classes, rows) in enumerate(zip(classes_per_phase, train_rows)):
        width = max(width, max(classes) + 1)
        model = learn(model, features[rows], one_hot(labels[rows], width))
        scores.append(_phase_metrics(lambda x: classify(model, x), features, labels,
                                     np.concatenate(test_rows[:k + 1]), test_rows[0].size, width))
    accuracies, task1, confusions = (list(column) for column in zip(*scores))
    n_train = sum(rows.size for rows in train_rows)
    return EvalReport(
        method=method,
        phase_names=["base"] + [f"il_{i}" for i in range(1, len(classes_per_phase))],
        classes_per_phase=classes_per_phase,
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
        final_state=model,
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

    def learn(state, x: np.ndarray, targets: np.ndarray):
        if state is None:
            return fit_base(x, targets, gamma, featurizer=config)
        if targets.shape[1] > state.d_k:
            state = expand_label_space(state, targets.shape[1])
        return update(state, x, targets)

    return _run_phases("router", corpus, plan, config, learn, predict)


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

    def learn(previous, x: np.ndarray, targets: np.ndarray) -> np.ndarray:
        weights = np.zeros((config.d_e, targets.shape[1]))
        if previous is not None:
            weights[:, :previous.shape[1]] = previous
        for _ in range(steps):
            probs = _softmax(x @ weights)
            grad = x.T @ (probs - targets) / x.shape[0]
            weights -= learning_rate * grad
        return weights

    return _run_phases("baseline", corpus, plan, config, learn,
                       lambda weights, x: np.argmax(x @ weights, axis=1), reads_per_phase=steps)
