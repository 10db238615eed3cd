"""Incremental protocol, metrics, report invariants, and the gradient baseline."""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from taskrouter import evaluation
from taskrouter.corpus import generate_synthetic_corpus
from taskrouter.evaluation import EvalReport, PhasePlan, baseline_sequential, run_protocol
from taskrouter.features import ExpansionParams, FeaturizerConfig, featurize_batch
from taskrouter.scheduler import fit_base, one_hot, predict

SMALL_CFG = FeaturizerConfig(seed=0, d_f=32, d_e=256)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_synthetic_corpus(4, 30, seed=0)


@pytest.fixture(scope="module")
def small_plan():
    return PhasePlan(base_classes=(0, 1), incremental_classes=(2, 3))


# -- metrics -------------------------------------------------------------------


def _report_with_metrics(monkeypatch, accuracies, task1):
    """A protocol report whose phases measured exactly ``accuracies`` and ``task1``."""
    scripted = iter(zip(accuracies, task1))

    def phase_metrics(predictor, features, labels, rows, n_base, d_k):
        acc, t1 = next(scripted)
        return acc, t1, np.zeros((d_k, d_k), dtype=np.int64)

    monkeypatch.setattr(evaluation, "_phase_metrics", phase_metrics)
    n = len(accuracies)
    corpus = generate_synthetic_corpus(n + 1, 10, seed=0)
    plan = PhasePlan(base_classes=(0, 1), incremental_classes=tuple(range(2, n + 1)))
    return run_protocol(corpus, plan, SMALL_CFG)


def test_average_accuracy_arithmetic(monkeypatch):
    report = _report_with_metrics(monkeypatch, [100.0, 98.61], [100.0, 100.0])
    assert abs(report.average_accuracy - 99.305) < 1e-12


def test_average_accuracy_degenerate_cases(monkeypatch):
    assert _report_with_metrics(monkeypatch, [73.25], [73.25]).average_accuracy == 73.25
    assert _report_with_metrics(monkeypatch, [50.0] * 3, [50.0] * 3).average_accuracy == 50.0


def test_forgetting_rate_formula(monkeypatch):
    def forgetting(initial, now):
        report = _report_with_metrics(monkeypatch, [100.0, 100.0], [initial, now])
        return report.per_phase_forgetting

    assert forgetting(100.0, 95.0) == [0.0, 5.0]
    assert forgetting(88.8, 88.8) == [0.0, 0.0]
    assert forgetting(90.0, 95.0) == [0.0, -5.0]


# -- plan validation -------------------------------------------------------------


def test_plan_rejects_overlap_and_duplicates():
    with pytest.raises(ValueError):
        PhasePlan(base_classes=(0, 1), incremental_classes=(1, 2))
    with pytest.raises(ValueError):
        PhasePlan(base_classes=(0, 0), incremental_classes=(1,))
    with pytest.raises(ValueError):
        PhasePlan(base_classes=(), incremental_classes=(1,))


@pytest.mark.parametrize("field", ["base_classes", "incremental_classes"])
@pytest.mark.parametrize("bad", [1.9, "3", True, False])
def test_plan_refuses_class_ids_that_are_not_ints(field, bad):
    ids = {"base_classes": (0,), "incremental_classes": (1,)}
    ids[field] += (bad,)
    with pytest.raises(ValueError, match=field):
        PhasePlan(**ids)


@pytest.mark.parametrize("field", ["base_classes", "incremental_classes"])
@pytest.mark.parametrize("bad", [0, "01", None])
def test_plan_refuses_a_field_that_is_not_a_list(field, bad):
    ids = {"base_classes": (0,), "incremental_classes": (1,), field: bad}
    with pytest.raises(ValueError, match=field):
        PhasePlan(**ids)


def test_protocol_rejects_plans_that_miss_classes(small_corpus):
    plan = PhasePlan(base_classes=(0, 1), incremental_classes=(2,))
    with pytest.raises(ValueError, match="missing from plan"):
        run_protocol(small_corpus, plan, SMALL_CFG)
    plan = PhasePlan(base_classes=(0, 1), incremental_classes=(2, 3, 4))
    with pytest.raises(ValueError, match="absent"):
        run_protocol(small_corpus, plan, SMALL_CFG)


@pytest.mark.parametrize("keep, match", [
    (lambda r: False, r"planned but absent: \[0, 1, 2, 3\]"),
    (lambda r: not (r.task_id == 3 and r.split == "test"), "class 3 needs both train and test"),
], ids=["empty-corpus", "class-without-test-rows"])
def test_protocol_refuses_a_corpus_it_cannot_split_by_the_plan(small_corpus, small_plan, keep,
                                                               match):
    with pytest.raises(ValueError, match=match):
        run_protocol([r for r in small_corpus if keep(r)], small_plan, SMALL_CFG)


def test_protocol_refuses_a_corpus_it_cannot_split_before_featurizing_it(small_corpus, small_plan,
                                                                         monkeypatch):
    def featurize_batch(*args):
        raise AssertionError("featurized a corpus the protocol refuses")

    monkeypatch.setattr(evaluation, "featurize_batch", featurize_batch)
    corpus = [r for r in small_corpus if not (r.task_id == 3 and r.split == "test")]
    with pytest.raises(ValueError, match="^class 3 needs both train and test rows$"):
        run_protocol(corpus, small_plan, SMALL_CFG)


# -- protocol structure ------------------------------------------------------------


def test_two_class_plan_produces_two_phases():
    corpus = generate_synthetic_corpus(2, 20, seed=1)
    plan = PhasePlan(base_classes=(0,), incremental_classes=(1,))
    report = run_protocol(corpus, plan, SMALL_CFG)
    assert report.phase_names == ["base", "il_1"]
    assert len(report.per_phase_accuracy) == 2
    assert len(report.confusion) == 2
    assert report.confusion[0].shape == (1, 1)
    assert report.confusion[1].shape == (2, 2)


def test_protocol_is_deterministic(small_corpus, small_plan):
    a = run_protocol(small_corpus, small_plan, SMALL_CFG)
    b = run_protocol(small_corpus, small_plan, SMALL_CFG)
    assert a.per_phase_accuracy == b.per_phase_accuracy
    assert a.per_phase_forgetting == b.per_phase_forgetting
    assert all(np.array_equal(x, y) for x, y in zip(a.confusion, b.confusion))


def test_report_arithmetic_invariants(small_corpus, small_plan):
    report = run_protocol(small_corpus, small_plan, SMALL_CFG)
    assert all(0.0 <= a <= 100.0 for a in report.per_phase_accuracy)
    mean = sum(report.per_phase_accuracy) / len(report.per_phase_accuracy)
    assert abs(report.average_accuracy - mean) < 1e-9
    for f, t1 in zip(report.per_phase_forgetting, report.task1_accuracy):
        assert f == report.task1_accuracy[0] - t1
    assert report.per_phase_forgetting[0] == 0.0


def test_confusion_rows_cover_only_seen_classes(small_corpus, small_plan):
    report = run_protocol(small_corpus, small_plan, SMALL_CFG)
    seen: set[int] = set()
    for classes, conf in zip(report.classes_per_phase, report.confusion):
        seen.update(classes)
        row_totals = conf.sum(axis=1)
        for class_id in range(conf.shape[0]):
            if class_id in seen:
                assert row_totals[class_id] > 0
            else:
                assert row_totals[class_id] == 0


def test_no_replay_instrumentation(small_corpus, small_plan):
    report = run_protocol(small_corpus, small_plan, SMALL_CFG)
    assert report.training_reads["min_reads"] == 1
    assert report.training_reads["max_reads"] == 1
    n_train = sum(1 for r in small_corpus if r.split == "train")
    assert report.training_reads["rows"] == n_train
    assert report.training_reads["total_reads"] == n_train


def test_final_state_matches_joint_fit(small_corpus, small_plan):
    report = run_protocol(small_corpus, small_plan, SMALL_CFG, gamma=1.0)
    params = ExpansionParams.create(SMALL_CFG.seed, SMALL_CFG.d_f, SMALL_CFG.d_e)
    train = [r for r in small_corpus if r.split == "train"]
    feats = featurize_batch([r.text for r in train], SMALL_CFG, params)
    labels = one_hot([r.task_id for r in train], 4)
    joint = fit_base(feats, labels, gamma=1.0)
    assert np.abs(report.final_state.W - joint.W).max() <= 1e-8


# -- baseline -----------------------------------------------------------------------


def test_baseline_report_mirrors_protocol_shape(small_corpus, small_plan):
    report = baseline_sequential(small_corpus, small_plan, SMALL_CFG, steps=30)
    assert report.method == "baseline"
    assert report.phase_names == ["base", "il_1", "il_2"]
    assert len(report.per_phase_forgetting) == 3


_IN_ORDER_AND_SHUFFLED = pytest.mark.parametrize(
    "plan",
    [
        PhasePlan(base_classes=(0, 1), incremental_classes=(2, 3)),
        PhasePlan(base_classes=(3,), incremental_classes=(0, 2, 1)),
    ],
    ids=["in-order", "shuffled"],
)


@_IN_ORDER_AND_SHUFFLED
def test_the_learner_receives_each_train_row_exactly_once(small_corpus, plan, monkeypatch):
    # Zero replay, watched from outside the phase loop: every feature row that
    # fit_base and update receive is recorded as it arrives.
    received: list[bytes] = []
    real_fit_base, real_update = evaluation.fit_base, evaluation.update

    def fit_base_watched(x, *args, **kwargs):
        received.extend(row.tobytes() for row in x)
        return real_fit_base(x, *args, **kwargs)

    def update_watched(state, x, *args, **kwargs):
        received.extend(row.tobytes() for row in x)
        return real_update(state, x, *args, **kwargs)

    monkeypatch.setattr(evaluation, "fit_base", fit_base_watched)
    monkeypatch.setattr(evaluation, "update", update_watched)
    report = run_protocol(small_corpus, plan, SMALL_CFG)
    features = featurize_batch([r.text for r in small_corpus], SMALL_CFG,
                               ExpansionParams.for_config(SMALL_CFG))
    train = [row.tobytes() for row, r in zip(features, small_corpus) if r.split == "train"]
    assert Counter(received) == Counter(train)
    assert report.training_reads["total_reads"] == len(received)


def test_the_base_fit_receives_its_classes_rows_in_plan_order(monkeypatch):
    # The order of the base rows fixes the bytes of the fitted state: class 2's
    # train rows, then class 0's, each in corpus order. The zero-replay test
    # above compares multisets, so it cannot see this.
    corpus = generate_synthetic_corpus(3, 20, seed=4)
    received = []
    real_fit_base = evaluation.fit_base

    def fit_base_watched(x, *args, **kwargs):
        received.append(x)
        return real_fit_base(x, *args, **kwargs)

    monkeypatch.setattr(evaluation, "fit_base", fit_base_watched)
    run_protocol(corpus, PhasePlan(base_classes=(2, 0), incremental_classes=(1,)), SMALL_CFG)
    texts = [r.text for c in (2, 0) for r in corpus if r.task_id == c and r.split == "train"]
    expected = featurize_batch(texts, SMALL_CFG, ExpansionParams.for_config(SMALL_CFG))
    (x,) = received
    assert np.array_equal(x, expected)


@_IN_ORDER_AND_SHUFFLED
def test_both_methods_score_the_same_rows(small_corpus, plan):
    router = run_protocol(small_corpus, plan, SMALL_CFG)
    baseline = baseline_sequential(small_corpus, plan, SMALL_CFG, steps=5)
    assert router.phase_names == baseline.phase_names
    assert router.classes_per_phase == baseline.classes_per_phase
    assert len(router.confusion) == len(baseline.confusion) == len(router.phase_names)
    for ours, theirs in zip(router.confusion, baseline.confusion):
        assert ours.shape == theirs.shape
        assert np.array_equal(ours.sum(axis=1), theirs.sum(axis=1))
    assert router.training_reads["rows"] == baseline.training_reads["rows"]


@_IN_ORDER_AND_SHUFFLED
def test_task1_accuracy_matches_predicting_the_base_rows_alone(small_corpus, plan):
    # The reference: after phase k, the model a run on the plan's first k + 1
    # phases ends with, predicting the base classes' test rows and nothing else.
    base_test = [r for r in small_corpus if r.split == "test" and r.task_id in plan.base_classes]
    x = featurize_batch([r.text for r in base_test], SMALL_CFG,
                        ExpansionParams.for_config(SMALL_CFG))
    truth = np.array([r.task_id for r in base_test])
    router = run_protocol(small_corpus, plan, SMALL_CFG)
    baseline = baseline_sequential(small_corpus, plan, SMALL_CFG, steps=5)
    for k in range(len(plan.incremental_classes) + 1):
        prefix = PhasePlan(plan.base_classes, plan.incremental_classes[:k])
        corpus = [r for r in small_corpus if r.task_id in prefix.all_classes]
        state = run_protocol(corpus, prefix, SMALL_CFG).final_state
        weights = baseline_sequential(corpus, prefix, SMALL_CFG, steps=5).final_state
        assert router.task1_accuracy[k] == 100.0 * float(np.mean(predict(state, x) == truth))
        assert baseline.task1_accuracy[k] == 100.0 * float(
            np.mean(np.argmax(x @ weights, axis=1) == truth))


def test_baseline_forgets_more_than_router(small_corpus, small_plan):
    router = run_protocol(small_corpus, small_plan, SMALL_CFG)
    baseline = baseline_sequential(small_corpus, small_plan, SMALL_CFG)
    assert baseline.per_phase_forgetting[-1] > router.per_phase_forgetting[-1]


def test_zero_learning_rate_means_no_training(small_corpus, small_plan):
    frozen = baseline_sequential(
        small_corpus, small_plan, SMALL_CFG, steps=50, learning_rate=0.0
    )
    untrained = baseline_sequential(
        small_corpus, small_plan, SMALL_CFG, steps=0
    )
    assert frozen.per_phase_accuracy == untrained.per_phase_accuracy
    assert np.array_equal(frozen.final_state, np.zeros_like(frozen.final_state))


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"steps": True}, "steps"),
        ({"steps": 2.5}, "steps"),
        ({"steps": -1}, "steps"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"learning_rate": True}, "learning_rate"),
        ({"learning_rate": -0.1}, "learning_rate"),
    ],
    ids=["bool-steps", "float-steps", "negative-steps", "nan-rate", "inf-rate", "bool-rate",
         "negative-rate"],
)
def test_baseline_validates_its_arguments(small_corpus, small_plan, kwargs, field):
    with pytest.raises(ValueError, match=field):
        baseline_sequential(small_corpus, small_plan, SMALL_CFG, **kwargs)


def test_fit_base_and_run_protocol_refuse_an_expansion_seed_other_than_the_featurizer_seed(
    small_corpus, small_plan
):
    # The keyword stays only for callers that still pass the featurizer's own
    # seed; any other value, or one without a featurizer, is refused by name.
    config = FeaturizerConfig(seed=1, d_f=1, d_e=2)
    for bad in (2, True, 1.0, "1"):
        with pytest.raises(ValueError, match="expansion_seed"):
            fit_base(np.eye(2), np.eye(2), 1.0, featurizer=config, expansion_seed=bad)
        with pytest.raises(ValueError, match="expansion_seed"):
            run_protocol(small_corpus, small_plan, config, expansion_seed=bad)
    with pytest.raises(ValueError, match="expansion_seed"):
        fit_base(np.eye(2), np.eye(2), 1.0, expansion_seed=1)
    same = fit_base(np.eye(2), np.eye(2), 1.0, featurizer=config, expansion_seed=1)
    assert np.array_equal(same.W, fit_base(np.eye(2), np.eye(2), 1.0, featurizer=config).W)
    assert (run_protocol(small_corpus, small_plan, SMALL_CFG, expansion_seed=0).to_json_dict()
            == run_protocol(small_corpus, small_plan, SMALL_CFG).to_json_dict())


def test_single_phase_plan_both_methods_score_high():
    corpus = generate_synthetic_corpus(10, 102, seed=0)
    plan = PhasePlan(base_classes=tuple(range(10)))
    config = FeaturizerConfig(seed=0)
    router = run_protocol(corpus, plan, config)
    # GD needs more than the default budget to converge on 10 joint classes;
    # the forgetting-contrast defaults stay at 200 steps and lr 0.1.
    baseline = baseline_sequential(corpus, plan, config, steps=1000, learning_rate=1.0)
    assert router.per_phase_accuracy[0] >= 95.0
    assert baseline.per_phase_accuracy[0] >= 95.0


# -- rendering -----------------------------------------------------------------------


def test_report_json_shape(small_corpus, small_plan):
    report = run_protocol(small_corpus, small_plan, SMALL_CFG)
    doc = report.to_json_dict()
    assert set(doc) == {
        "method", "phases", "average_accuracy", "forgetting", "confusion",
        "training_reads",
    }
    assert len(doc["phases"]) == 3
    assert doc["phases"][0]["name"] == "base"
    assert doc["phases"][1]["new_classes"] == [2]
    assert doc["forgetting"][0] == 0.0
    assert isinstance(doc["confusion"][0][0][0], int)


def test_report_table_layout(small_corpus, small_plan):
    table = run_protocol(small_corpus, small_plan, SMALL_CFG).to_table()
    lines = table.splitlines()
    assert lines[0].startswith("Phase")
    assert "Accuracy (%)" in lines[0] and "Forgetting (%)" in lines[0]
    assert lines[1].startswith("Base training")
    assert lines[2].startswith("IL Phase 1")
    assert lines[-1].startswith("Average")


def test_report_is_a_plain_dataclass_round_trip():
    report = EvalReport(
        method="router",
        phase_names=["base"],
        classes_per_phase=[[0]],
        per_phase_accuracy=[100.0],
        task1_accuracy=[100.0],
        per_phase_forgetting=[0.0],
        average_accuracy=100.0,
        confusion=[np.zeros((1, 1), dtype=np.int64)],
        training_reads={"rows": 1, "min_reads": 1, "max_reads": 1, "total_reads": 1},
    )
    assert report.to_json_dict()["average_accuracy"] == 100.0


def test_readme_library_use_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None, "README has no Library use block"
    namespace: dict = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    assert capsys.readouterr().out.splitlines()[-1].startswith("Average")
    assert namespace["report"].per_phase_accuracy[-1] >= 95.0
    assert (namespace["state"].d_k, namespace["state"].tasks_seen) == (3, 1)
