"""Incremental protocol, metrics, report invariants, and the gradient baseline."""

from __future__ import annotations

import numpy as np
import pytest

from taskrouter.corpus import generate_synthetic_corpus
from taskrouter.evaluation import (
    EvalReport,
    PhasePlan,
    average_accuracy,
    baseline_sequential,
    forgetting_rate,
    run_protocol,
)
from taskrouter.features import ExpansionParams, FeaturizerConfig, featurize_batch
from taskrouter.scheduler import fit_base, one_hot

SMALL_CFG = FeaturizerConfig(seed=0, d_f=32, d_e=256)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_synthetic_corpus(4, 30, seed=0)


@pytest.fixture(scope="module")
def small_plan():
    return PhasePlan(base_classes=(0, 1), incremental_classes=(2, 3))


# -- metrics -------------------------------------------------------------------


def test_average_accuracy_arithmetic():
    assert abs(average_accuracy([100.0, 98.61]) - 99.305) < 1e-12


def test_average_accuracy_degenerate_cases():
    assert average_accuracy([73.25]) == 73.25
    assert average_accuracy([50.0, 50.0, 50.0]) == 50.0


def test_average_accuracy_rejects_bad_input():
    with pytest.raises(ValueError):
        average_accuracy([])
    with pytest.raises(ValueError):
        average_accuracy([101.0])


def test_forgetting_rate_formula():
    assert forgetting_rate(100.0, 95.0) == 5.0
    assert forgetting_rate(88.8, 88.8) == 0.0
    assert forgetting_rate(90.0, 95.0) == -5.0
    with pytest.raises(ValueError):
        forgetting_rate(-1.0, 50.0)


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


def test_protocol_rejects_plans_that_miss_classes(small_corpus):
    plan = PhasePlan(base_classes=(0, 1), incremental_classes=(2,))
    with pytest.raises(ValueError, match="missing from plan"):
        run_protocol(small_corpus, plan, SMALL_CFG)
    plan = PhasePlan(base_classes=(0, 1), incremental_classes=(2, 3, 4))
    with pytest.raises(ValueError, match="absent"):
        run_protocol(small_corpus, plan, SMALL_CFG)


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


@pytest.mark.parametrize(
    "plan",
    [
        PhasePlan(base_classes=(0, 1), incremental_classes=(2, 3)),
        PhasePlan(base_classes=(3,), incremental_classes=(0, 2, 1)),
    ],
    ids=["in-order", "shuffled"],
)
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
    assert np.array_equal(frozen.final_weights, np.zeros_like(frozen.final_weights))


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
