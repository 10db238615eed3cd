"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``[acceptance] ... PASS`` line; run with ``-rA`` (or
``-s``) to see them alongside the pytest verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import pytest

from oracle import gram_form_step, ridge_objective, ridge_weights
from taskrouter.cli import main
from taskrouter.corpus import generate_synthetic_corpus, write_corpus
from taskrouter.evaluation import PhasePlan, baseline_sequential, run_protocol
from taskrouter.features import ExpansionParams, FeaturizerConfig, featurize_batch
from taskrouter.library import ExecutorRegistry, ExecutorSpec, Observation, execute
from taskrouter.scheduler import (
    expand_label_space,
    fit_base,
    init,
    load_state,
    one_hot,
    predict,
    save_state,
    update,
)

RECURSION_TOL = 1e-8
SYMMETRY_TOL = 1e-9


# -- randomized trial harness -------------------------------------------------


@dataclass
class Trial:
    d_e: int
    gamma: float
    batches: list[tuple[np.ndarray, np.ndarray]]
    w_recursive: np.ndarray = None
    w_batch: np.ndarray = None
    gram_form_dev: float = 0.0
    asymmetries: list[float] = field(default_factory=list)
    min_eigs: list[float] = field(default_factory=list)


def _make_trial(d_e: int, rep: int) -> Trial:
    rng = np.random.default_rng([2026, d_e, rep])
    n_batches = int(rng.integers(2, 11))
    d_k = int(rng.integers(2, 11))
    gamma = float(rng.choice([0.1, 1.0, 10.0]))
    batches = []
    for _ in range(n_batches):
        n = int(rng.integers(10, 201))
        feats = rng.standard_normal((n, d_e))
        labels = one_hot(rng.integers(0, d_k, n), d_k)
        batches.append((feats, labels))
    return Trial(d_e=d_e, gamma=gamma, batches=batches)


def _run_recursion(trial: Trial) -> None:
    d_k = trial.batches[0][1].shape[1]
    state = expand_label_space(init(trial.d_e, trial.gamma), d_k)
    track_spd = trial.d_e <= 64
    for feats, labels in trial.batches:
        w_old = state.W
        state = update(state, feats, labels)
        alt = gram_form_step(state.R, w_old, feats, labels)
        trial.gram_form_dev = max(trial.gram_form_dev, float(np.abs(alt - state.W).max()))
        if track_spd:
            trial.asymmetries.append(float(np.abs(state.R - state.R.T).max()))
            trial.min_eigs.append(float(np.linalg.eigvalsh(state.R).min()))
    trial.w_recursive = state.W
    trial.w_batch = ridge_weights(
        [f for f, _ in trial.batches], [y for _, y in trial.batches], trial.gamma
    )


@pytest.fixture(scope="module")
def trials():
    start = perf_counter()
    all_trials = [_make_trial(d_e, rep) for d_e in (16, 64, 256) for rep in range(7)]
    for trial in all_trials:
        _run_recursion(trial)
    elapsed = perf_counter() - start
    return all_trials, elapsed


def test_acceptance_oracle_equivalence(trials):
    """Recursive updates equal the dense joint ridge solve on every trial."""
    all_trials, elapsed = trials
    assert len(all_trials) >= 20
    worst = max(float(np.abs(t.w_recursive - t.w_batch).max()) for t in all_trials)
    assert worst <= RECURSION_TOL
    assert elapsed < 10.0
    print(f"[acceptance] oracle equivalence: PASS "
          f"(max |dW| {worst:.2e} over {len(all_trials)} trials, {elapsed:.1f}s)")


def test_acceptance_order_and_chunk_invariance(trials):
    """Permuting batch order and splitting batches leaves the final W unchanged."""
    all_trials, _ = trials
    worst_order = worst_chunk = 0.0
    for i, trial in enumerate(all_trials):
        rng = np.random.default_rng([404, i])
        d_k = trial.batches[0][1].shape[1]
        base = expand_label_space(init(trial.d_e, trial.gamma), d_k)

        permuted = base
        for j in rng.permutation(len(trial.batches)):
            permuted = update(permuted, *trial.batches[j])
        worst_order = max(
            worst_order, float(np.abs(permuted.W - trial.w_recursive).max())
        )

        split = base
        for feats, labels in trial.batches:
            cut = int(rng.integers(1, feats.shape[0]))
            split = update(split, feats[:cut], labels[:cut])
            split = update(split, feats[cut:], labels[cut:])
        worst_chunk = max(
            worst_chunk, float(np.abs(split.W - trial.w_recursive).max())
        )
    assert worst_order <= RECURSION_TOL
    assert worst_chunk <= RECURSION_TOL
    print(f"[acceptance] order/chunk invariance: PASS "
          f"(order {worst_order:.2e}, chunk {worst_chunk:.2e})")


def test_acceptance_gram_form_cross_check(trials):
    """The one-shot Gram-form weight recursion agrees with W = R Q throughout."""
    all_trials, _ = trials
    worst = max(t.gram_form_dev for t in all_trials)
    assert worst <= RECURSION_TOL
    print(f"[acceptance] gram-form cross-check: PASS (max dev {worst:.2e})")


def test_acceptance_spd_invariant(trials):
    """R stays symmetric and positive definite after every update (d_e <= 64)."""
    all_trials, _ = trials
    small = [t for t in all_trials if t.d_e <= 64]
    assert small and all(t.asymmetries for t in small)
    worst_asym = max(max(t.asymmetries) for t in small)
    worst_eig = min(min(t.min_eigs) for t in small)
    assert worst_asym <= SYMMETRY_TOL
    assert worst_eig > 0.0
    print(f"[acceptance] SPD invariant: PASS "
          f"(max asymmetry {worst_asym:.2e}, min eigenvalue {worst_eig:.2e})")


def test_acceptance_ridge_optimality():
    """No +-1e-3 perturbation of the fitted W lowers the ridge objective."""
    rng = np.random.default_rng(55)
    feats = rng.standard_normal((40, 8))
    labels = one_hot(rng.integers(0, 3, 40), 3)
    gamma = 0.7
    state = fit_base(feats, labels, gamma)
    base_obj = ridge_objective(state.W, feats, labels, gamma)
    for _ in range(100):
        direction = rng.standard_normal(state.W.shape)
        direction /= np.sqrt(np.sum(direction * direction))
        for sign in (1.0, -1.0):
            perturbed = ridge_objective(
                state.W + sign * 1e-3 * direction, feats, labels, gamma
            )
            assert perturbed >= base_obj
    print(f"[acceptance] ridge optimality: PASS (objective {base_obj:.6f} is a minimum)")


# -- protocol-level criteria ----------------------------------------------------


@pytest.fixture(scope="module")
def protocol():
    corpus = generate_synthetic_corpus(10, 102, seed=0)
    plan = PhasePlan(base_classes=(0, 1, 2, 3, 4),
                     incremental_classes=(5, 6, 7, 8, 9))
    config = FeaturizerConfig(seed=0, d_f=64, d_e=1024)
    start = perf_counter()
    router_report = run_protocol(corpus, plan, config, gamma=1.0)
    baseline_report = baseline_sequential(corpus, plan, config)
    elapsed = perf_counter() - start
    params = ExpansionParams.create(config.seed, config.d_f, config.d_e)
    features = featurize_batch([r.text for r in corpus], config, params)
    return {
        "corpus": corpus,
        "plan": plan,
        "config": config,
        "features": features,
        "router": router_report,
        "baseline": baseline_report,
        "elapsed": elapsed,
    }


def test_acceptance_protocol_qualitative(protocol):
    """High cumulative accuracy, bounded forgetting, and a baseline that forgets more."""
    router = protocol["router"]
    baseline = protocol["baseline"]
    final_acc = router.per_phase_accuracy[-1]
    worst_forgetting = max(router.per_phase_forgetting)
    assert final_acc >= 95.0
    assert worst_forgetting <= 5.0
    assert baseline.per_phase_forgetting[-1] > router.per_phase_forgetting[-1]
    assert protocol["elapsed"] < 60.0
    print(f"[acceptance] protocol qualitative: PASS "
          f"(final accuracy {final_acc:.2f}%, max forgetting {worst_forgetting:.2f}, "
          f"baseline final forgetting {baseline.per_phase_forgetting[-1]:.2f}, "
          f"{protocol['elapsed']:.1f}s)")


def test_acceptance_zero_replay_joint_equality(protocol):
    """Each training row enters once, and the final W equals the joint fit."""
    router = protocol["router"]
    reads = router.training_reads
    assert reads["min_reads"] == 1 and reads["max_reads"] == 1
    train_rows = [i for i, r in enumerate(protocol["corpus"]) if r.split == "train"]
    assert reads["rows"] == len(train_rows) == reads["total_reads"]

    features = protocol["features"][train_rows]
    labels = one_hot(
        [protocol["corpus"][i].task_id for i in train_rows], router.final_state.d_k
    )
    joint = fit_base(features, labels, gamma=1.0)
    dev = float(np.abs(router.final_state.W - joint.W).max())
    assert dev <= RECURSION_TOL

    # Same correct counts on the first task's test rows, as integers.
    task1_rows = [
        i for i, r in enumerate(protocol["corpus"])
        if r.split == "test" and r.task_id in protocol["plan"].base_classes
    ]
    truth = np.array([protocol["corpus"][i].task_id for i in task1_rows])
    seq_correct = int(np.sum(
        predict(router.final_state, protocol["features"][task1_rows]) == truth
    ))
    joint_correct = int(np.sum(
        predict(joint, protocol["features"][task1_rows]) == truth
    ))
    assert seq_correct == joint_correct
    print(f"[acceptance] zero replay / joint equality: PASS "
          f"(|dW| {dev:.2e}, task-1 correct {seq_correct}/{len(task1_rows)})")


def test_acceptance_persistence(protocol, tmp_path):
    """Byte-identical save/load/save; five CLI updates equal one joint CLI fit."""
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(protocol["corpus"], corpus_path)
    flags = ["--d-e", "256", "--d-f", "64", "--seed", "0", "--gamma", "1.0"]

    joint_path = tmp_path / "joint.json"
    assert main(["train-base", "--corpus", str(corpus_path),
                 "--classes", "0,1,2,3,4,5,6,7,8,9",
                 "--state-out", str(joint_path), *flags]) == 0

    state_path = tmp_path / "state0.json"
    assert main(["train-base", "--corpus", str(corpus_path),
                 "--classes", "0,1,2,3,4",
                 "--state-out", str(state_path), *flags]) == 0
    for step, new_class in enumerate((5, 6, 7, 8, 9), start=1):
        next_path = tmp_path / f"state{step}.json"
        assert main(["update", "--state", str(state_path),
                     "--corpus", str(corpus_path),
                     "--new-class", str(new_class),
                     "--state-out", str(next_path)]) == 0
        state_path = next_path

    sequential = load_state(state_path)
    joint = load_state(joint_path)
    dev = float(np.abs(sequential.W - joint.W).max())
    assert dev <= RECURSION_TOL

    resaved = tmp_path / "resaved.json"
    save_state(load_state(state_path), resaved)
    assert resaved.read_bytes() == state_path.read_bytes()
    print(f"[acceptance] persistence: PASS "
          f"(5 updates vs joint |dW| {dev:.2e}, save/load/save byte-identical)")


def test_acceptance_end_to_end_routing(protocol):
    """Held-out instructions of every class route to the matching executor."""
    registry = ExecutorRegistry(
        ExecutorSpec(task_id=i, name=f"exec-{i}", action_dim=5 + i % 4,
                     horizon=8 + i % 3, seed=7)
        for i in range(10)
    )
    state = protocol["router"].final_state
    per_class = {}
    for class_id in range(10):
        rows = [
            i for i, r in enumerate(protocol["corpus"])
            if r.split == "test" and r.task_id == class_id
        ]
        preds = predict(state, protocol["features"][rows])
        hits = 0
        for pred in preds:
            spec = registry.lookup(int(pred))
            if spec is not None and spec.task_id == class_id:
                hits += 1
                chunk = execute(
                    spec, Observation(proprioception=np.zeros(4))
                )
                assert chunk.actions.shape == (spec.horizon, spec.action_dim)
        per_class[class_id] = hits / len(rows)
    assert all(rate >= 0.95 for rate in per_class.values()), per_class
    print(f"[acceptance] end-to-end routing: PASS "
          f"(per-class held-out accuracy {min(per_class.values()):.2%} minimum)")
