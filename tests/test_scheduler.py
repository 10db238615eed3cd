"""Ridge core: closed-form fit, recursive updates, prediction, persistence."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import ridge_weights
from taskrouter.features import FeaturizerConfig
from taskrouter.scheduler import (
    HEADER_LIMIT,
    NumericalError,
    SchedulerState,
    StateFormatError,
    Weights,
    _mirror_lower,
    expand_label_space,
    fit_base,
    init,
    load_state,
    load_weights,
    one_hot,
    predict,
    predict_proba,
    save_state,
    update,
)


def _random_batch(rng, n, d_e, d_k):
    feats = rng.standard_normal((n, d_e))
    labels = one_hot(rng.integers(0, d_k, n), d_k)
    return feats, labels


def _logit_state(logit_rows: np.ndarray) -> SchedulerState:
    """A state whose first-basis-vector logits equal the given row."""
    w = np.asarray(logit_rows, dtype=np.float64)
    d_e = w.shape[0]
    return SchedulerState(
        L=np.eye(d_e), Z=w, W=w, gamma=1.0, tasks_seen=1
    )


# -- init -------------------------------------------------------------------


def test_init_identity_for_unit_gamma():
    state = init(2, 1.0)
    assert np.array_equal(state.L, np.eye(2))
    assert np.array_equal(state.R, np.eye(2))
    assert state.Z.shape == (2, 0) and state.Q.shape == (2, 0) and state.W.shape == (2, 0)
    assert state.d_k == 0 and state.tasks_seen == 0


def test_init_scales_inverse_of_gamma():
    state = init(2, 4.0)
    assert np.array_equal(state.L, np.diag([2.0, 2.0]))
    assert np.array_equal(state.R, np.diag([0.25, 0.25]))


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan")])
def test_init_rejects_nonpositive_gamma(gamma):
    with pytest.raises(ValueError):
        init(2, gamma)


@pytest.mark.parametrize("field, bad", [
    ("gamma", True), ("gamma", "1.0"), ("gamma", float("inf")), ("gamma", 10**400),
    ("tasks_seen", True), ("tasks_seen", 1.5), ("tasks_seen", -1),
])
def test_state_refuses_wrong_types(field, bad):
    with pytest.raises(ValueError, match=field):
        replace(init(2, 1.0), **{field: bad})


# -- fit_base ---------------------------------------------------------------


def test_fit_base_identity_example():
    state = fit_base(np.eye(2), np.eye(2), gamma=1.0)
    assert np.allclose(state.W, 0.5 * np.eye(2), atol=1e-15)
    assert state.d_k == 2 and state.tasks_seen == 1


def test_fit_base_huge_gamma_shrinks_weights_to_zero():
    rng = np.random.default_rng(0)
    feats, labels = _random_batch(rng, 30, 8, 3)
    state = fit_base(feats, labels, gamma=1e12)
    assert np.abs(state.W).max() <= 1e-6


def test_fit_base_matches_dense_oracle():
    rng = np.random.default_rng(42)
    feats, labels = _random_batch(rng, 50, 16, 3)
    state = fit_base(feats, labels, gamma=1.0)
    expected = ridge_weights([feats], [labels], 1.0)
    assert np.abs(state.W - expected).max() <= 1e-10


def test_fit_base_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fit_base(np.eye(2), np.eye(3), gamma=1.0)
    with pytest.raises(ValueError):
        fit_base(np.array([[np.nan, 0.0]]), np.array([[1.0]]), gamma=1.0)
    with pytest.raises(ValueError):
        fit_base(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]), gamma=1.0)
    with pytest.raises(ValueError):
        fit_base(np.eye(2), np.eye(2), gamma=0.0)


@pytest.mark.parametrize("call, match", [
    (lambda: SchedulerState(L=np.zeros((2, 3)), Z=np.zeros((2, 1)), W=np.zeros((2, 1)),
                            gamma=1.0), "L must be a square matrix"),
    (lambda: SchedulerState(L=np.eye(2), Z=np.zeros((3, 1)), W=np.zeros((3, 1)), gamma=1.0),
     r"Z and W must have shape \(d_e, d_k\)"),
    (lambda: SchedulerState(L=np.eye(2), Z=np.zeros((2, 1)), W=np.zeros((2, 2)), gamma=1.0),
     r"Z and W must have shape \(d_e, d_k\)"),
    (lambda: update(fit_base(np.eye(2), np.eye(2), 1.0), np.zeros(2), np.eye(2)),
     "features must be a 2-D matrix with at least one row"),
    (lambda: update(fit_base(np.eye(2), np.eye(2), 1.0), np.zeros((0, 2)), np.zeros((0, 2))),
     "features must be a 2-D matrix with at least one row"),
    (lambda: update(fit_base(np.eye(2), np.eye(2), 1.0), np.eye(2), np.array([1.0, 0.0])),
     "labels must be a 2-D one-hot matrix"),
    (lambda: update(fit_base(np.eye(2), np.eye(2), 1.0), np.eye(2), np.zeros((2, 0))),
     "labels must have at least one class column"),
    (lambda: one_hot([[0, 1]], 2), "class_ids must be 1-D"),
    # Ids that are not integers are refused, never cast to ones that look valid.
    (lambda: one_hot([0.7, 1.2], 3), "class ids must be integers"),
    (lambda: one_hot([1.0], 3), "class ids must be integers"),
    (lambda: one_hot([True, False], 3), "class ids must be integers"),
    (lambda: one_hot(["1", "0"], 3), "class ids must be integers"),
    (lambda: one_hot([2**64], 3), "class ids must be integers"),
    (lambda: one_hot([-1, 2**63], 3), "class ids must be integers"),
    (lambda: predict_proba(fit_base(np.eye(2), np.eye(2), 1.0), np.zeros(3)),
     "expected feature width 2, got 3"),
], ids=["L-not-square", "Z-and-W-rows", "W-not-Z-shape", "update-1d-features",
        "update-no-rows", "update-1d-labels", "update-no-label-columns", "one-hot-2d-ids",
        "one-hot-float-ids", "one-hot-integral-float-ids", "one-hot-bool-ids", "one-hot-str-ids",
        "one-hot-object-ids", "one-hot-mixed-sign-ids",
        "predict-proba-width"])
def test_misshapen_arrays_are_refused_by_name(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# -- update -----------------------------------------------------------------


def test_update_single_sample_closed_form():
    state = expand_label_space(init(2, 1.0), 1)
    updated = update(state, np.array([[1.0, 0.0]]), np.array([[1.0]]))
    assert np.allclose(updated.R, np.diag([0.5, 1.0]), atol=1e-15)
    assert np.allclose(updated.Q, np.array([[1.0], [0.0]]), atol=1e-15)
    assert np.allclose(updated.W, np.array([[0.5], [0.0]]), atol=1e-15)
    assert updated.tasks_seen == state.tasks_seen + 1


def test_update_zero_feature_row_changes_nothing():
    rng = np.random.default_rng(1)
    feats, labels = _random_batch(rng, 20, 4, 2)
    state = fit_base(feats, labels, gamma=1.0)
    updated = update(state, np.zeros((1, 4)), one_hot([1], 2))
    assert np.array_equal(updated.R, state.R)
    assert np.array_equal(updated.Q, state.Q)
    assert np.array_equal(updated.W, state.W)


def test_two_updates_equal_joint_fit():
    rng = np.random.default_rng(7)
    d_e, d_k = 64, 2
    f1, y1 = _random_batch(rng, 50, d_e, d_k)
    f2, y2 = _random_batch(rng, 50, d_e, d_k)
    state = expand_label_space(init(d_e, 1.0), d_k)
    state = update(update(state, f1, y1), f2, y2)
    joint = fit_base(np.vstack([f1, f2]), np.vstack([y1, y2]), gamma=1.0)
    assert np.abs(state.W - joint.W).max() <= 1e-8
    assert np.abs(state.W - ridge_weights([f1, f2], [y1, y2], 1.0)).max() <= 1e-8


def test_update_validates_widths():
    state = fit_base(np.eye(3), one_hot([0, 1, 1], 2), gamma=1.0)
    with pytest.raises(ValueError):
        update(state, np.eye(4), one_hot([0, 1, 1, 0], 2))
    with pytest.raises(ValueError, match="expand_label_space"):
        update(state, np.eye(3), one_hot([0, 1, 2], 3))
    with pytest.raises(ValueError, match="labels cover 1 classes, state expects 2"):
        update(state, np.eye(3), one_hot([0, 0, 0], 1))


def test_update_flags_pathological_inner_system():
    # A hand-built L with a zero on its diagonal is singular. A row that is
    # zero in that column leaves the zero in place, and update refuses it.
    broken = SchedulerState(
        L=np.diag([0.0, 1.0]), Z=np.zeros((2, 1)), W=np.zeros((2, 1)),
        gamma=1.0, tasks_seen=1,
    )
    with pytest.raises(NumericalError):
        update(broken, np.array([[0.0, 2.0]]), np.array([[1.0]]))
    with pytest.raises(NumericalError, match="singular"):
        broken.R


def test_update_refuses_weights_that_overflow_from_a_finite_factor():
    # The new factor keeps L[0, 0] = 1e-300, finite and nonzero, and the new
    # moments stay finite, so only the solved W shows the fault: W[0] is
    # Z[0] / 1e-300, which overflows.
    state = SchedulerState(L=np.diag([1e-300, 1.0]), Z=np.array([[1e10], [0.0]]),
                           W=np.zeros((2, 1)), gamma=1.0)
    with pytest.raises(NumericalError, match="pathological"):
        update(state, np.array([[0.0, 1.0]]), np.array([[1.0]]))


@pytest.mark.parametrize("row", [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
def test_update_refuses_a_hand_built_l_with_inf_below_its_diagonal(row):
    # The state takes a hand-built L as given. A row that is zero in column 0
    # leaves the new diagonal finite and a NaN below it, so update must check
    # the whole new factor, not its diagonal; a row that is not makes the
    # diagonal non-finite too.
    lower = np.eye(3)
    lower[2, 0] = np.inf
    state = SchedulerState(L=lower, Z=np.zeros((3, 1)), W=np.zeros((3, 1)), gamma=1.0)
    digest = state.sha256
    with pytest.raises(NumericalError, match="pathological"):
        update(state, np.array([row]), np.ones((1, 1)))
    assert np.array_equal(state.L, lower) and not state.Z.any() and not state.W.any()
    assert replace(state).sha256 == digest


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e155, 1e160])
@pytest.mark.parametrize("step", ["fit_base", "update"])
def test_overflowing_features_raise_numerical_error(step, scale):
    # Features at this scale overflow their Gram matrix, which is never
    # formed, so they fit with finite weights. Features whose column norms
    # overflow raise NumericalError. No numpy or scipy error or warning may
    # escape either way.
    feats, labels = _random_batch(np.random.default_rng(3), 20, 8, 3)

    def absorb(rows, row_labels):
        if step == "fit_base":
            return fit_base(rows, row_labels, gamma=1.0)
        return update(fit_base(feats, labels, gamma=1.0), rows, row_labels)

    assert np.isfinite(absorb(feats * scale, labels).W).all()
    with pytest.raises(NumericalError, match="overflows"):
        absorb(np.full((2, 8), 1.5e308), labels[:2])


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=39),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_update_chunking_is_exact(n_rows, cut, seed):
    rng = np.random.default_rng(seed)
    feats, labels = _random_batch(rng, n_rows, 12, 3)
    base = expand_label_space(init(12, 1.0), 3)
    whole = update(base, feats, labels)
    chunked = base
    for start in range(0, n_rows, cut):
        chunked = update(chunked, feats[start : start + cut], labels[start : start + cut])
    assert np.abs(whole.W - chunked.W).max() <= 1e-8
    assert np.abs(whole.R - chunked.R).max() <= 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_update_order_does_not_matter(seed):
    rng = np.random.default_rng(seed)
    f1, y1 = _random_batch(rng, 25, 10, 3)
    f2, y2 = _random_batch(rng, 35, 10, 3)
    base = expand_label_space(init(10, 0.5), 3)
    forward = update(update(base, f1, y1), f2, y2)
    backward = update(update(base, f2, y2), f1, y1)
    assert np.abs(forward.W - backward.W).max() <= 1e-8


def test_updates_preserve_spd_and_w_consistency():
    rng = np.random.default_rng(3)
    state = expand_label_space(init(16, 1.0), 3)
    for _ in range(6):
        feats, labels = _random_batch(rng, 30, 16, 3)
        state = update(state, feats, labels)
        assert np.abs(state.R - state.R.T).max() <= 1e-9
        assert np.linalg.eigvalsh(state.R).min() > 0.0
        assert np.abs(state.W - state.R @ state.Q).max() <= 1e-10


def test_r_is_exactly_symmetric_over_a_long_horizon():
    # R is derived by LAPACK into one triangle and mirrored onto the other,
    # so R == Rᵀ bit for bit after any number of updates, and nothing
    # downstream re-symmetrises or re-checks it.
    rng = np.random.default_rng(17)
    d_e, d_k, gamma = 16, 4, 0.5
    feats, labels = _random_batch(rng, 40, d_e, d_k)
    state = fit_base(feats, labels, gamma)
    assert np.array_equal(state.R, state.R.T)
    feature_batches, label_batches = [feats], [labels]

    def absorb(feats, labels):
        nonlocal state
        state = update(state, feats, labels)
        assert np.array_equal(state.R, state.R.T)
        feature_batches.append(feats)
        label_batches.append(labels)

    anchor = rng.standard_normal(d_e)
    for i in range(2000):
        if i % 4 == 0:
            row = rng.standard_normal((1, d_e))
        elif i % 4 == 1:
            row = feature_batches[-1].copy()  # duplicate of the previous row
        else:
            row = anchor + 1e-7 * rng.standard_normal((1, d_e))  # near-collinear
        absorb(row, one_hot(rng.integers(0, d_k, 1), d_k))
    for rows in (1, 3, 64):
        feats, labels = _random_batch(rng, 20, d_e, d_k)
        feats[7] = feats[6]
        for start in range(0, 20, rows):
            absorb(feats[start : start + rows], labels[start : start + rows])

    want = ridge_weights(feature_batches, label_batches, gamma)
    assert np.abs(state.W - want).max() <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 300])
def test_mirror_lower_copies_the_lower_triangle_onto_the_upper(n):
    r = np.random.default_rng(n).standard_normal((n, n))
    want = np.tril(r) + np.tril(r, -1).T
    _mirror_lower(r)
    assert np.array_equal(r, want)


@pytest.mark.parametrize("d_e", [2, 127, 129, 257])
def test_r_is_exactly_symmetric_after_every_step(tmp_path, d_e):
    # Sizes on both sides of the mirror's block edge, and batches from one row
    # to several QR blocks; the last three absorb 600 rows in three calls.
    rng = np.random.default_rng(d_e)
    d_k = 3
    state = fit_base(*_random_batch(rng, d_e + 5, d_e, d_k), gamma=0.9)
    assert np.array_equal(state.R, state.R.T)
    for rows in (1, 2, 3, 5, 129, 256, 256, 88):
        before = state.L.copy()
        updated = update(state, *_random_batch(rng, rows, d_e, d_k))
        # The QR factors a copy; the input state's L is untouched.
        assert np.array_equal(state.L, before)
        assert not state.L.flags.writeable
        assert np.array_equal(updated.R, updated.R.T)
        state = updated
    path = tmp_path / "state.bin"
    save_state(state, path)
    loaded = load_state(path)
    for name in ("L", "Z", "W", "R", "Q"):
        assert np.array_equal(getattr(loaded, name), getattr(state, name)), name
    assert np.array_equal(loaded.R, loaded.R.T)


def _exact_ridge_weights(batches, gamma: float) -> np.ndarray:
    """(Σ FᵀF + gamma I)⁻¹ Σ FᵀY in exact rational arithmetic, rounded once to float64."""
    d = batches[0][0].shape[1]
    k = batches[0][1].shape[1]
    # Each row of the augmented system [G | Q], in Fractions.
    system = [[Fraction(gamma) if j == i else Fraction(0) for j in range(d + k)]
              for i in range(d)]
    for feats, labels in batches:
        for row, label in zip(feats.tolist(), labels.tolist()):
            x = [Fraction(v) for v in row]
            y = [Fraction(v) for v in label]
            for i in range(d):
                system[i] = [s + x[i] * v for s, v in zip(system[i], x + y)]
    # G is positive definite, so elimination needs no pivoting.
    for col in range(d):
        pivot = system[col]
        for r in range(col + 1, d):
            m = system[r][col] / pivot[col]
            system[r] = [a - m * b for a, b in zip(system[r], pivot)]
    w = [[Fraction(0)] * k for _ in range(d)]
    for i in reversed(range(d)):
        for c in range(k):
            rest = sum(system[i][j] * w[j][c] for j in range(i + 1, d))
            w[i][c] = (system[i][d + c] - rest) / system[i][i]
    return np.array([[float(v) for v in row] for row in w])


def test_fit_then_update_matches_exact_arithmetic():
    # Ill-conditioned sweeps: with fewer rows than features, the Gram
    # matrix's condition number reaches scale² / gamma, up to about 1e15.
    rng = np.random.default_rng(2024)
    off = []
    for case in range(100):
        d = int(rng.integers(2, 12))
        gamma = float(10 ** rng.uniform(-6, 6))
        scale = float(10 ** rng.uniform(-4, 4))
        batches = []
        for _ in range(2):
            n = int(rng.integers(1, d + 1))
            batches.append((scale * rng.standard_normal((n, d)), one_hot(rng.integers(0, 3, n), 3)))
        w = update(fit_base(*batches[0], gamma), *batches[1]).W
        want = _exact_ridge_weights(batches, gamma)
        error = float(np.abs(w - want).max() / np.abs(want).max())
        if error > 1e-8:
            off.append((case, d, gamma, scale, error))
    assert not off, off


# -- expand_label_space ------------------------------------------------------


def test_expand_keeps_old_logits_bit_identical():
    rng = np.random.default_rng(5)
    feats, labels = _random_batch(rng, 30, 8, 2)
    state = fit_base(feats, labels, gamma=1.0)
    probe = rng.standard_normal(8)
    old_logits = probe @ state.W
    wider = expand_label_space(state, 3)
    new_logits = probe @ wider.W
    assert np.array_equal(new_logits[:2], old_logits)
    assert new_logits[2] == 0.0
    assert np.array_equal(wider.L, state.L)
    assert np.array_equal(wider.R, state.R)


def test_expand_then_update_new_class_leaves_old_q_columns():
    rng = np.random.default_rng(6)
    feats, labels = _random_batch(rng, 30, 8, 2)
    state = expand_label_space(fit_base(feats, labels, gamma=1.0), 3)
    new_feats = rng.standard_normal((10, 8))
    updated = update(state, new_feats, one_hot([2] * 10, 3))
    # Q is derived as L Z, so the old columns agree to rounding.
    assert np.abs(updated.Q[:, :2] - state.Q[:, :2]).max() <= 1e-12 * np.abs(state.Q).max()


def test_expand_rejects_non_growth():
    state = fit_base(np.eye(2), one_hot([0, 1], 2), gamma=1.0)
    with pytest.raises(ValueError):
        expand_label_space(state, 2)
    with pytest.raises(ValueError):
        expand_label_space(state, 1)


# -- predict ------------------------------------------------------------------


def test_softmax_symmetric_logits():
    state = _logit_state(np.array([[0.0, 0.0]]))
    probs = predict_proba(state, np.array([1.0]))
    assert np.allclose(probs, [0.5, 0.5], atol=1e-15)


def test_softmax_matches_direct_formula():
    state = _logit_state(np.array([[2.0, 0.0]]))
    probs = predict_proba(state, np.array([1.0]))
    expected = [math.exp(2) / (math.exp(2) + 1), 1 / (math.exp(2) + 1)]
    assert np.allclose(probs, expected, atol=1e-12)
    assert np.allclose(probs, [0.8808, 0.1192], atol=5e-5)


def test_softmax_survives_huge_logits():
    state = _logit_state(np.array([[1000.0, 0.0]]))
    probs = predict_proba(state, np.array([1.0]))
    assert np.isfinite(probs).all()
    assert np.allclose(probs, [1.0, 0.0], atol=1e-12)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(8)
    state = _logit_state(rng.standard_normal((6, 5)))
    probs = predict_proba(state, rng.standard_normal((40, 6)))
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
    assert ((probs > 0.0) & (probs < 1.0)).all()


def test_predict_argmax_and_tie_break():
    state = _logit_state(np.log(np.array([[0.2, 0.7, 0.1]])))
    assert predict(state, np.array([1.0])) == 1
    tie = _logit_state(np.array([[0.0, 0.0]]))
    assert predict(tie, np.array([1.0])) == 0


def test_predict_agrees_with_logit_argmax_on_random_inputs():
    rng = np.random.default_rng(9)
    weights = rng.standard_normal((12, 7))
    state = _logit_state(weights)
    xs = rng.standard_normal((1000, 12))
    assert np.array_equal(predict(state, xs), np.argmax(xs @ weights, axis=1))


def test_predict_requires_trained_classes():
    with pytest.raises(ValueError):
        predict_proba(init(4, 1.0), np.zeros(4))


# -- one_hot -------------------------------------------------------------------


def test_one_hot_rows_are_valid():
    mat = one_hot([0, 2, 1], 3)
    assert mat.shape == (3, 3)
    assert (mat.sum(axis=1) == 1.0).all()
    assert np.array_equal(np.argmax(mat, axis=1), [0, 2, 1])
    assert np.array_equal(one_hot(np.array([2, 0], dtype=np.uint8), 3), [[0, 0, 1], [1, 0, 0]])
    assert one_hot([], 3).shape == (0, 3)


def test_one_hot_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        one_hot([0, 3], 3)
    with pytest.raises(ValueError):
        one_hot([-1], 3)
    with pytest.raises(ValueError, match=r"in \[0, num_classes\)"):
        one_hot([2**63], 3)  # a uint64 array, past the int64 range


@pytest.mark.parametrize("bad", [True, 2.0, 1.5, "2"])
@pytest.mark.parametrize("name, call", [
    ("d_e", lambda size: init(size, 1.0)),
    ("new_d_k", lambda size: expand_label_space(init(2, 1.0), size)),
    ("num_classes", lambda size: one_hot([0], size)),
], ids=["init", "expand_label_space", "one_hot"])
def test_sizes_must_be_integers(name, call, bad):
    with pytest.raises(ValueError, match=name):
        call(bad)


# -- persistence ----------------------------------------------------------------


def _trained_state(with_featurizer=True):
    rng = np.random.default_rng(11)
    feats, labels = _random_batch(rng, 40, 12, 3)
    featurizer = FeaturizerConfig(seed=4, d_f=6, d_e=12) if with_featurizer else None
    return fit_base(feats, labels, gamma=0.7, featurizer=featurizer)


def test_save_load_round_trip_is_bit_exact(tmp_path):
    state = _trained_state()
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded = load_state(path)
    for name in ("L", "Z", "W", "R", "Q"):
        assert np.array_equal(getattr(loaded, name), getattr(state, name)), name
    assert loaded.gamma == state.gamma
    assert loaded.d_e == state.d_e and loaded.d_k == state.d_k
    assert loaded.tasks_seen == state.tasks_seen
    assert loaded.featurizer == state.featurizer


def test_save_load_save_is_byte_identical(tmp_path):
    state = _trained_state()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_state(state, first)
    save_state(load_state(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_load_untrained_state_document(tmp_path):
    path = tmp_path / "fresh.json"
    save_state(init(3, 2.0), path)
    loaded = load_state(path)
    assert loaded.d_k == 0 and loaded.tasks_seen == 0
    assert np.array_equal(loaded.L, np.eye(3) * np.sqrt(2.0))
    # R is 1 / sqrt(2)² on the diagonal, rounded.
    assert np.allclose(loaded.R, np.eye(3) / 2.0, rtol=1e-15, atol=0.0)


def _split_state(path):
    """A state file's header (parsed) and payload bytes."""
    line, _, payload = path.read_bytes().partition(b"\n")
    return json.loads(line), payload


def _sha256(header, payload):
    """The version-6 digest: the header's other fields as compact JSON, then the payload."""
    fields = {k: v for k, v in header.items() if k != "sha256"}
    return hashlib.sha256(json.dumps(fields, separators=(",", ":")).encode() + payload).hexdigest()


def _write_state(path, header, payload, *, rehash=True):
    if rehash:
        header = dict(header, sha256=_sha256(header, payload))
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


@pytest.mark.parametrize(
    "index, value",
    [(1, np.nan), (0, np.inf), (12 * 13 // 2 + 4, np.nan), (12 * 13 // 2 + 12 * 3 + 4, np.nan)],
    ids=["nan-in-L", "inf-on-L-diagonal", "nan-in-Z", "nan-in-W"],
)
def test_load_rejects_non_finite_payload(tmp_path, index, value):
    # Payload index 1 is L[1, 0], 0 is L[0, 0], 78 is where Z starts and 114
    # where W starts at d_e=12, d_K=3; the file reader's finiteness checks
    # refuse all four.
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    floats = np.frombuffer(payload, dtype="<f8").copy()
    floats[index] = value
    _write_state(path, header, floats.tobytes())
    with pytest.raises(StateFormatError, match="non-finite"):
        load_state(path)


@pytest.mark.parametrize("name, index", [("L", (1, 0)), ("Z", (0, 0)), ("W", (2, 0))])
def test_a_hand_built_non_finite_state_saves_but_never_loads(tmp_path, name, index):
    # The state takes its arrays as given, so save_state writes this one; the
    # file reader checks what it reads, so both loads refuse the file alike.
    arrays = {"L": np.eye(3), "Z": np.zeros((3, 1)), "W": np.zeros((3, 1))}
    arrays[name][index] = np.nan
    path = tmp_path / "state.json"
    save_state(SchedulerState(**arrays, gamma=1.0), path)
    messages = []
    for load in (load_state, load_weights):
        with pytest.raises(StateFormatError) as refused:
            load(path)
        messages.append(str(refused.value))
    assert messages == [f"{name} contains non-finite values"] * 2


def test_load_reads_any_stored_lower_triangle(tmp_path):
    # Any finite triangle with a nonzero diagonal loads as L, whose upper half
    # is zero; the R derived from it is its own mirror image. At d_e=300 the
    # triangle is read in three blocks of rows, the last one short.
    d_k = 2
    for d_e in (130, 300):
        path = tmp_path / f"state{d_e}.json"
        save_state(expand_label_space(init(d_e, 0.7), d_k), path)
        header, _ = _split_state(path)
        rng = np.random.default_rng(12)
        triangle = rng.standard_normal(d_e * (d_e + 1) // 2)
        z = rng.standard_normal((d_e, d_k))
        w = rng.standard_normal((d_e, d_k))
        _write_state(path, header, b"".join(a.astype("<f8").tobytes() for a in (triangle, z, w)))
        loaded = load_state(path)
        assert np.array_equal(loaded.L[np.tril_indices(d_e)], triangle)
        assert not np.triu(loaded.L, 1).any()
        assert np.array_equal(loaded.Z, z)
        assert np.array_equal(loaded.W, w) and np.array_equal(load_weights(path).W, w)
        assert np.array_equal(loaded.R, loaded.R.T)


def test_load_rejects_a_singular_l(tmp_path):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    floats = np.frombuffer(payload, dtype="<f8").copy()
    floats[2] = 0.0  # L[1, 1]
    _write_state(path, header, floats.tobytes())
    with pytest.raises(StateFormatError, match="singular"):
        load_state(path)


@pytest.mark.parametrize("load", [load_state, load_weights])
def test_load_refuses_a_header_line_that_is_a_json_array(tmp_path, load):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    path.write_bytes(json.dumps(list(header.values())).encode("utf-8") + b"\n" + payload)
    with pytest.raises(StateFormatError, match="state header must be a JSON object, got list"):
        load(path)


def test_load_rejects_version_mismatch(tmp_path):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    header["version"] = 99
    _write_state(path, header, payload)
    with pytest.raises(StateFormatError, match="version"):
        load_state(path)


def test_load_rejects_truncated_document(tmp_path):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    path.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(StateFormatError):
        load_state(path)


def test_load_rejects_missing_keys(tmp_path):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    for key in header:
        _write_state(path, {k: v for k, v in header.items() if k != key}, payload,
                     rehash=False)
        with pytest.raises(StateFormatError, match="missing field"):
            load_state(path)


def test_state_file_is_header_line_then_l_triangle_and_z(tmp_path):
    # Version 6: the raw payload is L's lower triangle, then Z, then W, and
    # the header's sha256 covers its other fields and the payload.
    state = _trained_state()
    path = tmp_path / "state.json"
    save_state(state, path)
    header, payload = _split_state(path)
    fields = {
        "version": 6, "d_e": 12, "d_K": 3, "gamma": 0.7, "tasks_seen": 1,
        "featurizer": {"seed": 4, "d_f": 6, "d_e": 12},
    }
    assert header == dict(fields, sha256=_sha256(fields, payload))
    assert state.sha256 == header["sha256"]
    triangle = state.L[np.tril_indices(12)]  # row by row, up to the diagonal
    assert payload == b"".join(a.astype("<f8").tobytes() for a in (triangle, state.Z, state.W))
    assert len(payload) == 8 * (12 * 13 // 2 + 2 * 12 * 3)


def test_load_rejects_payload_sha256_mismatch(tmp_path):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    flipped = bytearray(payload)
    flipped[-1] ^= 1  # lowest mantissa bit of W's last entry
    _write_state(path, header, bytes(flipped), rehash=False)
    with pytest.raises(StateFormatError, match="sha256"):
        load_state(path)


@pytest.mark.parametrize("cut", [
    pytest.param(lambda payload: payload[:-8], id="short-by-one-float"),
    pytest.param(lambda payload: payload + b"\0", id="one-extra-byte"),
])
def test_load_rejects_wrong_payload_length(tmp_path, cut):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    _write_state(path, header, cut(payload))
    with pytest.raises(StateFormatError, match="payload is .* bytes, expected"):
        load_state(path)


def test_load_refuses_a_payload_that_ends_before_the_size_fstat_reported(tmp_path, monkeypatch):
    # A file that shrinks between the size check and the reads: fstat reports
    # the full payload, and the last read comes up 8 bytes short.
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    _write_state(path, header, payload[:-8])
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=real_fstat(fd).st_size + 8))
    for load in (load_state, load_weights):
        with pytest.raises(StateFormatError, match="^state payload is truncated$"):
            load(path)


def test_load_rejects_header_longer_than_the_bound(tmp_path):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    header["padding"] = "x" * HEADER_LIMIT
    _write_state(path, header, payload)
    with pytest.raises(StateFormatError, match=f"at most {HEADER_LIMIT} bytes"):
        load_state(path)


@pytest.mark.parametrize("d_e, error", [
    (12, "unsupported state version 1"),
    (96, f"not a line of at most {HEADER_LIMIT} bytes"),
], ids=["12", "96"])
def test_load_rejects_version_1_json_file(tmp_path, d_e, error):
    # At d_e=96 the old one-line document is longer than the header bound.
    rng = np.random.default_rng(5)
    feats, labels = _random_batch(rng, 40, d_e, 3)
    state = fit_base(feats, labels, gamma=0.7)
    document = {
        "version": 1, "d_e": state.d_e, "d_K": state.d_k, "gamma": state.gamma,
        "tasks_seen": state.tasks_seen, "featurizer": None, "expansion_seed": None,
        "R": state.R.tolist(), "Q": state.Q.tolist(),
    }
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(document, separators=(",", ":")) + "\n")
    assert (path.stat().st_size > HEADER_LIMIT) == (d_e == 96)
    with pytest.raises(StateFormatError, match=error):
        load_state(path)


def test_load_rejects_version_2_file(tmp_path):
    # Version 2 stored all of R, so its payload is longer than version 5's.
    state = _trained_state()
    path = tmp_path / "v2.state"
    header = {
        "version": 2, "d_e": state.d_e, "d_K": state.d_k, "gamma": state.gamma,
        "tasks_seen": state.tasks_seen, "featurizer": None, "expansion_seed": 4,
    }
    _write_state(path, header, state.R.astype("<f8").tobytes() + state.Q.astype("<f8").tobytes())
    with pytest.raises(StateFormatError, match="unsupported state version 2"):
        load_state(path)


def test_load_rejects_version_3_file(tmp_path):
    # Version 3 stored R's lower triangle and Q, as many bytes as version 4.
    state = _trained_state()
    path = tmp_path / "v3.state"
    save_state(state, path)
    header, _ = _split_state(path)
    header["version"] = 3
    triangle = state.R[np.tril_indices(state.d_e)]
    _write_state(path, header, triangle.astype("<f8").tobytes() + state.Q.astype("<f8").tobytes())
    with pytest.raises(StateFormatError, match="unsupported state version 3"):
        load_state(path)


def test_load_rejects_version_4_file(tmp_path):
    # Version 4 stored L's lower triangle and Z, and solved W from them on load.
    state = _trained_state()
    path = tmp_path / "v4.state"
    save_state(state, path)
    header, _ = _split_state(path)
    header["version"] = 4
    triangle = state.L[np.tril_indices(state.d_e)]
    _write_state(path, header, triangle.astype("<f8").tobytes() + state.Z.astype("<f8").tobytes())
    with pytest.raises(StateFormatError, match="unsupported state version 4"):
        load_state(path)


def test_loaded_arrays_are_contiguous_aligned_and_read_only(tmp_path):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    loaded = load_state(path)
    for arr in (loaded.L, loaded.Z, loaded.W, load_weights(path).W):
        assert arr.flags.c_contiguous and arr.flags.aligned
        assert not arr.flags.writeable


@pytest.mark.parametrize("with_featurizer", [True, False])
def test_load_weights_returns_what_load_state_does_but_no_l(tmp_path, with_featurizer):
    path = tmp_path / "state.json"
    save_state(_trained_state(with_featurizer), path)
    state, weights = load_state(path), load_weights(path)
    assert isinstance(weights, Weights)
    assert not hasattr(weights, "L") and not hasattr(weights, "Z")
    assert np.array_equal(weights.W, state.W)
    assert (weights.d_e, weights.d_k) == (state.d_e, state.d_k) == (12, 3)
    assert (weights.sha256, weights.gamma, weights.tasks_seen, weights.featurizer) == (
        state.sha256, state.gamma, state.tasks_seen, state.featurizer)
    x = np.random.default_rng(2).standard_normal((5, 12))
    assert np.array_equal(predict_proba(weights, x), predict_proba(state, x))


def test_load_weights_never_holds_l(tmp_path):
    # At d_e=1024, d_K=12 the factor is 8 MiB and W 96 KiB. load_state must
    # allocate L (the control); load_weights streams it through a buffer of
    # at most 256 KiB.
    path = tmp_path / "big.state"
    save_state(expand_label_space(init(1024, 1.0), 12), path)
    peaks = {}
    for load in (load_state, load_weights):
        tracemalloc.start()
        try:
            load(path)
            peaks[load.__name__] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["load_weights"] < 1 << 20
    assert peaks["load_state"] >= 8 << 20


@pytest.mark.parametrize("make, bound_mib", [
    (lambda state, path: expand_label_space(state, 13), 0.5),
    (lambda state, path: load_state(path), 8.75),
    (lambda state, path: init(1024, 1.0), 8.5),
], ids=["expand_label_space", "load_state", "init"])
def test_a_state_maker_never_rescans_l(tmp_path, make, bound_mib):
    # At d_e=1024, d_K=12 L is 8 MiB, and a finiteness scan of it allocates
    # 1 MiB more. expand_label_space keeps L as it is, load_state checked it
    # as it read it, and init made it finite; none of them scans it.
    state = expand_label_space(init(1024, 1.0), 12)
    path = tmp_path / "big.state"
    save_state(state, path)
    tracemalloc.start()
    try:
        make(state, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * (1 << 20)


def test_a_state_copies_the_writable_arrays_it_is_given(tmp_path):
    # The caller keeps writing its own arrays after the state's digest is
    # cached; the state, its digest and its saved file must not change.
    lower, z, w = np.eye(2), np.zeros((2, 1)), np.ones((2, 1))
    state = SchedulerState(L=lower, Z=z, W=w, gamma=1.0)
    digest = state.sha256
    for arr in (lower, z, w):
        arr[1, 0] = 5.0
    assert np.array_equal(state.L, np.eye(2)) and np.array_equal(state.W, np.ones((2, 1)))
    assert not any(arr.flags.writeable for arr in (state.L, state.Z, state.W))
    assert replace(state).sha256 == digest
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded = load_state(path)
    assert loaded.sha256 == digest and np.array_equal(loaded.W, np.ones((2, 1)))
    # Arrays already read-only are kept as they are, not copied.
    assert replace(state).W is state.W


@pytest.mark.parametrize("key", ["d_e", "d_K", "gamma", "tasks_seen"])
def test_load_rejects_bool_for_integer_header_field(tmp_path, key):
    # Every one of these fields is 1, so true would pass as an equal value.
    state = expand_label_space(init(1, 1.0), 1)
    state = update(state, np.ones((1, 1)), np.ones((1, 1)))
    path = tmp_path / "state.json"
    save_state(state, path)
    header, payload = _split_state(path)
    assert header[key] == 1
    header[key] = True
    _write_state(path, header, payload)
    with pytest.raises(StateFormatError, match=key):
        load_state(path)


def test_load_rejects_version_5_file(tmp_path):
    # Version 5 had this payload, an expansion_seed beside the featurizer,
    # and a digest of the payload alone.
    path = tmp_path / "v5.state"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    del header["sha256"]
    header.update(version=5, expansion_seed=4, payload_sha256=hashlib.sha256(payload).hexdigest())
    _write_state(path, header, payload, rehash=False)
    with pytest.raises(StateFormatError, match="unsupported state version 5"):
        load_state(path)


@pytest.mark.parametrize("field, value", [
    ("gamma", 0.75), ("tasks_seen", 2), ("featurizer.seed", 5), ("featurizer.d_f", 5),
    ("featurizer.d_e", 13),
])
def test_load_refuses_an_edited_header_field(tmp_path, field, value):
    # The digest covers the header, so a field edited without it is refused,
    # even where the edited value would pass every other check. The state is
    # built before it is hashed, so a featurizer d_e that disagrees with L is
    # refused by that check first.
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    key, _, subkey = field.partition(".")
    if subkey:
        header[key][subkey] = value
    else:
        header[key] = value
    _write_state(path, header, payload, rehash=False)
    error = "featurizer d_e disagrees" if field == "featurizer.d_e" else "do not match its sha256"
    with pytest.raises(StateFormatError, match=error):
        load_state(path)


def _float_edit(index, value):
    def edit(header, payload):
        floats = np.frombuffer(payload, dtype="<f8").copy()
        floats[index] = value
        return header, floats.tobytes()
    return edit


@pytest.mark.parametrize("edit, error", [
    (_float_edit(1, np.nan), "L contains non-finite"),
    (_float_edit(77, np.inf), "L contains non-finite"),  # L[11, 11], the last row
    (_float_edit(12 * 13 // 2 + 4, np.nan), "Z contains non-finite"),
    (_float_edit(12 * 13 // 2 + 12 * 3 + 4, -np.inf), "W contains non-finite"),
    (_float_edit(2, 0.0), "singular"),
    (_float_edit(65, 0.0), "singular"),  # L[10, 10]
    (lambda header, payload: (header, payload[:-8]), "payload is .* bytes"),
    (lambda header, payload: (dict(header, gamma=-1.0), payload), "gamma"),
    (lambda header, payload: (dict(header, tasks_seen=1.5), payload), "tasks_seen"),
    (lambda header, payload: (dict(header, featurizer=[4, 6, 12]), payload), "JSON object"),
], ids=["nan-in-L", "inf-on-last-L-diagonal", "nan-in-Z", "inf-in-W", "zero-on-L-diagonal",
        "zero-late-on-L-diagonal", "short", "gamma", "tasks_seen", "featurizer"])
def test_load_weights_refuses_what_load_state_refuses_alike(tmp_path, edit, error):
    # Each file is re-signed, so it is refused for its one defect, and both
    # loads refuse it with the same message.
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    _write_state(path, *edit(*_split_state(path)))
    messages = []
    for load in (load_state, load_weights):
        with pytest.raises(StateFormatError, match=error) as refused:
            load(path)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


@pytest.fixture(scope="module")
def unit_gamma_file(tmp_path_factory):
    """A saved d_e=8 state with gamma 1.0 and featurizer (seed 1, d_f 3, d_e 8)."""
    rng = np.random.default_rng(8)
    feats, labels = _random_batch(rng, 20, 8, 2)
    path = tmp_path_factory.mktemp("state") / "unit.state"
    save_state(fit_base(feats, labels, gamma=1.0,
                        featurizer=FeaturizerConfig(seed=1, d_f=3, d_e=8)), path)
    return path


# Two headers that hold the state's own values, spelled otherwise than
# save_state writes them.
_INTEGER_GAMMA = ("gamma", 1)
_REORDERED_FEATURIZER = ("featurizer", {"d_e": 8, "d_f": 3, "seed": 1})


@pytest.mark.parametrize("field, value", [_INTEGER_GAMMA, _REORDERED_FEATURIZER],
                         ids=["integer-gamma", "featurizer-keys-reordered"])
def test_load_refuses_a_header_signed_over_another_spelling(unit_gamma_file, tmp_path,
                                                           field, value):
    # The digest is the state's own, of the header as it would be written
    # back, so signing the file's own spelling of the same values is not
    # enough: stats would report another digest than the header's.
    header, payload = _split_state(unit_gamma_file)
    header[field] = value
    path = tmp_path / "state.json"
    _write_state(path, header, payload)
    with pytest.raises(StateFormatError, match="do not match its sha256"):
        load_state(path)


# Values a header field could hold, the plausible ones first, so that some
# edits load and the re-save is exercised as well as the refusals.
_JSON_VALUES = st.one_of(
    st.integers(0, 3), st.floats(0.25, 4.0),
    st.fixed_dictionaries({"seed": st.integers(-1, 3), "d_f": st.integers(0, 9),
                           "d_e": st.sampled_from([8, 8, 9])}),
    st.none(), st.booleans(), st.integers(-2, 2**65), st.floats(), st.text(max_size=4),
    st.lists(st.integers(0, 9), max_size=3),
)
_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 20), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("field"), st.sampled_from(
        ["version", "d_e", "d_K", "gamma", "tasks_seen", "featurizer"]), _JSON_VALUES),
)


def _edited(data: bytes, edit) -> bytes:
    """``data`` with one bit flipped, cut short, grown, or one header field replaced and re-signed."""
    kind, where, *rest = edit
    if kind == "field":
        line, _, payload = data.partition(b"\n")
        header = dict(json.loads(line), **{where: rest[0]})
        header = dict(header, sha256=_sha256(header, payload))
        return json.dumps(header).encode("utf-8") + b"\n" + payload
    at = where % (len(data) + 1)
    if kind == "truncate":
        return data[:at]
    if kind == "insert":
        return data[:at] + rest[0] + data[at:]
    flipped = bytearray(data)
    flipped[at % len(data)] ^= 1 << rest[0]
    return bytes(flipped)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_EDITS)
@example(("field", *_INTEGER_GAMMA))
@example(("field", *_REORDERED_FEATURIZER))
def test_load_refuses_or_returns_the_state_its_header_names(unit_gamma_file, edit):
    # Whatever is done to a state file, loading it gives a StateFormatError
    # or a state that is what its header signs; no other exception escapes.
    # load_weights refuses the same files with the same message, and loads
    # the others with the state's own W and fields.
    edited = _edited(unit_gamma_file.read_bytes(), edit)
    path = unit_gamma_file.with_name("edited.state")
    path.write_bytes(edited)
    try:
        state = load_state(path)
    except StateFormatError as exc:
        with pytest.raises(StateFormatError) as refused:
            load_weights(path)
        assert str(refused.value) == str(exc)
        return
    weights = load_weights(path)
    assert (weights.sha256, weights.gamma, weights.tasks_seen, weights.featurizer) == (
        state.sha256, state.gamma, state.tasks_seen, state.featurizer)
    assert weights.W.tobytes() == state.W.tobytes()
    assert state.sha256 == json.loads(edited.partition(b"\n")[0])["sha256"]
    assert replace(state).sha256 == state.sha256  # the kept digest is the state's own
    resaved = unit_gamma_file.with_name("resaved.state")
    save_state(state, resaved)
    again = load_state(resaved)
    for name in ("L", "Z", "W"):
        assert np.array_equal(getattr(again, name), getattr(state, name)), name


def test_load_rejects_string_bool_in_featurizer(tmp_path):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    header["featurizer"]["seed"] = "false"
    _write_state(path, header, payload)
    with pytest.raises(StateFormatError, match="seed"):
        load_state(path)


def test_load_rejects_a_featurizer_that_is_not_an_object(tmp_path):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    header["featurizer"] = list(header["featurizer"].values())
    _write_state(path, header, payload)
    with pytest.raises(StateFormatError, match="JSON object"):
        load_state(path)


def test_states_without_featurizer_round_trip(tmp_path):
    state = _trained_state(with_featurizer=False)
    path = tmp_path / "bare.json"
    save_state(state, path)
    loaded = load_state(path)
    assert loaded.featurizer is None
    assert np.array_equal(loaded.W, state.W)


def test_importing_the_scheduler_loads_no_other_layer():
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, taskrouter.scheduler; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    loaded = set(json.loads(probe.stdout))
    others = {f"taskrouter.{m}" for m in ("service", "evaluation", "corpus", "library", "cli")}
    assert "taskrouter.scheduler" in loaded
    assert not loaded & others
