"""Ridge core: closed-form fit, recursive updates, prediction, persistence."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import ridge_weights
from taskrouter.features import FeaturizerConfig
from taskrouter.scheduler import (
    HEADER_LIMIT,
    NumericalError,
    SchedulerState,
    StateFormatError,
    expand_label_space,
    fit_base,
    init,
    load_state,
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
        R=np.eye(d_e), Q=w, W=w, gamma=1.0, tasks_seen=1
    )


# -- init -------------------------------------------------------------------


def test_init_identity_for_unit_gamma():
    state = init(2, 1.0)
    assert np.array_equal(state.R, np.eye(2))
    assert state.Q.shape == (2, 0) and state.W.shape == (2, 0)
    assert state.d_k == 0 and state.tasks_seen == 0


def test_init_scales_inverse_of_gamma():
    state = init(2, 4.0)
    assert np.array_equal(state.R, np.diag([0.25, 0.25]))


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan")])
def test_init_rejects_nonpositive_gamma(gamma):
    with pytest.raises(ValueError):
        init(2, gamma)


@pytest.mark.parametrize("field, bad", [
    ("gamma", True), ("gamma", "1.0"), ("gamma", float("inf")), ("gamma", 10**400),
    ("tasks_seen", True), ("tasks_seen", 1.5), ("tasks_seen", -1),
    ("expansion_seed", True), ("expansion_seed", 1.0), ("expansion_seed", -1),
    ("expansion_seed", 2**64),
])
def test_state_refuses_wrong_types(field, bad):
    with pytest.raises(ValueError, match=field):
        replace(init(2, 1.0, expansion_seed=0), **{field: bad})


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


def test_update_accepts_narrower_labels():
    state = fit_base(np.eye(3), one_hot([0, 1, 2], 3), gamma=1.0)
    updated = update(state, np.eye(3), one_hot([0, 0, 0], 1))
    assert updated.d_k == 3
    assert np.array_equal(updated.Q[:, 1:], state.Q[:, 1:])


def test_update_flags_pathological_inner_system():
    # A hand-built negative-definite R makes the inner system indefinite.
    broken = SchedulerState(
        R=-np.eye(2), Q=np.zeros((2, 1)), W=np.zeros((2, 1)),
        gamma=1.0, tasks_seen=1,
    )
    with pytest.raises(NumericalError):
        update(broken, np.array([[2.0, 0.0]]), np.array([[1.0]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e155, 1e160])
@pytest.mark.parametrize("step", ["fit_base", "update"])
def test_overflowing_features_raise_numerical_error(step, scale):
    # The features are finite, but the Gram matrix (fit_base) or the inner
    # system (update) they form is not; no numpy or scipy error may escape.
    feats, labels = _random_batch(np.random.default_rng(3), 20, 8, 3)
    with pytest.raises(NumericalError, match="overflows"):
        if step == "fit_base":
            fit_base(feats * scale, labels, gamma=1.0)
        else:
            update(fit_base(feats, labels, gamma=1.0), feats * scale, labels)


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
    chunked = update(base, feats, labels, chunk_rows=max(1, min(cut, n_rows)))
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
    # fit_base and update change R only by products Cᵀ C, which numpy hands
    # to BLAS syrk; syrk fills both triangles from one, so R == Rᵀ bit for bit
    # and nothing downstream re-symmetrises or re-checks it.
    rng = np.random.default_rng(17)
    d_e, d_k, gamma = 16, 4, 0.5
    feats, labels = _random_batch(rng, 40, d_e, d_k)
    state = fit_base(feats, labels, gamma)
    assert np.array_equal(state.R, state.R.T)
    feature_batches, label_batches = [feats], [labels]

    def absorb(feats, labels, **kwargs):
        nonlocal state
        state = update(state, feats, labels, **kwargs)
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
    for chunk_rows in (1, 3, 64):
        feats, labels = _random_batch(rng, 20, d_e, d_k)
        feats[7] = feats[6]
        absorb(feats, labels, chunk_rows=chunk_rows)

    want = ridge_weights(feature_batches, label_batches, gamma)
    assert np.abs(state.W - want).max() <= 1e-8


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
    assert np.array_equal(wider.R, state.R)


def test_expand_then_update_new_class_leaves_old_q_columns():
    rng = np.random.default_rng(6)
    feats, labels = _random_batch(rng, 30, 8, 2)
    state = expand_label_space(fit_base(feats, labels, gamma=1.0), 3)
    new_feats = rng.standard_normal((10, 8))
    updated = update(state, new_feats, one_hot([2] * 10, 3))
    assert np.array_equal(updated.Q[:, :2], state.Q[:, :2])


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


def test_one_hot_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        one_hot([0, 3], 3)
    with pytest.raises(ValueError):
        one_hot([-1], 3)


# -- persistence ----------------------------------------------------------------


def _trained_state(with_featurizer=True):
    rng = np.random.default_rng(11)
    feats, labels = _random_batch(rng, 40, 12, 3)
    featurizer = FeaturizerConfig(seed=4, d_f=6, d_e=12) if with_featurizer else None
    return fit_base(feats, labels, gamma=0.7, featurizer=featurizer, expansion_seed=4)


def test_save_load_round_trip_is_bit_exact(tmp_path):
    state = _trained_state()
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded = load_state(path)
    assert np.array_equal(loaded.R, state.R)
    assert np.array_equal(loaded.Q, state.Q)
    assert np.array_equal(loaded.W, state.W)
    assert loaded.gamma == state.gamma
    assert loaded.d_e == state.d_e and loaded.d_k == state.d_k
    assert loaded.tasks_seen == state.tasks_seen
    assert loaded.featurizer == state.featurizer
    assert loaded.expansion_seed == state.expansion_seed


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
    assert np.array_equal(loaded.R, np.eye(3) / 2.0)


def _split_state(path):
    """A state file's header (parsed) and payload bytes."""
    line, _, payload = path.read_bytes().partition(b"\n")
    return json.loads(line), payload


def _write_state(path, header, payload, *, rehash=True):
    if rehash:
        header = dict(header, payload_sha256=hashlib.sha256(payload).hexdigest())
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


def test_load_rejects_asymmetric_r(tmp_path):
    state = _trained_state()
    path = tmp_path / "state.json"
    save_state(state, path)
    header, payload = _split_state(path)
    floats = np.frombuffer(payload, dtype="<f8").copy()
    floats[1] += 1e-3  # R[0, 1]
    _write_state(path, header, floats.tobytes())
    with pytest.raises(StateFormatError, match="symmetry"):
        load_state(path)


@pytest.mark.parametrize(
    "index, value",
    [(1, np.nan), (0, np.inf), (12 * 12 + 4, np.nan)],
    ids=["nan-in-R", "inf-on-R-diagonal", "nan-in-Q"],
)
def test_load_rejects_non_finite_payload(tmp_path, index, value):
    # The symmetry check passes all three (NaN compares false, inf - inf is
    # NaN), so the state's own finiteness scan is what refuses them.
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    floats = np.frombuffer(payload, dtype="<f8").copy()
    floats[index] = value
    _write_state(path, header, floats.tobytes())
    with pytest.raises(StateFormatError, match="non-finite"):
        load_state(path)


@pytest.mark.parametrize("i, j", [(0, 129), (129, 0), (70, 5), (128, 129)])
def test_load_finds_asymmetry_anywhere_in_r(tmp_path, i, j):
    # d_e=130 spans three tiles of the symmetry check, the last one partial.
    rng = np.random.default_rng(12)
    feats, labels = _random_batch(rng, 40, 130, 2)
    path = tmp_path / "state.json"
    save_state(fit_base(feats, labels, gamma=0.7), path)
    header, payload = _split_state(path)
    floats = np.frombuffer(payload, dtype="<f8").copy()
    floats[i * 130 + j] += 1e-6
    _write_state(path, header, floats.tobytes())
    with pytest.raises(StateFormatError, match="symmetry"):
        load_state(path)


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


def test_state_file_is_header_line_then_raw_r_and_q(tmp_path):
    state = _trained_state()
    path = tmp_path / "state.json"
    save_state(state, path)
    header, payload = _split_state(path)
    assert header == {
        "version": 2, "d_e": 12, "d_K": 3, "gamma": 0.7, "tasks_seen": 1,
        "featurizer": state.featurizer.to_dict(), "expansion_seed": 4,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    assert payload == state.R.astype("<f8").tobytes() + state.Q.astype("<f8").tobytes()


def test_load_rejects_payload_sha256_mismatch(tmp_path):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    flipped = bytearray(payload)
    flipped[-1] ^= 1  # lowest mantissa bit of Q's last entry
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


def test_load_rejects_header_longer_than_the_bound(tmp_path):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    header["padding"] = "x" * HEADER_LIMIT
    _write_state(path, header, payload)
    with pytest.raises(StateFormatError, match=f"at most {HEADER_LIMIT} bytes"):
        load_state(path)


@pytest.mark.parametrize("d_e", [12, 96])
def test_load_rejects_version_1_json_file(tmp_path, d_e):
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
    with pytest.raises(StateFormatError, match="version"):
        load_state(path)


def test_loaded_arrays_are_contiguous_aligned_and_read_only(tmp_path):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    loaded = load_state(path)
    for arr in (loaded.R, loaded.Q, loaded.W):
        assert arr.flags.c_contiguous and arr.flags.aligned
        assert not arr.flags.writeable


@pytest.mark.parametrize("key", ["d_e", "d_K", "gamma", "tasks_seen", "expansion_seed"])
def test_load_rejects_bool_for_integer_header_field(tmp_path, key):
    # Every one of these fields is 1, so true would pass as an equal value.
    state = expand_label_space(init(1, 1.0, expansion_seed=1), 1)
    state = update(state, np.ones((1, 1)), np.ones((1, 1)))
    path = tmp_path / "state.json"
    save_state(state, path)
    header, payload = _split_state(path)
    assert header[key] == 1
    header[key] = True
    _write_state(path, header, payload)
    with pytest.raises(StateFormatError, match=key):
        load_state(path)


def test_load_names_a_negative_expansion_seed(tmp_path):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    header["expansion_seed"] = -1
    _write_state(path, header, payload)
    with pytest.raises(StateFormatError, match="expansion_seed"):
        load_state(path)


def test_load_rejects_string_bool_in_featurizer(tmp_path):
    path = tmp_path / "state.json"
    save_state(_trained_state(), path)
    header, payload = _split_state(path)
    header["featurizer"]["lowercase"] = "false"
    _write_state(path, header, payload)
    with pytest.raises(StateFormatError, match="lowercase"):
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
