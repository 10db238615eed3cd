"""Feature pipeline: tokenizing, hashing embedder, pooling, expansion."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrouter.features import (
    EMPTY_TOKEN,
    ExpansionParams,
    FeaturizerConfig,
    embed_sequence,
    expand,
    featurize_batch,
    mean_pool,
    tokenize,
)
from taskrouter.scheduler import fit_base, one_hot, predict_proba
from taskrouter.service import Router

CFG = FeaturizerConfig(seed=0, d_f=16, d_e=48)


# -- config ---------------------------------------------------------------


def test_config_requires_df_strictly_below_de():
    with pytest.raises(ValueError):
        FeaturizerConfig(d_f=64, d_e=64)
    with pytest.raises(ValueError):
        FeaturizerConfig(d_f=128, d_e=64)


@pytest.mark.parametrize("kwargs", [
    {"d_f": 0}, {"d_e": 0}, {"d_f": -1}, {"seed": -1},
])
def test_config_rejects_nonpositive_fields(kwargs):
    with pytest.raises(ValueError):
        FeaturizerConfig(**kwargs)


def test_config_dict_round_trip():
    cfg = FeaturizerConfig(seed=9, d_f=8, d_e=32)
    assert FeaturizerConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_rejects_string_for_int():
    doc = dict(FeaturizerConfig().to_dict(), seed="0")
    with pytest.raises(ValueError, match="seed"):
        FeaturizerConfig.from_dict(doc)
    with pytest.raises(ValueError, match="d_e"):
        FeaturizerConfig(d_e="1024")


def test_config_from_dict_rejects_fractional_integer():
    doc = dict(FeaturizerConfig().to_dict(), d_f=1.9)
    with pytest.raises(ValueError, match="d_f"):
        FeaturizerConfig.from_dict(doc)
    with pytest.raises(ValueError, match="d_f"):
        FeaturizerConfig(d_f=8.5, d_e=16)
    with pytest.raises(ValueError, match="seed"):
        FeaturizerConfig(seed=True)


@pytest.mark.parametrize("doc", [[], [1, 2], "config", 3], ids=["empty-list", "list", "str", "int"])
def test_config_from_dict_refuses_a_non_object(doc):
    with pytest.raises(ValueError, match="JSON object"):
        FeaturizerConfig.from_dict(doc)


# -- tokenize -------------------------------------------------------------


def test_tokenize_splits_on_whitespace_and_punctuation():
    assert tokenize("Pick up the banana!", CFG) == ["pick", "up", "the", "banana"]


def test_tokenize_empty_text_yields_sentinel():
    assert tokenize("", CFG) == [EMPTY_TOKEN]
    assert tokenize("  !?,  ", CFG) == [EMPTY_TOKEN]


def test_tokenize_is_deterministic():
    text = "Pour Half a GLASS of water."
    assert tokenize(text, CFG) == tokenize(text, CFG)


@given(st.text(max_size=80))
def test_tokenize_total_and_stable(text):
    tokens = tokenize(text, CFG)
    assert tokens and tokens == tokenize(text, CFG)


# -- embed_sequence -------------------------------------------------------


def test_embed_identical_tokens_share_rows():
    feats = embed_sequence(["cup", "lift", "cup"], CFG)
    assert np.array_equal(feats[0], feats[2])
    assert not np.array_equal(feats[0], feats[1])


def test_embed_shape_contract():
    feats = embed_sequence(["a", "b", "c", "d"], CFG)
    assert feats.shape == (4, 16)


def test_embed_rejects_empty_sequence():
    with pytest.raises(ValueError):
        embed_sequence([], CFG)


def test_embed_row_norm_expectation_near_one():
    # Monte Carlo over the bucket-embedding generator: E[|row|^2] = 1.
    cfg = FeaturizerConfig(seed=3, d_f=64, d_e=128)
    tokens = [f"token{i}" for i in range(1000)]
    rows = embed_sequence(tokens, cfg)
    mean_sq_norm = float(np.mean(np.sum(rows * rows, axis=1)))
    assert 0.8 <= mean_sq_norm <= 1.2


def test_embed_is_deterministic_across_calls():
    tokens = tokenize("route the quadruped to the charging dock", CFG)
    a = embed_sequence(tokens, CFG)
    b = embed_sequence(tokens, CFG)
    assert np.array_equal(a, b)


# -- mean_pool ------------------------------------------------------------


def test_mean_pool_arithmetic():
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(mean_pool(rows), np.array([2.0, 3.0]))


def test_mean_pool_single_row_is_identity():
    row = np.array([[0.5, -1.5, 2.0]])
    assert np.array_equal(mean_pool(row), row[0])


def test_mean_pool_constant_rows():
    rows = np.tile([[1.0, -2.0]], (5, 1))
    assert np.array_equal(mean_pool(rows), np.array([1.0, -2.0]))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_mean_pool_self_concatenation_invariant(n_rows, width, seed):
    rows = np.random.default_rng(seed).uniform(-10, 10, (n_rows, width))
    doubled = np.vstack([rows, rows])
    np.testing.assert_allclose(mean_pool(doubled), mean_pool(rows), atol=1e-12)


# -- expand ---------------------------------------------------------------


def test_expand_relu_clips_negatives():
    params = ExpansionParams(projection=np.eye(2), seed=0)
    assert np.array_equal(expand(np.array([1.0, -1.0]), params), np.array([1.0, 0.0]))


def test_expand_zero_vector_maps_to_zero():
    params = ExpansionParams.create(seed=1, d_f=8, d_e=24)
    assert np.array_equal(expand(np.zeros(8), params), np.zeros(24))


def test_expand_outputs_are_nonnegative():
    params = ExpansionParams.create(seed=2, d_f=16, d_e=64)
    pooled = np.random.default_rng(5).standard_normal(16)
    assert (expand(pooled, params) >= 0.0).all()


def test_expand_rejects_dimension_mismatch():
    params = ExpansionParams.create(seed=0, d_f=8, d_e=24)
    with pytest.raises(ValueError):
        expand(np.zeros(9), params)


def test_expansion_params_regenerate_identically():
    a = ExpansionParams.create(seed=11, d_f=8, d_e=40)
    b = ExpansionParams.create(seed=11, d_f=8, d_e=40)
    assert np.array_equal(a.projection, b.projection)
    assert not np.array_equal(
        a.projection, ExpansionParams.create(seed=12, d_f=8, d_e=40).projection
    )


@pytest.mark.parametrize("name, args", [
    ("d_f", (0, True, 8)),
    ("d_f", (0, 2.0, 8)),
    ("d_f", (0, "2", 8)),
    ("d_f", (0, 0, 8)),
    ("d_e", (0, 4, 0)),
    ("d_e", (0, 4, 8.0)),
    ("seed", (-1, 4, 8)),
    ("seed", (2**64, 4, 8)),
    ("seed", (1.0, 4, 8)),
])
def test_expansion_params_create_names_a_bad_argument(name, args):
    with pytest.raises(ValueError, match=name):
        ExpansionParams.create(*args)


@pytest.mark.parametrize("seed", ["x", True, -1, 1.0, 2**64, 2**70])
def test_expansion_params_refuse_a_bad_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        ExpansionParams(np.ones((2, 3)), seed=seed)


def test_expansion_projection_is_frozen():
    params = ExpansionParams.create(seed=0, d_f=4, d_e=12)
    with pytest.raises(ValueError):
        params.projection[0, 0] = 5.0


# -- featurize_batch ------------------------------------------------------


def test_featurize_batch_shape_contract():
    config = FeaturizerConfig(seed=0)
    params = ExpansionParams.create(0, config.d_f, config.d_e)
    out = featurize_batch(["grab the cube", "pour the water", "open the book"],
                          config, params)
    assert out.shape == (3, 1024)


def test_featurize_batch_rows_are_independent():
    params = ExpansionParams.create(0, CFG.d_f, CFG.d_e)
    texts = ["stack the cans", "shelve the novel", "rinse the bottle"]
    base = featurize_batch(texts, CFG, params)
    permuted = featurize_batch([texts[2], texts[0], texts[1]], CFG, params)
    assert np.array_equal(permuted, base[[2, 0, 1]])


def test_featurize_batch_is_bit_deterministic():
    params = ExpansionParams.create(0, CFG.d_f, CFG.d_e)
    texts = ["lift the crate", "", "Spin the cube!"]
    assert np.array_equal(
        featurize_batch(texts, CFG, params), featurize_batch(texts, CFG, params)
    )


def test_featurize_batch_outputs_nonnegative():
    params = ExpansionParams.create(0, CFG.d_f, CFG.d_e)
    out = featurize_batch(["guide the robot dog", "choose a die"], CFG, params)
    assert (out >= 0.0).all() and np.isfinite(out).all()


def test_featurize_batch_rejects_empty_input_and_bad_params():
    params = ExpansionParams.create(0, CFG.d_f, CFG.d_e)
    with pytest.raises(ValueError):
        featurize_batch([], CFG, params)
    wrong = ExpansionParams.create(0, CFG.d_f + 1, CFG.d_e)
    with pytest.raises(ValueError):
        featurize_batch(["text"], CFG, wrong)


def test_one_text_alone_equals_its_row_in_a_batch_and_routes_by_it():
    # Router.route featurizes a text as a batch of one. That row must equal
    # the text's row in any larger batch, bit for bit, and the probabilities
    # route reports must be predict_proba of it.
    params = ExpansionParams.for_config(CFG)
    texts = ["stack the cans", "", "Shelve the NOVEL, please!", "rinse the bottle",
             "ünïcödé  tëxt", "stack the cans", "lift " * 50]
    batch = featurize_batch(texts, CFG, params)
    state = fit_base(batch, one_hot([0, 1, 2, 0, 1, 0, 2], 3), 1.0,
                     featurizer=CFG, expansion_seed=CFG.seed)
    router = Router(state)
    for text, row in zip(texts, batch):
        assert np.array_equal(featurize_batch([text], CFG, params)[0], row)
        assert router.route(text).probabilities == predict_proba(state, row).tolist()
