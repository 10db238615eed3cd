"""The shared field rules, and every JSON reader refusing a key it does not know."""

from __future__ import annotations

import json

import numpy as np
import pytest

from taskrouter.checks import check_int, check_number, json_fields
from taskrouter.cli import _load_plan
from taskrouter.corpus import read_corpus
from taskrouter.features import FeaturizerConfig
from taskrouter.library import load_manifest
from taskrouter.scheduler import StateFormatError, fit_base, load_state, one_hot, save_state


@pytest.mark.parametrize("value, low, high", [
    (True, 0, None), (False, 0, None), (1.0, 0, None), ("1", 0, None), (None, 0, None),
    (-1, 0, None), (0, 1, None), (2**64, 0, 2**64),
])
def test_check_int_refuses(value, low, high):
    with pytest.raises(ValueError, match="field 'n' must be an integer"):
        check_int(value, "field 'n'", low, high)


def test_check_int_accepts_the_bounds():
    assert check_int(0, "n") == 0
    assert check_int(2**64 - 1, "n", 0, 2**64) == 2**64 - 1


@pytest.mark.parametrize("value", [True, "1.0", None, float("inf"), float("nan"), 10**400])
def test_check_number_refuses(value):
    with pytest.raises(ValueError, match="x must be a finite number"):
        check_number(value, "x")


def test_check_number_returns_a_float():
    assert type(check_number(3, "x")) is float and check_number(3, "x") == 3.0


def test_json_fields():
    doc = {"a": 1, "b": 2}
    assert json_fields(doc, "thing", ("a",), ("b", "c")) is doc
    with pytest.raises(ValueError, match="thing must be a JSON object, got list"):
        json_fields([1], "thing", ("a",))
    with pytest.raises(ValueError, match="thing is missing field 'a'"):
        json_fields({"b": 2}, "thing", ("a",), ("b",))
    with pytest.raises(ValueError, match=r"unknown thing field\(s\) \['b'\]"):
        json_fields(doc, "thing", ("a",))


# -- every reader refuses an unknown key ----------------------------------------


def _corpus_line(path):
    path.write_text(json.dumps({"text": "x", "task_id": 0, "split": "train", "splitt": 1}) + "\n")
    return "splitt", lambda: read_corpus(path)


def _featurizer_config(path):
    doc = dict(FeaturizerConfig().to_dict(), lowercas=False)
    return "lowercas", lambda: FeaturizerConfig.from_dict(doc)


def _manifest_entry(path):
    entry = {"task_id": 0, "name": "x", "action_dim": 1, "horizon": 1, "amplitud": 2.0}
    path.write_text(json.dumps([entry]))
    return "amplitud", lambda: load_manifest(path)


def _plan_file(path):
    path.write_text(json.dumps({"base_classes": [0], "incremental_class": [1]}))
    return "incremental_class", lambda: _load_plan(str(path))


def _state_header(path):
    rng = np.random.default_rng(0)
    state = fit_base(rng.standard_normal((6, 4)), one_hot([0, 1] * 3, 2), 1.0)
    save_state(state, path)
    line, _, payload = path.read_bytes().partition(b"\n")
    # The unknown key is refused before the digest is checked.
    header = dict(json.loads(line), gama=2.0)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return "gama", lambda: load_state(path)


@pytest.mark.parametrize("reader", [
    _corpus_line, _featurizer_config, _manifest_entry, _plan_file, _state_header,
], ids=["corpus-line", "featurizer-config", "manifest-entry", "plan-file", "state-header"])
def test_every_reader_refuses_an_unknown_key(tmp_path, reader):
    key, read = reader(tmp_path / "doc")
    error = StateFormatError if reader is _state_header else ValueError
    with pytest.raises(error, match=rf"unknown .* field\(s\) \['{key}'\]"):
        read()


# -- every file reader refuses deep nesting ---------------------------------------


@pytest.mark.parametrize("read, error, message", [
    (read_corpus, ValueError, "line 1: invalid JSON"),
    (load_manifest, ValueError, "corrupt registry manifest"),
    (lambda path: _load_plan(str(path)), ValueError, "invalid plan JSON"),
    (load_state, StateFormatError, "corrupt state header"),
], ids=["corpus-line", "manifest", "plan-file", "state-header"])
def test_every_file_reader_refuses_deep_nesting(tmp_path, read, error, message):
    # json.loads raises RecursionError on such input. The line fits the state
    # header's bound, so every reader parses it.
    path = tmp_path / "doc"
    path.write_bytes(b"[" * 60_000 + b"\n")
    with pytest.raises(error, match=message):
        read(path)
