"""Executor registry and deterministic stub policies."""

from __future__ import annotations

import json

import numpy as np
import pytest

from taskrouter.library import (
    MAX_CHUNK_ENTRIES,
    ExecutorRegistry,
    ExecutorSpec,
    Observation,
    execute,
    load_manifest,
    save_manifest,
)


def _spec(task_id=0, **overrides):
    defaults = dict(task_id=task_id, name=f"task-{task_id}", action_dim=7,
                    horizon=8, seed=5, amplitude=1.0)
    defaults.update(overrides)
    return ExecutorSpec(**defaults)


def _obs(values=(0.1, -0.2, 0.3)):
    return Observation(proprioception=np.array(values), image_digest=b"\x00\x01",
                       instruction="grab the cube")


# -- registry ----------------------------------------------------------------


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        ExecutorRegistry([_spec(0), _spec(0, name="other")])


def test_registry_counts_ten_tasks():
    registry = ExecutorRegistry(_spec(i) for i in range(10))
    assert [spec.task_id for spec in registry] == list(range(10))
    assert all(registry.lookup(i) is not None for i in range(10))


def test_lookup_unknown_task_signals_missing():
    registry = ExecutorRegistry([_spec(0)])
    assert registry.lookup(42) is None


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(0, action_dim=0)
    with pytest.raises(ValueError):
        _spec(0, horizon=-1)
    with pytest.raises(ValueError):
        _spec(-1)
    for amplitude in (float("inf"), float("nan"), 10**400):
        with pytest.raises(ValueError, match="amplitude"):
            _spec(0, amplitude=amplitude)


def test_spec_refuses_a_chunk_over_the_entry_bound(tmp_path):
    # Refused from its fields alone: no chunk is allocated.
    assert _spec(0, horizon=MAX_CHUNK_ENTRIES, action_dim=1).horizon == MAX_CHUNK_ENTRIES
    for horizon, action_dim in ((MAX_CHUNK_ENTRIES + 1, 1), (1 << 8, 1 << 8), (10**9, 10**9)):
        with pytest.raises(ValueError, match=f"exceeds {MAX_CHUNK_ENTRIES} entries"):
            _spec(0, horizon=horizon, action_dim=action_dim)
    path = tmp_path / "registry.json"
    path.write_text(json.dumps([{"task_id": 0, "name": "x", "action_dim": 10**9,
                                 "horizon": 10**9}]))
    with pytest.raises(ValueError, match="exceeds"):
        load_manifest(path)


# -- execute -----------------------------------------------------------------


def test_execute_is_deterministic():
    spec, obs = _spec(3), _obs()
    first = execute(spec, obs)
    second = execute(spec, obs)
    assert np.array_equal(first.actions, second.actions)


def test_execute_shape_contract():
    chunk = execute(_spec(1, horizon=8, action_dim=7), _obs())
    assert chunk.actions.shape == (8, 7)


def test_distinct_tasks_trace_distinct_trajectories():
    obs = _obs()
    a = execute(_spec(0), obs).actions
    b = execute(_spec(1), obs).actions
    assert np.abs(a - b).max() > 1e-6


def test_empty_proprioception_is_allowed():
    chunk = execute(_spec(0), Observation(proprioception=np.zeros(0)))
    assert np.isfinite(chunk.actions).all()


# -- manifest ------------------------------------------------------------------


def test_manifest_round_trip_preserves_specs_and_order(tmp_path):
    registry = ExecutorRegistry(
        [_spec(2, name="banana"), _spec(0, name="corn"), _spec(5, name="cans")]
    )
    path = tmp_path / "registry.json"
    save_manifest(registry, path)
    loaded = load_manifest(path)
    assert [s.task_id for s in loaded] == [2, 0, 5]
    assert list(loaded) == list(registry)


def test_manifest_rejects_bad_documents(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text('{"not": "a list"}')
    with pytest.raises(ValueError, match="array"):
        load_manifest(path)
    path.write_text("[{]")
    with pytest.raises(ValueError, match="corrupt"):
        load_manifest(path)
    path.write_text('[{"task_id": 0}]')
    with pytest.raises(ValueError, match="missing field"):
        load_manifest(path)


_GOOD_SPEC_DOC = {"task_id": 1, "name": "x", "action_dim": 2, "horizon": 3,
                  "seed": 4, "amplitude": 0.5}


@pytest.mark.parametrize(
    "field, bad",
    [
        ("task_id", 1.9), ("task_id", True), ("task_id", "1"),
        ("name", ["x"]), ("name", 3), ("name", None),
        ("action_dim", True), ("action_dim", 2.0), ("action_dim", "2"),
        ("horizon", "3"), ("horizon", 3.5), ("horizon", False),
        ("seed", True), ("seed", 4.0), ("seed", "4"),
        ("amplitude", True), ("amplitude", "0.5"), ("amplitude", None),
    ],
)
def test_spec_from_dict_refuses_wrong_types(field, bad):
    doc = dict(_GOOD_SPEC_DOC, **{field: bad})
    with pytest.raises(ValueError, match=f"executor field '{field}'"):
        ExecutorSpec.from_dict(doc)
    with pytest.raises(ValueError, match=f"executor field '{field}'"):
        ExecutorSpec(**doc)


@pytest.mark.parametrize("entry", [1, "task", None, [0, "x", 1, 1]])
def test_spec_from_dict_refuses_a_non_object(entry):
    with pytest.raises(ValueError, match="JSON object"):
        ExecutorSpec.from_dict(entry)


def test_spec_from_dict_accepts_exact_types_and_defaults():
    spec = ExecutorSpec.from_dict(_GOOD_SPEC_DOC)
    assert spec == ExecutorSpec(1, "x", 2, 3, seed=4, amplitude=0.5)
    assert ExecutorSpec.from_dict(spec.to_dict()) == spec
    minimal = ExecutorSpec.from_dict({"task_id": 0, "name": "y", "action_dim": 1,
                                      "horizon": 1, "amplitude": 2})
    assert (minimal.seed, minimal.amplitude) == (0, 2.0)
    assert isinstance(minimal.amplitude, float)
