"""Synthetic corpus generation and JSONL corpus I/O."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from taskrouter.corpus import (
    THEMES,
    InstructionRecord,
    generate_synthetic_corpus,
    read_corpus,
    write_corpus,
)
from taskrouter.features import MAX_TOKENS


def test_ten_classes_of_102_yield_1020_instructions():
    records = generate_synthetic_corpus(10, 102, seed=0)
    assert len(records) == 1020
    counts = Counter(r.task_id for r in records)
    assert counts == {c: 102 for c in range(10)}


def test_generation_is_deterministic_under_seed():
    assert generate_synthetic_corpus(4, 20, seed=7) == generate_synthetic_corpus(4, 20, seed=7)
    assert generate_synthetic_corpus(4, 20, seed=7) != generate_synthetic_corpus(4, 20, seed=8)


def test_instructions_are_unique_within_each_class():
    records = generate_synthetic_corpus(10, 102, seed=3)
    for class_id in range(10):
        texts = [r.text for r in records if r.task_id == class_id]
        assert len(set(texts)) == len(texts)


def test_split_is_stratified_per_class():
    records = generate_synthetic_corpus(5, 100, seed=0)
    for class_id in range(5):
        splits = Counter(r.split for r in records if r.task_id == class_id)
        assert splits == {"train": 80, "test": 20}


def test_capacity_overflow_is_rejected():
    # Class 0's templates yield 4,320 distinct instructions.
    too_many = 4321
    with pytest.raises(ValueError, match="unique instructions"):
        generate_synthetic_corpus(2, too_many, seed=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_classes": 1, "per_class": 20},
        {"n_classes": 2, "per_class": 9},
        {"n_classes": len(THEMES) + 1, "per_class": 20},
        {"n_classes": 2.5, "per_class": 20},
        {"n_classes": 3, "per_class": 20.0},
        {"n_classes": 3, "per_class": 20, "seed": 1.5},
        {"n_classes": 3, "per_class": 20, "seed": True},
        {"n_classes": True, "per_class": 20},
        {"n_classes": 3, "per_class": 20, "seed": -1},
    ],
)
def test_generator_validates_arguments(kwargs):
    kwargs = {"seed": 0, **kwargs}
    with pytest.raises(ValueError):
        generate_synthetic_corpus(**kwargs)


def test_write_read_round_trip(tmp_path):
    records = generate_synthetic_corpus(3, 15, seed=1)
    path = tmp_path / "corpus.jsonl"
    write_corpus(records, path)
    assert read_corpus(path) == records


def test_write_refuses_overwrite_without_force(tmp_path):
    records = generate_synthetic_corpus(2, 10, seed=0)
    path = tmp_path / "corpus.jsonl"
    write_corpus(records, path)
    with pytest.raises(FileExistsError):
        write_corpus(records, path)
    write_corpus(records, path, force=True)


def test_write_rejects_unsplit_records(tmp_path):
    with pytest.raises(ValueError, match="split"):
        record = InstructionRecord(text="grab the cube", task_id=0, split=None)
        write_corpus([record], tmp_path / "corpus.jsonl")


def test_read_names_bad_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    good = json.dumps({"text": "grab the cube", "task_id": 0, "split": "train"})
    path.write_text(good + "\n{broken\n")
    with pytest.raises(ValueError, match="line 2"):
        read_corpus(path)
    path.write_text(json.dumps({"text": "x", "task_id": 0, "split": "dev"}) + "\n")
    with pytest.raises(ValueError, match="split"):
        read_corpus(path)
    path.write_text(json.dumps({"task_id": 0, "split": "train"}) + "\n")
    with pytest.raises(ValueError, match="text"):
        read_corpus(path)
    path.write_text(good + "\n" + json.dumps({"text": "x", "task_id": "3", "split": "train"}))
    with pytest.raises(ValueError, match="line 2: task_id must be an integer >= 0"):
        read_corpus(path)
    path.write_text("\n")
    with pytest.raises(ValueError, match="empty"):
        read_corpus(path)


def test_read_refuses_a_text_longer_than_the_featurizer_takes(tmp_path):
    # The featurizer's own limit, met at read time: the refusal names the line.
    good = json.dumps({"text": "grab the cube", "task_id": 0, "split": "train"})
    for n in (MAX_TOKENS, MAX_TOKENS + 1):
        long = json.dumps({"text": "pick " * n, "task_id": 0, "split": "train"})
        (tmp_path / f"{n}.jsonl").write_text(f"{good}\n{long}\n")
    assert read_corpus(tmp_path / f"{MAX_TOKENS}.jsonl")[1].text == "pick " * MAX_TOKENS
    refusal = f"^line 2: text has {MAX_TOKENS + 1} tokens; at most {MAX_TOKENS} are allowed$"
    with pytest.raises(ValueError, match=refusal):
        read_corpus(tmp_path / f"{MAX_TOKENS + 1}.jsonl")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_read_ends_lines_where_text_mode_does(tmp_path, newline):
    path = tmp_path / "corpus.jsonl"
    good = json.dumps({"text": "grab the cube", "task_id": 0, "split": "train"})
    path.write_bytes(newline.join([good, "", good, ""]).encode())
    assert len(read_corpus(path)) == 2
    path.write_bytes(newline.join([good, "", "{broken"]).encode())
    with pytest.raises(ValueError, match="line 3: invalid JSON"):
        read_corpus(path)


def test_record_validation():
    with pytest.raises(ValueError):
        InstructionRecord(text="x", task_id=-1)
    with pytest.raises(ValueError):
        InstructionRecord(text="x", task_id=0, split="validation")
    with pytest.raises(ValueError, match="text"):
        InstructionRecord(text=1, task_id=0)
    for bad in (True, 1.5, "3"):
        with pytest.raises(ValueError, match="task_id"):
            InstructionRecord(text="x", task_id=bad)
