"""Atomic writes: a write that fails partway leaves the previous file intact."""

from __future__ import annotations

import builtins

import pytest

from taskrouter import atomic
from taskrouter.atomic import write_atomic
from taskrouter.cli import main
from taskrouter.corpus import generate_synthetic_corpus, write_corpus
from taskrouter.library import ExecutorRegistry, ExecutorSpec, save_manifest
from taskrouter.scheduler import expand_label_space, init, save_state


class _FailingFile:
    """A file whose first write stores half of its bytes and then raises."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        view = memoryview(data).cast("B")
        self._handle.write(view[: len(view) // 2])
        self._handle.flush()
        raise OSError("disk full")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


def _save_state(path):
    save_state(expand_label_space(init(4, 1.0), 2), path)


def _save_manifest(path):
    registry = ExecutorRegistry(
        [ExecutorSpec(task_id=0, name="exec-0", action_dim=2, horizon=3)]
    )
    save_manifest(registry, path)


def _write_corpus(path):
    write_corpus(generate_synthetic_corpus(2, 10, seed=1), path, force=True)


def _eval_report(path):
    corpus = path.parent / "corpus.jsonl"
    if not corpus.exists():
        write_corpus(generate_synthetic_corpus(2, 10, seed=1), corpus)
    code = main(["eval", "--corpus", str(corpus), "--report-out", str(path),
                 "--d-e", "64", "--d-f", "16"])
    if code != 0:
        raise OSError("eval failed")


WRITERS = {
    "state": _save_state,
    "manifest": _save_manifest,
    "corpus": _write_corpus,
    "eval-report": _eval_report,
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_leaves_previous_file_and_no_temp_file(tmp_path, monkeypatch, name):
    write = WRITERS[name]
    path = tmp_path / "out.json"
    write(path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert before[path.name]

    monkeypatch.setattr(
        atomic, "open", lambda *args: _FailingFile(builtins.open(*args)), raising=False
    )
    with pytest.raises(OSError):
        write(path)
    monkeypatch.undo()

    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_write_atomic_replaces_the_file_in_one_step(tmp_path):
    path = tmp_path / "out.bin"
    write_atomic(path, b"old")
    write_atomic(path, b"new ", memoryview(b"content"))
    assert path.read_bytes() == b"new content"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
