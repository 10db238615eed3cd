"""Command-line behaviour: files, flags, exit codes, determinism."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from taskrouter.cli import main
from taskrouter.corpus import read_corpus
from taskrouter.features import ExpansionParams, FeaturizerConfig, featurize_batch
from taskrouter.library import ExecutorRegistry, ExecutorSpec, save_manifest
from taskrouter.scheduler import (
    expand_label_space,
    fit_base,
    load_state,
    one_hot,
    save_state,
    update,
)

D_E, D_F, SEED = 256, 32, 3


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A corpus of 4 small classes and a base state trained on classes 0 and 1."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    state = root / "base.json"
    assert main(["gen-corpus", "--corpus", str(corpus), "--n-classes", "4",
                 "--per-class", "20", "--seed", str(SEED)]) == 0
    assert main(["train-base", "--corpus", str(corpus), "--classes", "0,1",
                 "--state-out", str(state), "--d-e", str(D_E), "--d-f", str(D_F),
                 "--seed", str(SEED)]) == 0
    return root


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- gen-corpus --------------------------------------------------------------


def test_gen_corpus_writes_expected_lines(workdir):
    lines = (workdir / "corpus.jsonl").read_text().strip().splitlines()
    assert len(lines) == 80
    first = json.loads(lines[0])
    assert set(first) == {"text", "task_id", "split"}


def test_gen_corpus_refuses_overwrite_then_force(workdir, capsys, tmp_path):
    corpus = workdir / "corpus.jsonl"
    code, _, err = _run(capsys, ["gen-corpus", "--corpus", str(corpus),
                                 "--n-classes", "4", "--per-class", "20",
                                 "--seed", str(SEED)])
    assert code == 1
    assert "error" in json.loads(err.strip())
    before = corpus.read_bytes()
    code, _, _ = _run(capsys, ["gen-corpus", "--corpus", str(corpus),
                               "--n-classes", "4", "--per-class", "20",
                               "--seed", str(SEED), "--force"])
    assert code == 0
    assert corpus.read_bytes() == before  # same seed, byte-identical file


def test_gen_corpus_is_byte_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        code, _, _ = _run(capsys, ["gen-corpus", "--corpus", str(path),
                                   "--n-classes", "3", "--per-class", "12",
                                   "--seed", "9"])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_corpus_defaults_write_1020_lines(capsys, tmp_path):
    path = tmp_path / "full.jsonl"
    code, _, _ = _run(capsys, ["gen-corpus", "--corpus", str(path)])
    assert code == 0
    assert len(path.read_text().strip().splitlines()) == 1020


def test_eval_default_plan_on_ten_classes_has_six_rows(capsys, tmp_path):
    corpus = tmp_path / "ten.jsonl"
    report_out = tmp_path / "report.json"
    code, _, _ = _run(capsys, ["gen-corpus", "--corpus", str(corpus),
                               "--n-classes", "10", "--per-class", "12",
                               "--seed", "1"])
    assert code == 0
    code, _, _ = _run(capsys, ["eval", "--corpus", str(corpus),
                               "--report-out", str(report_out),
                               "--d-e", "128", "--d-f", "32", "--seed", "1"])
    assert code == 0
    doc = json.loads(report_out.read_text())
    assert len(doc["phases"]) == 6
    assert doc["phases"][0]["new_classes"] == [0, 1, 2, 3, 4]
    assert [p["new_classes"] for p in doc["phases"][1:]] == [[5], [6], [7], [8], [9]]
    table = (tmp_path / "report.txt").read_text()
    assert table.count("IL Phase") == 5


def test_eval_runs_the_readme_plan_example(capsys, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"custom phase plan.*?```json\n(.*?)```", readme, re.S)
    assert block is not None, "README has no custom phase plan JSON block"
    plan = tmp_path / "plan.json"
    plan.write_text(block.group(1))
    corpus = tmp_path / "ten.jsonl"
    report_out = tmp_path / "report.json"
    code, _, _ = _run(capsys, ["gen-corpus", "--corpus", str(corpus),
                               "--n-classes", "10", "--per-class", "12",
                               "--seed", "1"])
    assert code == 0
    code, _, err = _run(capsys, ["eval", "--corpus", str(corpus), "--plan", str(plan),
                                 "--report-out", str(report_out),
                                 "--d-e", "128", "--d-f", "32", "--seed", "1"])
    assert code == 0, err
    doc = json.loads(report_out.read_text())
    expected = json.loads(block.group(1))
    assert doc["phases"][0]["new_classes"] == expected["base_classes"]
    assert [p["new_classes"] for p in doc["phases"][1:]] == [
        [c] for c in expected["incremental_classes"]
    ]


# -- train-base ---------------------------------------------------------------


def test_train_base_reports_label_width(workdir):
    state = load_state(workdir / "base.json")
    assert state.d_k == 2
    assert state.featurizer.d_e == D_E


def test_train_base_is_byte_deterministic(workdir, capsys, tmp_path):
    out = tmp_path / "again.json"
    code, _, _ = _run(capsys, ["train-base", "--corpus", str(workdir / "corpus.jsonl"),
                               "--classes", "0,1", "--state-out", str(out),
                               "--d-e", str(D_E), "--d-f", str(D_F), "--seed", str(SEED)])
    assert code == 0
    assert out.read_bytes() == (workdir / "base.json").read_bytes()


def test_train_base_names_missing_class(workdir, capsys, tmp_path):
    code, _, err = _run(capsys, ["train-base", "--corpus", str(workdir / "corpus.jsonl"),
                                 "--classes", "0,99", "--state-out",
                                 str(tmp_path / "x.json")])
    assert code == 1
    assert "99" in json.loads(err.strip())["error"]


def test_train_base_and_update_write_what_the_library_steps_write(workdir, capsys, tmp_path):
    # Both commands run one learning step. train-base must write the bytes of
    # fit_base plus save_state on the same rows, with the classes out of
    # order, and update those of expand_label_space (when the class is new to
    # the label space) plus update.
    corpus = workdir / "corpus.jsonl"
    records = read_corpus(corpus)
    config = FeaturizerConfig(seed=SEED, d_f=D_F, d_e=D_E)
    params = ExpansionParams.for_config(config)

    def rows_of(classes):
        rows = [r for c in classes for r in records if r.task_id == c and r.split == "train"]
        return featurize_batch([r.text for r in rows], config, params), [r.task_id for r in rows]

    def expect_same(cli_out, state):
        save_state(state, tmp_path / "expected.state")
        assert cli_out.read_bytes() == (tmp_path / "expected.state").read_bytes()

    base = tmp_path / "base310.state"
    code, _, _ = _run(capsys, ["train-base", "--corpus", str(corpus), "--classes", "3,1,0",
                               "--state-out", str(base), "--d-e", str(D_E),
                               "--d-f", str(D_F), "--seed", str(SEED)])
    assert code == 0
    features, ids = rows_of([3, 1, 0])
    expect_same(base, fit_base(features, one_hot(ids, 4), 1.0, featurizer=config))

    for state_in, new_class in ((workdir / "base.json", 3), (base, 2)):
        out = tmp_path / f"plus{new_class}.state"
        code, _, _ = _run(capsys, ["update", "--state", str(state_in), "--corpus", str(corpus),
                                   "--new-class", str(new_class), "--state-out", str(out)])
        assert code == 0
        state = load_state(state_in)
        if new_class >= state.d_k:
            state = expand_label_space(state, new_class + 1)
        features, ids = rows_of([new_class])
        expect_same(out, update(state, features, one_hot(ids, state.d_k)))


# -- update --------------------------------------------------------------------


def test_update_grows_label_space_and_keeps_input(workdir, capsys, tmp_path):
    base = workdir / "base.json"
    out = tmp_path / "plus2.json"
    before = base.read_bytes()
    code, stdout, _ = _run(capsys, ["update", "--state", str(base),
                                    "--corpus", str(workdir / "corpus.jsonl"),
                                    "--new-class", "2", "--state-out", str(out)])
    assert code == 0
    assert json.loads(stdout.strip())["d_K"] == 3
    assert base.read_bytes() == before
    assert load_state(out).d_k == 3


def test_update_rejects_already_trained_class(workdir, capsys, tmp_path):
    code, _, err = _run(capsys, ["update", "--state", str(workdir / "base.json"),
                                 "--corpus", str(workdir / "corpus.jsonl"),
                                 "--new-class", "1", "--state-out",
                                 str(tmp_path / "x.json")])
    assert code == 1
    assert "already trained" in json.loads(err.strip())["error"]


def test_update_refuses_a_negative_class_before_reading_the_state(workdir, capsys, tmp_path):
    # Q[:, -1] is the last column, so -1 must not reach the "already trained" check.
    code, _, err = _run(capsys, ["update", "--state", str(tmp_path / "missing.json"),
                                 "--corpus", str(workdir / "corpus.jsonl"),
                                 "--new-class", "-1", "--state-out",
                                 str(tmp_path / "x.json")])
    assert code == 1
    assert "--new-class" in json.loads(err.strip())["error"]


@pytest.mark.parametrize("command, flag, value, code", [
    ("train-base", "--classes", "0,1_0", 1),
    ("train-base", "--classes", "0,+1", 1),
    ("train-base", "--classes", "0,١", 1),
    ("train-base", "--classes", "0, 1", 1),
    ("update", "--new-class", "+3", 1),
    ("gen-corpus", "--n-classes", "1_2", 2),
    ("gen-corpus", "--per-class", "١٢", 2),
    ("gen-corpus", "--seed", " 3", 2),
    ("train-base", "--d-e", "+256", 2),
    ("eval", "--d-f", "3_2", 2),
    ("eval", "--steps", "٤٠", 2),
], ids=["classes-underscore", "classes-sign", "classes-arabic-indic", "classes-space",
        "new-class-sign", "n-classes-underscore", "per-class-arabic-indic", "seed-space",
        "d-e-sign", "d-f-underscore", "steps-arabic-indic"])
def test_integer_flags_take_ascii_digits_alone(workdir, capsys, tmp_path, command, flag, value,
                                              code):
    # int() would take every one of these; a flag given twice keeps its last value.
    corpus, out = str(workdir / "corpus.jsonl"), str(tmp_path / "out")
    argv = {
        "gen-corpus": ["gen-corpus", "--corpus", out],
        "train-base": ["train-base", "--corpus", corpus, "--classes", "0", "--state-out", out],
        "update": ["update", "--state", str(tmp_path / "missing.json"), "--corpus", corpus,
                   "--new-class", "2", "--state-out", out],
        "eval": ["eval", "--corpus", corpus, "--report-out", out],
    }[command] + [flag, value]
    try:
        exit_code = main(argv)
    except SystemExit as exc:  # argparse refuses a value it could not convert
        exit_code = exc.code
    assert exit_code == code
    assert flag in json.loads(capsys.readouterr().err.strip())["error"]
    assert not (tmp_path / "out").exists()


def test_update_rejects_same_input_and_output_path(workdir, capsys):
    base = str(workdir / "base.json")
    code, _, err = _run(capsys, ["update", "--state", base,
                                 "--corpus", str(workdir / "corpus.jsonl"),
                                 "--new-class", "2", "--state-out", base])
    assert code == 1
    assert "untouched" in json.loads(err.strip())["error"]


# -- route ----------------------------------------------------------------------


def test_route_training_instruction_hits_its_class(workdir, capsys):
    records = read_corpus(workdir / "corpus.jsonl")
    text = next(r.text for r in records if r.task_id == 0 and r.split == "train")
    code, out, _ = _run(capsys, ["route", "--state", str(workdir / "base.json"), text])
    assert code == 0
    result = json.loads(out.strip())
    assert result["task_id"] == 0
    assert result["missing_executor"] is True
    assert abs(sum(result["probabilities"]) - 1.0) <= 1e-12
    assert result["latency_micros"] >= 0


def test_route_empty_text_is_total(workdir, capsys):
    code, out, _ = _run(capsys, ["route", "--state", str(workdir / "base.json"), ""])
    assert code == 0
    result = json.loads(out.strip())
    assert result["task_id"] in (0, 1)
    assert abs(sum(result["probabilities"]) - 1.0) <= 1e-12


def test_route_executes_registered_executor(workdir, capsys, tmp_path):
    manifest = tmp_path / "registry.json"
    registry = ExecutorRegistry(
        ExecutorSpec(task_id=i, name=f"exec-{i}", action_dim=7, horizon=8)
        for i in range(2)
    )
    save_manifest(registry, manifest)
    records = read_corpus(workdir / "corpus.jsonl")
    text = next(r.text for r in records if r.task_id == 1 and r.split == "train")
    code, out, _ = _run(capsys, ["route", "--state", str(workdir / "base.json"),
                                 "--registry", str(manifest), text])
    assert code == 0
    result = json.loads(out.strip())
    assert result["task_id"] == 1
    assert result["missing_executor"] is False
    assert result["executor_name"] == "exec-1"
    chunk = np.array(result["action_chunk"])
    assert chunk.shape == (8, 7)


def test_route_missing_state_file_fails_cleanly(capsys, tmp_path):
    code, _, err = _run(capsys, ["route", "--state", str(tmp_path / "nope.json"), "hi"])
    assert code == 1
    assert "error" in json.loads(err.strip())


# -- eval ------------------------------------------------------------------------


def test_eval_writes_json_and_table(workdir, capsys, tmp_path):
    report_out = tmp_path / "report.json"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"base_classes": [0, 1],
                                "incremental_classes": [2, 3]}))
    code, out, _ = _run(capsys, ["eval", "--corpus", str(workdir / "corpus.jsonl"),
                                 "--plan", str(plan), "--report-out", str(report_out),
                                 "--d-e", str(D_E), "--d-f", str(D_F),
                                 "--seed", str(SEED)])
    assert code == 0
    doc = json.loads(report_out.read_text())
    assert len(doc["phases"]) == 3
    assert "baseline" not in doc
    table = (tmp_path / "report.txt").read_text()
    assert "Base training" in table and "IL Phase 2" in table
    assert "Base training" in out


def test_eval_baseline_flag_adds_second_report(workdir, capsys, tmp_path):
    report_out = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["eval", "--corpus", str(workdir / "corpus.jsonl"),
                                 "--report-out", str(report_out), "--baseline",
                                 "--steps", "40", "--d-e", str(D_E),
                                 "--d-f", str(D_F), "--seed", str(SEED)])
    assert code == 0
    doc = json.loads(report_out.read_text())
    assert "baseline" in doc
    assert len(doc["baseline"]["forgetting"]) == len(doc["forgetting"])
    assert "Sequential gradient baseline" in out


def test_eval_baseline_refuses_a_nan_learning_rate(workdir, capsys, tmp_path):
    report_out = tmp_path / "report.json"
    code, _, err = _run(capsys, ["eval", "--corpus", str(workdir / "corpus.jsonl"),
                                 "--report-out", str(report_out), "--baseline",
                                 "--learning-rate", "nan", "--d-e", str(D_E),
                                 "--d-f", str(D_F), "--seed", str(SEED)])
    assert code == 1
    assert "learning_rate" in json.loads(err.strip())["error"]
    assert not report_out.exists()


def test_eval_baseline_checks_its_flags_before_the_router_protocol(
    workdir, capsys, tmp_path, monkeypatch
):
    def no_protocol(*args, **kwargs):
        raise AssertionError("run_protocol ran before the baseline flags were checked")

    monkeypatch.setattr("taskrouter.cli.run_protocol", no_protocol)
    code, _, err = _run(capsys, ["eval", "--corpus", str(workdir / "corpus.jsonl"),
                                 "--report-out", str(tmp_path / "report.json"), "--baseline",
                                 "--learning-rate", "nan", "--d-e", str(D_E),
                                 "--d-f", str(D_F), "--seed", str(SEED)])
    assert code == 1
    assert "learning_rate" in json.loads(err.strip())["error"]


def test_eval_rejects_invalid_plan_json(workdir, capsys, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text('{"base_classes": [0, 1],')
    code, _, err = _run(capsys, ["eval", "--corpus", str(workdir / "corpus.jsonl"),
                                 "--plan", str(plan),
                                 "--report-out", str(tmp_path / "r.json")])
    assert code == 1
    assert "line" in json.loads(err.strip())["error"]


def test_eval_rejects_unknown_plan_field(workdir, capsys, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"base_classes": [0, 1], "phases": 3}))
    code, _, err = _run(capsys, ["eval", "--corpus", str(workdir / "corpus.jsonl"),
                                 "--plan", str(plan),
                                 "--report-out", str(tmp_path / "r.json")])
    assert code == 1
    assert "phases" in json.loads(err.strip())["error"]


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"base_classes": [0, 1.9], "incremental_classes": [2, 3]}, "base_classes"),
        ({"base_classes": [0, 1], "incremental_classes": [2, "3"]}, "incremental_classes"),
        ({"base_classes": [0, 1], "incremental_classes": [2, True]}, "incremental_classes"),
        ({"base_classes": 0, "incremental_classes": [1, 2, 3]}, "base_classes"),
        ({"incremental_classes": [0, 1, 2, 3]}, "base_classes"),
        ([0, 1, 2, 3], "object"),
        # The split comes from the corpus; a plan cannot set it.
        ({"base_classes": [0, 1], "incremental_classes": [2, 3], "seed": 0},
         "unknown plan field(s) ['seed']"),
        ({"base_classes": [0, 1], "incremental_classes": [2, 3], "train_fraction": 0.8},
         "unknown plan field(s) ['train_fraction']"),
    ],
    ids=["float-id", "string-id", "bool-id", "not-a-list", "no-base", "not-an-object",
         "seed", "train-fraction"],
)
def test_eval_refuses_malformed_plans(workdir, capsys, tmp_path, doc, match):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["eval", "--corpus", str(workdir / "corpus.jsonl"),
                                 "--plan", str(plan),
                                 "--report-out", str(tmp_path / "r.json")])
    assert code == 1
    assert match in json.loads(err.strip())["error"]
    assert not (tmp_path / "r.json").exists()


# -- usage errors -------------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error" in json.loads(err.strip())


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["train-base", "--corpus", "x.jsonl"])
    assert excinfo.value.code == 2
