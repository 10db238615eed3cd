"""Command-line front end: corpus management, training, routing, eval, serving.

Every command is deterministic under fixed seeds, exits 0 on success and
nonzero on any error, and prints errors as a single machine-parsable JSON
line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import corpus as corpus_mod
from . import scheduler
from .atomic import write_atomic
from .checks import decimal, digits, json_fields, parse_json
from .evaluation import PhasePlan, baseline_sequential, run_protocol
from .features import ExpansionParams, FeaturizerConfig, featurize_batch
from .service import Router, parse_endpoint, serve_stdio, serve_tcp

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        print(json.dumps({"error": message}), file=sys.stderr)
        raise SystemExit(2)


def _add_featurizer_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gamma", type=decimal, default=1.0, help="ridge regulariser")
    sub.add_argument("--d-e", type=digits, default=1024, help="expanded feature dimension")
    sub.add_argument("--d-f", type=digits, default=64, help="raw embedding dimension")
    sub.add_argument("--seed", type=digits, default=0, help="featurizer and expansion seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="taskrouter",
        description=(
            "Replay-free continual-learning task router: closed-form ridge "
            "routing over hashed language features with exact recursive updates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen-corpus", help="generate a synthetic instruction corpus")
    gen.add_argument("--corpus", required=True, help="output JSONL path")
    gen.add_argument("--n-classes", type=digits, default=10)
    gen.add_argument("--per-class", type=digits, default=102)
    gen.add_argument("--seed", type=digits, default=0)
    gen.add_argument("--force", action="store_true", help="overwrite an existing file")
    gen.set_defaults(func=cmd_gen_corpus)

    train = sub.add_parser("train-base", help="closed-form fit on the base classes")
    train.add_argument("--corpus", required=True)
    train.add_argument("--classes", required=True, help="comma-separated task ids")
    train.add_argument("--state-out", required=True)
    _add_featurizer_flags(train)
    train.set_defaults(func=cmd_train_base)

    upd = sub.add_parser("update", help="absorb one new class without replay")
    upd.add_argument("--state", required=True, help="input state file (left untouched)")
    upd.add_argument("--corpus", required=True)
    upd.add_argument("--new-class", required=True)
    upd.add_argument("--state-out", required=True)
    upd.set_defaults(func=cmd_update)

    route = sub.add_parser("route", help="route one instruction to its executor")
    route.add_argument("--state", required=True)
    route.add_argument("--registry", default=None, help="executor manifest JSON")
    route.add_argument("text", help="the instruction to route")
    route.set_defaults(func=cmd_route)

    ev = sub.add_parser("eval", help="run the incremental protocol and report")
    ev.add_argument("--corpus", required=True)
    ev.add_argument("--plan", default=None, help="phase plan JSON file")
    ev.add_argument("--report-out", required=True, help="report JSON path")
    ev.add_argument("--baseline", action="store_true",
                    help="also run the sequential gradient baseline")
    ev.add_argument("--steps", type=digits, default=200, help="baseline GD steps per phase")
    ev.add_argument("--learning-rate", type=decimal, default=0.1)
    _add_featurizer_flags(ev)
    ev.set_defaults(func=cmd_eval)

    srv = sub.add_parser("serve", help="answer routing requests over a stream")
    srv.add_argument("--state", required=True)
    srv.add_argument("--registry", default=None)
    srv.add_argument("--endpoint", default="stdio", help="'stdio' or 'tcp:HOST:PORT'")
    srv.set_defaults(func=cmd_serve)

    return parser


def _parse_classes(text: str) -> list[int]:
    classes = [digits(part, "--classes ids") for part in text.split(",")]
    if len(set(classes)) != len(classes):
        raise ValueError("--classes contains duplicates")
    return classes


def _featurizer_from(args: argparse.Namespace) -> FeaturizerConfig:
    return FeaturizerConfig(seed=args.seed, d_f=args.d_f, d_e=args.d_e)


def _train_rows(records, classes: Sequence[int]):
    rows = [r for c in classes for r in records if r.task_id == c and r.split == "train"]
    trained = {r.task_id for r in rows}
    for c in classes:
        if c not in trained:
            raise ValueError(f"class {c} has no training rows in the corpus")
    return rows


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    records = corpus_mod.generate_synthetic_corpus(args.n_classes, args.per_class, args.seed)
    corpus_mod.write_corpus(records, args.corpus, force=args.force)
    print(json.dumps({
        "corpus": args.corpus,
        "records": len(records),
        "classes": args.n_classes,
    }))
    return 0


def _learn(args, state, records, classes: Sequence[int], destination: str | Path) -> int:
    """The learning step of train-base and update: absorb, save, print a summary.

    The train rows of ``classes`` are featurized with the state's own
    featurizer, the label space widens to cover them, and one
    :func:`scheduler.update` absorbs them.
    """
    rows = _train_rows(records, classes)
    params = ExpansionParams.for_config(state.featurizer)
    features = featurize_batch([r.text for r in rows], state.featurizer, params)
    if max(classes) + 1 > state.d_k:
        state = scheduler.expand_label_space(state, max(classes) + 1)
    labels = scheduler.one_hot([r.task_id for r in rows], state.d_k)
    state = scheduler.update(state, features, labels)
    scheduler.save_state(state, destination)
    print(json.dumps({"state": args.state_out, "d_K": state.d_k, "rows": len(rows)}))
    return 0


def cmd_train_base(args: argparse.Namespace) -> int:
    records = corpus_mod.read_corpus(args.corpus)
    classes = _parse_classes(args.classes)
    config = _featurizer_from(args)
    # A fresh state plus one update is exactly scheduler.fit_base.
    state = scheduler.init(config.d_e, args.gamma, featurizer=config)
    return _learn(args, state, records, classes, args.state_out)


def cmd_update(args: argparse.Namespace) -> int:
    new_class = digits(args.new_class, "--new-class")
    state_in = Path(args.state).resolve()
    state_out = Path(args.state_out).resolve()
    if state_in == state_out:
        raise ValueError("--state-out must differ from --state; input files stay untouched")
    state = scheduler.load_state(state_in)
    if state.featurizer is None:
        raise ValueError("state has no featurizer config; cannot featurize a text corpus")
    records = corpus_mod.read_corpus(args.corpus)
    if new_class < state.d_k and np.any(state.Z[:, new_class] != 0.0):
        raise ValueError(f"class {new_class} is already trained in this state")
    return _learn(args, state, records, [new_class], state_out)


def cmd_route(args: argparse.Namespace) -> int:
    router = Router.from_files(args.state, args.registry)
    result = router.route(args.text)
    print(json.dumps(result.to_json_dict()))
    return 0


def _load_plan(path: str) -> PhasePlan:
    try:
        doc = parse_json(Path(path).read_bytes(), "invalid plan JSON")
        return PhasePlan(**json_fields(doc, "plan", ("base_classes",), ("incremental_classes",)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _default_plan(records) -> PhasePlan:
    classes = sorted({r.task_id for r in records})
    if len(classes) < 2:
        raise ValueError("need at least 2 classes for the protocol")
    half = len(classes) // 2
    return PhasePlan(
        base_classes=tuple(classes[:half]),
        incremental_classes=tuple(classes[half:]),
    )


def _table_path(report_out: Path) -> Path:
    candidate = report_out.with_suffix(".txt")
    if candidate == report_out:
        candidate = Path(str(report_out) + ".txt")
    return candidate


def cmd_eval(args: argparse.Namespace) -> int:
    records = corpus_mod.read_corpus(args.corpus)
    plan = _load_plan(args.plan) if args.plan is not None else _default_plan(records)
    config = _featurizer_from(args)
    # The baseline runs first, so a bad --steps or --learning-rate is refused
    # before the router protocol's work; the two runs are independent.
    base_report = None
    if args.baseline:
        base_report = baseline_sequential(records, plan, config, steps=args.steps,
                                          learning_rate=args.learning_rate)
    report = run_protocol(records, plan, config, gamma=args.gamma)
    doc = report.to_json_dict()
    tables = [report.to_table()]
    if base_report is not None:
        doc["baseline"] = base_report.to_json_dict()
        tables.append("Sequential gradient baseline\n" + base_report.to_table())

    report_out = Path(args.report_out)
    write_atomic(report_out, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))
    table_text = "\n\n".join(tables) + "\n"
    write_atomic(_table_path(report_out), table_text.encode("utf-8"))
    print(table_text, end="")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    kind, host, port = parse_endpoint(args.endpoint)
    router = Router.from_files(args.state, args.registry)
    if kind == "stdio":
        serve_stdio(router, sys.stdin.buffer, sys.stdout.buffer)
    else:
        serve_tcp(router, host, port, ready_stream=sys.stdout)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
