"""Tests of the benchmark's own helpers: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from common import (
    SRC,
    Span,
    Tracer,
    covered,
    min_samples,
    percentile,
    self_times,
)

sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import protocol  # noqa: E402


@pytest.mark.parametrize("q, n", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, n):
    assert min_samples(q) == n
    values = list(range(n))
    got = percentile(values, q)
    assert sum(v > got for v in values) == 10
    with pytest.raises(ValueError):
        percentile(values[:-1], q)


def test_percentile_is_nearest_rank_and_order_free():
    values = [float(v) for v in range(1, 201)]
    assert percentile(values, 50) == 100.0
    assert percentile(values, 90) == 180.0
    assert percentile(list(reversed(values)), 90) == 180.0


def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, None)


def test_covered_merges_overlaps():
    assert covered([(1, 3), (2, 5), (6, 7)]) == 5
    assert covered([(0, 10), (2, 3)]) == 10
    assert covered([]) == 0


def test_self_time_subtracts_only_direct_children_inside_the_parent():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps its sibling
        _span(3, 2.5, 2.75, parent=2),  # a grandchild of 0
        _span(4, 9.0, 12.0, parent=0),  # runs past its parent's end
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert got[2] == pytest.approx(3.0 - 0.25)
    assert got[3] == pytest.approx(0.25)


def test_tracer_records_parents_and_request_ids():
    tracer = Tracer()
    tracer.request_id = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        tracer.wrap("wrapped", lambda: None)()
    outer, inner, wrapped = tracer.spans
    assert (outer.parent, inner.parent, wrapped.parent) == (None, 0, 0)
    assert {s.request for s in tracer.spans} == {7}
    assert outer.start <= inner.start <= inner.end <= wrapped.start <= outer.end


def test_route_inputs_are_a_function_of_the_seed():
    a, b = inputs.route_inputs(1, pool=300), inputs.route_inputs(1, pool=300)
    assert a.texts == b.texts and a.train == b.train
    assert inputs.route_inputs(2, pool=300).texts != a.texts
    vocab = {w for r in a.train for w in r.text.split()}
    unseen = [t for t in a.texts if any(w not in vocab for w in t.split())]
    assert len(unseen) == a.typo_count > 0
    lengths = [len(t.split()) for t in a.texts]
    assert sum(n >= inputs.LONG_TOKENS[0] for n in lengths) >= a.long_count > 0
    assert max(lengths) <= inputs.LONG_TOKENS[1]


def test_batch_stream_is_seeded_and_covers_every_row_once():
    a, b = inputs.absorb_inputs(3), inputs.absorb_inputs(3)
    assert a.batches == b.batches and a.stream_rows == b.stream_rows
    assert inputs.absorb_inputs(4).batches != a.batches
    flat = [i for batch in a.batches for i in batch]
    assert sorted(flat) == list(range(len(a.stream_rows)))
    assert len(a.batches) >= min_samples(90)
    for batch in a.batches:
        assert len({a.stream_rows[i].task_id for i in batch}) == 1
    full = [bt for bt in a.batches if len(bt) > inputs.SMALL_BATCH_ROWS[1]]
    assert len(full) == inputs.FULL_CLASS_BATCHES
    assert {r.task_id for r in a.base} == set(range(inputs.N_BASE))


def test_noise_is_seeded_and_keeps_labels_and_splits():
    from taskrouter.corpus import generate_synthetic_corpus

    noisy, plan = inputs.protocol_corpus(5)
    again, _ = inputs.protocol_corpus(5)
    other, _ = inputs.protocol_corpus(6)
    assert noisy == again
    assert [r.text for r in other] != [r.text for r in noisy]
    clean = generate_synthetic_corpus(inputs.N_CLASSES, inputs.PROTOCOL_PER_CLASS, 5)
    assert [(r.task_id, r.split) for r in noisy] == [(r.task_id, r.split) for r in clean]
    changed = sum(a.text != b.text for a, b in zip(noisy, clean))
    assert changed > 0.8 * len(clean)
    assert all(r.text for r in noisy)
    assert sorted(plan.all_classes) == list(range(inputs.N_CLASSES))


def _reads(features, passed):
    reads = protocol.TrainingReads()
    reads.features = features
    reads.passed = passed
    return reads


def test_training_reads_match_rows_by_content():
    from taskrouter.corpus import InstructionRecord

    corpus = [InstructionRecord(f"t{i}", 0, s) for i, s in enumerate("train train test train".split())]
    features = np.eye(4)
    assert _reads(features, [features[[0, 1]], features[[3]]]).once(corpus)
    assert not _reads(features, [features[[0, 1]], features[[3, 0]]]).once(corpus)  # replay
    assert not _reads(features, [features[[0, 1]]]).once(corpus)  # a row never read
    assert not _reads(features, [features[[0, 1, 2, 3]]]).once(corpus)  # a test row
    assert not _reads(None, []).once(corpus)


def test_training_reads_watch_run_protocol_from_outside():
    from taskrouter import evaluation
    from taskrouter.corpus import generate_synthetic_corpus
    from taskrouter.features import FeaturizerConfig

    originals = (evaluation.featurize_batch, evaluation.fit_base, evaluation.update)
    corpus = generate_synthetic_corpus(3, 12, 0)
    plan = evaluation.PhasePlan(base_classes=(0,), incremental_classes=(1, 2))
    with protocol.TrainingReads().watching() as reads:
        report = evaluation.run_protocol(corpus, plan, FeaturizerConfig())
    assert (evaluation.featurize_batch, evaluation.fit_base, evaluation.update) == originals
    assert reads.once(corpus)
    assert reads.total == report.training_reads["total_reads"]
    replayed = report.final_state
    with reads.watching():
        label = np.zeros((1, replayed.d_k))
        label[0, 0] = 1.0
        evaluation.update(replayed, reads.passed[0][:1], label)
    assert not reads.once(corpus)
