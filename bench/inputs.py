"""Seeded input generators. The same seed always yields the same inputs.

Everything is derived from ``--seed`` and the in-repo ``corpus.THEMES``; the
program under test only ever receives the generated corpus, state, registry
and request lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from taskrouter.corpus import THEMES, InstructionRecord, generate_synthetic_corpus
from taskrouter.library import ExecutorRegistry, ExecutorSpec

N_CLASSES = len(THEMES)
N_BASE = N_CLASSES // 2

# route_tcp: held-out texts, some lengthened to 30-60 tokens by joining
# same-class instructions, some carrying typo tokens never seen in training.
ROUTE_PER_CLASS = 102
ROUTE_POOL = 8000
LONG_SHARE = 0.3
TYPO_SHARE = 0.3
LONG_TOKENS = (30, 60)

# absorb_stream: how many stream classes arrive as one full-class batch; the
# rest trickle in as batches of 1-4 rows. With 240 training rows per class
# every theme routes well above the 95% held-out check; with the corpus
# default of 82, the book theme sits at 95-98% and the check fails on some
# seeds by chance.
ABSORB_PER_CLASS = 300
FULL_CLASS_BATCHES = 3
SMALL_BATCH_ROWS = (1, 4)

# protocol path: all themes, several hundred texts per class, tokens dropped
# and swapped for tokens of another class's lexicon.
PROTOCOL_PER_CLASS = 300
DROP = 0.2
SWAP = 0.2

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(stream.encode(), "little")])


def class_order(seed: int) -> list[int]:
    """A seeded permutation of the theme ids: base classes first, then the rest."""
    return [int(c) for c in _rng(seed, "order").permutation(N_CLASSES)]


def registry(seed: int) -> ExecutorRegistry:
    """One stub executor per class."""
    rng = _rng(seed, "registry")
    return ExecutorRegistry(
        ExecutorSpec(
            task_id=c,
            name=f"exec-{THEMES[c].name}",
            action_dim=7,
            horizon=16,
            seed=int(rng.integers(1 << 31)),
            amplitude=float(rng.uniform(0.5, 1.5)),
        )
        for c in range(N_CLASSES)
    )


def _vocabulary(records) -> set[str]:
    return {token for r in records for token in r.text.split()}


def _typo(word: str, rng: np.random.Generator, vocab: set[str]) -> str:
    while True:
        chars = list(word)
        chars[int(rng.integers(len(chars)))] = str(rng.choice(_LETTERS))
        chars.insert(int(rng.integers(len(chars) + 1)), str(rng.choice(_LETTERS)))
        candidate = "".join(chars)
        if candidate not in vocab:
            return candidate


@dataclass(frozen=True)
class RouteInputs:
    train: list[InstructionRecord]
    texts: list[str]
    long_count: int
    typo_count: int


def route_inputs(seed: int, pool: int = ROUTE_POOL) -> RouteInputs:
    records = generate_synthetic_corpus(N_CLASSES, ROUTE_PER_CLASS, seed)
    train = [r for r in records if r.split == "train"]
    held_out: dict[int, list[str]] = {}
    for r in records:
        if r.split == "test":
            held_out.setdefault(r.task_id, []).append(r.text)
    vocab = _vocabulary(train)
    rng = _rng(seed, "route")
    texts = []
    long_count = typo_count = 0
    for _ in range(pool):
        options = held_out[int(rng.integers(N_CLASSES))]
        words = options[int(rng.integers(len(options)))].split()
        if rng.random() < LONG_SHARE:
            target = int(rng.integers(LONG_TOKENS[0], LONG_TOKENS[1] + 1))
            while len(words) < target:
                more = options[int(rng.integers(len(options)))].split()
                if len(words) + len(more) > LONG_TOKENS[1]:
                    if len(words) >= LONG_TOKENS[0]:
                        break
                    more = more[: LONG_TOKENS[1] - len(words)]
                words = words + more
            long_count += 1
        if rng.random() < TYPO_SHARE:
            for _ in range(int(rng.integers(1, 3))):
                i = int(rng.integers(len(words)))
                words[i] = _typo(words[i], rng, vocab)
            typo_count += 1
        texts.append(" ".join(words))
    return RouteInputs(train, texts, long_count, typo_count)


@dataclass(frozen=True)
class AbsorbInputs:
    """Records relabelled in arrival order: base classes 0..5, then 6..11."""

    base: list[InstructionRecord]
    stream_rows: list[InstructionRecord]
    batches: list[list[int]]  # indices into stream_rows, one class per batch
    held_out: list[InstructionRecord]


def absorb_inputs(seed: int) -> AbsorbInputs:
    order = class_order(seed)
    label = {theme: i for i, theme in enumerate(order)}
    records = [
        InstructionRecord(r.text, label[r.task_id], r.split)
        for r in generate_synthetic_corpus(N_CLASSES, ABSORB_PER_CLASS, seed)
    ]
    base = [r for r in records if r.split == "train" and r.task_id < N_BASE]
    held_out = [r for r in records if r.split == "test"]
    stream_rows: list[InstructionRecord] = []
    batches: list[list[int]] = []
    rng = _rng(seed, "absorb")
    full = set(rng.choice(np.arange(N_BASE, N_CLASSES), FULL_CLASS_BATCHES, replace=False))
    for c in range(N_BASE, N_CLASSES):
        rows = [r for r in records if r.split == "train" and r.task_id == c]
        first = len(stream_rows)
        stream_rows.extend(rows)
        if c in full:
            batches.append(list(range(first, first + len(rows))))
            continue
        start = 0
        while start < len(rows):
            size = int(rng.integers(SMALL_BATCH_ROWS[0], SMALL_BATCH_ROWS[1] + 1))
            batches.append(list(range(first + start, first + min(start + size, len(rows)))))
            start += size
    return AbsorbInputs(base, stream_rows, batches, held_out)


def add_noise(records, seed: int):
    """Drop each token with probability ``DROP``; swap it for a token of another
    class's lexicon with probability ``SWAP``. At least one token survives."""
    lexicons = [
        sorted({w for phrase in t.verbs + t.objects + t.placements for w in phrase.split()})
        for t in THEMES
    ]
    rng = _rng(seed, "noise")
    out = []
    for r in records:
        words = r.text.split()
        kept = []
        for word in words:
            u = rng.random()
            if u < DROP:
                continue
            if u < DROP + SWAP:
                other = int(rng.integers(N_CLASSES - 1))
                other += other >= r.task_id
                lexicon = lexicons[other]
                word = lexicon[int(rng.integers(len(lexicon)))]
            kept.append(word)
        out.append(InstructionRecord(" ".join(kept or words[:1]), r.task_id, r.split))
    return out


def protocol_corpus(seed: int):
    """The noisy 12-theme corpus and its phase plan (seeded base classes)."""
    from taskrouter.evaluation import PhasePlan

    order = class_order(seed)
    plan = PhasePlan(base_classes=tuple(order[:N_BASE]), incremental_classes=tuple(order[N_BASE:]))
    return add_noise(generate_synthetic_corpus(N_CLASSES, PROTOCOL_PER_CLASS, seed), seed), plan
