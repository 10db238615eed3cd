"""Language-to-feature pipeline: hashed token embeddings, pooling, ReLU expansion.

The featurizer stands in for a frozen pretrained text encoder. Tokens are
hashed into a fixed number of buckets and every bucket owns a fixed
pseudo-random embedding, so the whole pipeline is a pure function of the text
and the configuration: identical inputs always produce bit-identical feature
matrices. Pooled embeddings are widened by a frozen random projection
followed by ReLU, which raises the linear separability of the classes the
router has to tell apart.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .checks import check_int, json_fields

__all__ = [
    "EMPTY_TOKEN",
    "MAX_TOKENS",
    "FeaturizerConfig",
    "ExpansionParams",
    "tokenize",
    "embed_sequence",
    "mean_pool",
    "expand",
    "featurize_batch",
]

# Sentinel token for instructions that contain no alphanumeric characters, so
# every text of at most MAX_TOKENS tokens (one embedding row each) routes.
EMPTY_TOKEN = "<empty>"
MAX_TOKENS = 4096

_TOKEN_RE = re.compile(r"[0-9A-Za-z]+")

# Tokens hash into this many buckets, each owning one fixed embedding.
VOCAB_BUCKETS = 1 << 16


@dataclass(frozen=True)
class FeaturizerConfig:
    """Deterministic featurizer settings.

    Two equal configs featurize equal text bit-identically. The raw embedding
    dimension ``d_f`` must sit strictly below the expanded dimension ``d_e``.
    """

    seed: int = 0
    d_f: int = 64
    d_e: int = 1024

    def __post_init__(self) -> None:
        check_int(self.seed, "featurizer field 'seed'", 0, 2**64)
        for name in ("d_f", "d_e"):
            check_int(getattr(self, name), f"featurizer field {name!r}", 1)
        if not self.d_f < self.d_e:
            raise ValueError(
                f"raw dimension d_f={self.d_f} must be strictly smaller "
                f"than expanded dimension d_e={self.d_e}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "FeaturizerConfig":
        """Parse a config from a JSON object that holds every field and no other."""
        return cls(**json_fields(doc, "featurizer config", (f.name for f in fields(cls))))


@dataclass(frozen=True)
class ExpansionParams:
    """The d_f x d_e random projection that widens pooled features before ReLU.

    :meth:`create` draws it from a seed and makes it read-only where it is drawn.
    """

    projection: np.ndarray

    @classmethod
    def create(cls, seed: int, d_f: int, d_e: int) -> "ExpansionParams":
        """Deterministically regenerate the projection from (seed, d_f, d_e).

        Entries are N(0, 1/d_f); the same triple always yields the identical
        matrix, so a state's featurizer config fixes it.
        """
        check_int(seed, "seed", 0, 2**64)
        check_int(d_f, "d_f", 1)
        check_int(d_e, "d_e", 1)
        rng = np.random.default_rng([seed, d_f, d_e])
        projection = rng.standard_normal((d_f, d_e)) / math.sqrt(d_f)
        projection.setflags(write=False)
        return cls(projection=projection)

    @classmethod
    def for_config(cls, config: FeaturizerConfig) -> "ExpansionParams":
        """The projection a featurizer config expands with, made from its own seed."""
        return cls.create(config.seed, config.d_f, config.d_e)

    @property
    def d_f(self) -> int:
        return self.projection.shape[0]

    @property
    def d_e(self) -> int:
        return self.projection.shape[1]


def tokenize(text: str, config: FeaturizerConfig) -> list[str]:
    """Lowercase, then split on whitespace and punctuation; degenerate input yields the sentinel.

    The same string always maps to the same token sequence; over MAX_TOKENS tokens is refused.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if len(tokens) > MAX_TOKENS:
        raise ValueError(f"text has {len(tokens)} tokens; at most {MAX_TOKENS} are allowed")
    return tokens if tokens else [EMPTY_TOKEN]


def _bucket(token: str, seed: int) -> int:
    digest = hashlib.blake2b(
        token.encode("utf-8"),
        digest_size=8,
        key=seed.to_bytes(8, "little"),
    ).digest()
    return int.from_bytes(digest, "big") % VOCAB_BUCKETS


# The 16,184 texts of bench/inputs.py at seed 1 (route, absorb and protocol)
# hash into 3,667 buckets; 8,192 entries (about 7 MiB at d_f=64) hold them all.
@lru_cache(maxsize=1 << 13)
def _bucket_embedding(bucket: int, d_f: int) -> np.ndarray:
    # The bucket index seeds the vector; entries are standard normal scaled
    # by 1/sqrt(d_f) so the expected squared row norm is 1.
    rng = np.random.default_rng(bucket)
    vec = rng.standard_normal(d_f) / math.sqrt(d_f)
    vec.setflags(write=False)
    return vec


def embed_sequence(tokens: Sequence[str], config: FeaturizerConfig) -> np.ndarray:
    """Hash each token into a bucket and look up that bucket's fixed embedding.

    Row i of the ``(len(tokens), d_f)`` result embeds ``tokens[i]``.
    """
    if not tokens:
        raise ValueError("token sequence must be non-empty")
    rows = np.empty((len(tokens), config.d_f), dtype=np.float64)
    for i, token in enumerate(tokens):
        rows[i] = _bucket_embedding(_bucket(token, config.seed), config.d_f)
    return rows


def mean_pool(rows: np.ndarray) -> np.ndarray:
    """Average a ``(tokens, d_f)`` matrix over its token axis."""
    return rows.mean(axis=0)


def expand(pooled: np.ndarray, params: ExpansionParams) -> np.ndarray:
    """Project the pooled vector up to d_e dimensions and clip at zero."""
    pooled = np.asarray(pooled, dtype=np.float64)
    if pooled.shape != (params.d_f,):
        raise ValueError(
            f"pooled vector has shape {pooled.shape}, expected ({params.d_f},)"
        )
    return np.maximum(pooled @ params.projection, 0.0)


def featurize_batch(
    texts: Sequence[str], config: FeaturizerConfig, params: ExpansionParams
) -> np.ndarray:
    """Featurize many instructions; row i belongs to texts[i]."""
    if not texts:
        raise ValueError("at least one text is required")
    if (params.d_f, params.d_e) != (config.d_f, config.d_e):
        raise ValueError(
            f"expansion params are {params.d_f}x{params.d_e} but the config "
            f"expects {config.d_f}x{config.d_e}"
        )
    out = np.empty((len(texts), config.d_e), dtype=np.float64)
    for i, text in enumerate(texts):
        out[i] = expand(
            mean_pool(embed_sequence(tokenize(text, config), config)), params
        )
    return out
