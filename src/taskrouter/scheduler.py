"""Closed-form ridge routing core with exact replay-free recursive updates.

The learner keeps two sufficient statistics over expanded features: R, the
inverse of the regularised Gram matrix, and Q, the feature/label moment
matrix. The routing weights are always W = R Q. Absorbing a new task batch
downdates R through the matrix-inversion lemma, so no past training row is
ever needed again, and the sequential solution matches the joint ridge
solution to rounding error.

Numerical conventions, all load-bearing for the equivalence guarantees:

* everything is float64;
* the regulariser gamma enters exactly once, at initialisation (R0 = I/gamma);
  updates add no fresh regularisation;
* the inner (I + F R Fᵀ) system is solved through a Cholesky factorisation,
  and batches wider than ``chunk_rows`` are absorbed as successive
  sub-updates, which is exact up to rounding;
* every change to R is a product Cᵀ C, which BLAS forms from one triangle,
  so R stays exactly symmetric; symmetry is checked only in
  :func:`load_state`, where R comes from outside the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, solve_triangular

from .features import FeaturizerConfig

__all__ = [
    "STATE_VERSION",
    "DEFAULT_CHUNK_ROWS",
    "NumericalError",
    "StateFormatError",
    "SchedulerState",
    "one_hot",
    "init",
    "fit_base",
    "update",
    "expand_label_space",
    "predict_proba",
    "predict",
    "state_document",
    "save_state",
    "load_state",
]

STATE_VERSION = 1
DEFAULT_CHUNK_ROWS = 512

# Largest elementwise asymmetry tolerated in an R read from a state file.
_SYMMETRY_TOL = 1e-9


class NumericalError(RuntimeError):
    """The inner update system could not be factorised; features are pathological."""


class StateFormatError(ValueError):
    """A persisted state document is malformed, truncated, or inconsistent."""


@dataclass(frozen=True)
class SchedulerState:
    """Sufficient statistics of the router plus the featurization it expects.

    ``R`` (d_e x d_e) is the inverse regularised Gram matrix, ``Q``
    (d_e x d_k) the feature/label moment matrix, and ``W = R Q`` the routing
    weights. ``featurizer`` and ``expansion_seed`` record how inputs must be
    featurized and may be absent for states driven with raw feature matrices.
    """

    R: np.ndarray
    Q: np.ndarray
    W: np.ndarray
    gamma: float
    d_e: int
    d_k: int
    tasks_seen: int = 0
    featurizer: FeaturizerConfig | None = None
    expansion_seed: int | None = None

    def __post_init__(self) -> None:
        if self.gamma <= 0 or not np.isfinite(self.gamma):
            raise ValueError("gamma must be a positive finite float")
        if self.R.shape != (self.d_e, self.d_e):
            raise ValueError("R must be square with side d_e")
        if self.Q.shape != (self.d_e, self.d_k) or self.W.shape != (self.d_e, self.d_k):
            raise ValueError("Q and W must have shape (d_e, d_k)")
        for name, arr in (("R", self.R), ("Q", self.Q), ("W", self.W)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
        if self.tasks_seen < 0:
            raise ValueError("tasks_seen must be non-negative")
        if self.featurizer is not None and self.featurizer.d_e != self.d_e:
            raise ValueError("featurizer d_e disagrees with the state's d_e")


def _freeze(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


def _as_feature_matrix(features: np.ndarray) -> np.ndarray:
    mat = np.asarray(features, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] < 1:
        raise ValueError("features must be a 2-D matrix with at least one row")
    if not np.isfinite(mat).all():
        raise ValueError("features contain non-finite values")
    return mat


def _as_label_matrix(labels: np.ndarray, n_rows: int) -> np.ndarray:
    mat = np.asarray(labels, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("labels must be a 2-D one-hot matrix")
    if mat.shape[0] != n_rows:
        raise ValueError(
            f"label rows ({mat.shape[0]}) do not match feature rows ({n_rows})"
        )
    if mat.shape[1] < 1:
        raise ValueError("labels must have at least one class column")
    onehot = (mat == 0.0) | (mat == 1.0)
    if not onehot.all() or not (mat.sum(axis=1) == 1.0).all():
        raise ValueError("labels must be one-hot: exactly one 1 per row")
    return mat


def one_hot(class_ids, num_classes: int) -> np.ndarray:
    """One-hot encode integer class ids into an (n, num_classes) float matrix."""
    ids = np.asarray(class_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("class_ids must be 1-D")
    if num_classes < 1:
        raise ValueError("num_classes must be positive")
    if ids.size and (ids.min() < 0 or ids.max() >= num_classes):
        raise ValueError("class ids must lie in [0, num_classes)")
    out = np.zeros((ids.size, num_classes), dtype=np.float64)
    out[np.arange(ids.size), ids] = 1.0
    return out


def init(
    d_e: int,
    gamma: float,
    *,
    featurizer: FeaturizerConfig | None = None,
    expansion_seed: int | None = None,
) -> SchedulerState:
    """Fresh, classless state: R = I/gamma, empty Q and W."""
    if d_e <= 0:
        raise ValueError("d_e must be positive")
    if gamma <= 0 or not np.isfinite(gamma):
        raise ValueError("gamma must be a positive finite float")
    r = np.eye(d_e) / gamma
    q = np.zeros((d_e, 0))
    w = np.zeros((d_e, 0))
    _freeze(r, q, w)
    return SchedulerState(
        R=r,
        Q=q,
        W=w,
        gamma=float(gamma),
        d_e=d_e,
        d_k=0,
        tasks_seen=0,
        featurizer=featurizer,
        expansion_seed=expansion_seed,
    )


def fit_base(
    features: np.ndarray,
    labels: np.ndarray,
    gamma: float,
    *,
    featurizer: FeaturizerConfig | None = None,
    expansion_seed: int | None = None,
) -> SchedulerState:
    """Closed-form ridge fit over the whole base batch.

    W = (FᵀF + gamma I)^{-1} FᵀY; R and Q are stored so later batches can be
    absorbed without this data.
    """
    if gamma <= 0 or not np.isfinite(gamma):
        raise ValueError("gamma must be a positive finite float")
    feats = _as_feature_matrix(features)
    lab = _as_label_matrix(labels, feats.shape[0])
    d_e = feats.shape[1]
    gram = feats.T @ feats + gamma * np.eye(d_e)
    try:
        lower, _ = cho_factor(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"regularised Gram matrix is not factorisable: {exc}") from exc
    # gram = L Lᵀ, so R = gram⁻¹ = Cᵀ C with C = L⁻¹.
    c = solve_triangular(lower, np.eye(d_e), lower=True)
    r = c.T @ c
    q = feats.T @ lab
    w = r @ q
    _freeze(r, q, w)
    return SchedulerState(
        R=r,
        Q=q,
        W=w,
        gamma=float(gamma),
        d_e=d_e,
        d_k=lab.shape[1],
        tasks_seen=1,
        featurizer=featurizer,
        expansion_seed=expansion_seed,
    )


def update(
    state: SchedulerState,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> SchedulerState:
    """Absorb one task batch without touching any historical data.

    R is downdated via the matrix-inversion lemma, Q accumulates FᵀY, and W
    is recomputed as R Q. Labels may be narrower than the current class count
    (they are zero-padded on the right); widen with
    :func:`expand_label_space` before introducing new classes.
    """
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be positive")
    feats = _as_feature_matrix(features)
    if feats.shape[1] != state.d_e:
        raise ValueError(
            f"features have width {feats.shape[1]}, state expects {state.d_e}"
        )
    lab = _as_label_matrix(labels, feats.shape[0])
    if lab.shape[1] > state.d_k:
        raise ValueError(
            f"labels cover {lab.shape[1]} classes but the state only has "
            f"{state.d_k}; call expand_label_space first"
        )
    if lab.shape[1] < state.d_k:
        lab = np.hstack([lab, np.zeros((lab.shape[0], state.d_k - lab.shape[1]))])

    r = state.R
    for start in range(0, feats.shape[0], chunk_rows):
        chunk = feats[start : start + chunk_rows]
        b = chunk @ r
        # cho_factor reads only the lower triangle of the inner system.
        inner = np.eye(chunk.shape[0]) + b @ chunk.T
        try:
            lower, _ = cho_factor(inner, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "inner update system is numerically singular; "
                "the feature batch is pathological"
            ) from exc
        # inner = L Lᵀ, so Bᵀ inner⁻¹ B = Cᵀ C with C = L⁻¹ B.
        c = solve_triangular(lower, b, lower=True)
        # Subtracting into the product's buffer keeps one d_e x d_e allocation
        # per chunk; a second one let the allocator return heap memory and
        # fault it back in on some updates and not others.
        downdate = c.T @ c
        r = np.subtract(r, downdate, out=downdate)

    q = state.Q + feats.T @ lab
    w = r @ q
    _freeze(r, q, w)
    return replace(state, R=r, Q=q, W=w, tasks_seen=state.tasks_seen + 1)


def expand_label_space(state: SchedulerState, new_d_k: int) -> SchedulerState:
    """Widen Q and W with zero columns for classes not yet seen.

    R is untouched, and zero columns add zero logits, so predictions for
    existing classes are bit-identical before and after.
    """
    if new_d_k <= state.d_k:
        raise ValueError(
            f"new class count ({new_d_k}) must exceed the current one ({state.d_k})"
        )
    pad = np.zeros((state.d_e, new_d_k - state.d_k))
    q = np.hstack([state.Q, pad])
    w = np.hstack([state.W, pad])
    _freeze(q, w)
    return replace(state, Q=q, W=w, d_k=new_d_k)


def predict_proba(state: SchedulerState, expanded: np.ndarray) -> np.ndarray:
    """Softmax over the linear logits ``expanded @ W``.

    Accepts a single d_e vector or an (n, d_e) matrix; the result matches the
    input's leading shape. Computed with max-subtraction so huge logits
    cannot overflow.
    """
    if state.d_k < 1:
        raise ValueError("state has no classes yet")
    x = np.asarray(expanded, dtype=np.float64)
    single = x.ndim == 1
    mat = np.atleast_2d(x)
    if mat.shape[1] != state.d_e:
        raise ValueError(f"expected feature width {state.d_e}, got {mat.shape[1]}")
    logits = mat @ state.W
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs[0] if single else probs


def predict(state: SchedulerState, expanded: np.ndarray):
    """Most probable task id; exact ties resolve to the lowest class index."""
    probs = predict_proba(state, expanded)
    if probs.ndim == 1:
        return int(np.argmax(probs))
    return np.argmax(probs, axis=1)


def state_document(state: SchedulerState) -> dict:
    """The JSON-serialisable form of a state, with a fixed key order."""
    return {
        "version": STATE_VERSION,
        "d_e": state.d_e,
        "d_K": state.d_k,
        "gamma": state.gamma,
        "tasks_seen": state.tasks_seen,
        "featurizer": None if state.featurizer is None else state.featurizer.to_dict(),
        "expansion_seed": state.expansion_seed,
        "R": state.R.tolist(),
        "Q": state.Q.tolist(),
    }


def save_state(state: SchedulerState, destination: str | Path) -> None:
    """Write the state as a single JSON document.

    Floats are rendered with Python's shortest round-trip repr, so a
    save/load/save cycle is byte-identical and R and Q survive bit-exactly.
    W is not stored; it is recomputed from R Q on load.
    """
    text = json.dumps(state_document(state), separators=(",", ":"))
    Path(destination).write_text(text + "\n", encoding="utf-8")


def _require(doc: dict, key: str):
    if key not in doc:
        raise StateFormatError(f"state document is missing key {key!r}")
    return doc[key]


def load_state(source: str | Path) -> SchedulerState:
    """Load a state document, validating shape and symmetry invariants."""
    try:
        doc = json.loads(Path(source).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StateFormatError(f"corrupt state document: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFormatError("state document must be a JSON object")
    version = _require(doc, "version")
    if version != STATE_VERSION:
        raise StateFormatError(
            f"unsupported state version {version!r} (expected {STATE_VERSION})"
        )
    d_e = _require(doc, "d_e")
    d_k = _require(doc, "d_K")
    gamma = _require(doc, "gamma")
    tasks_seen = _require(doc, "tasks_seen")
    if not isinstance(d_e, int) or not isinstance(d_k, int) or d_e <= 0 or d_k < 0:
        raise StateFormatError("d_e must be a positive and d_K a non-negative integer")
    if not isinstance(gamma, (int, float)) or not gamma > 0:
        raise StateFormatError("gamma must be a positive number")
    if not isinstance(tasks_seen, int) or tasks_seen < 0:
        raise StateFormatError("tasks_seen must be a non-negative integer")
    try:
        r = np.array(_require(doc, "R"), dtype=np.float64)
        q = np.array(_require(doc, "Q"), dtype=np.float64)
        if d_k == 0:
            q = q.reshape(d_e, 0)
    except (TypeError, ValueError) as exc:
        raise StateFormatError(f"R/Q arrays are malformed: {exc}") from exc
    if r.shape != (d_e, d_e):
        raise StateFormatError(f"R has shape {r.shape}, expected ({d_e}, {d_e})")
    if q.shape != (d_e, d_k):
        raise StateFormatError(f"Q has shape {q.shape}, expected ({d_e}, {d_k})")
    if not np.isfinite(r).all() or not np.isfinite(q).all():
        raise StateFormatError("R/Q contain non-finite values")
    asymmetry = float(np.abs(r - r.T).max())
    if asymmetry > _SYMMETRY_TOL:
        raise StateFormatError(
            f"R violates the symmetry invariant (asymmetry {asymmetry:.3e})"
        )
    raw_feat = _require(doc, "featurizer")
    featurizer = None
    if raw_feat is not None:
        if not isinstance(raw_feat, dict):
            raise StateFormatError("featurizer must be an object or null")
        try:
            featurizer = FeaturizerConfig.from_dict(raw_feat)
        except ValueError as exc:
            raise StateFormatError(str(exc)) from exc
    expansion_seed = _require(doc, "expansion_seed")
    if expansion_seed is not None and not isinstance(expansion_seed, int):
        raise StateFormatError("expansion_seed must be an integer or null")
    w = r @ q
    _freeze(r, q, w)
    try:
        return SchedulerState(
            R=r,
            Q=q,
            W=w,
            gamma=float(gamma),
            d_e=d_e,
            d_k=d_k,
            tasks_seen=tasks_seen,
            featurizer=featurizer,
            expansion_seed=expansion_seed,
        )
    except ValueError as exc:
        raise StateFormatError(str(exc)) from exc
