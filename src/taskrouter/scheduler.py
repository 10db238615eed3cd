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
* every product on R (R = Cᵀ C, R − Cᵀ C) is one BLAS ``syrk`` into R's
  lower triangle, mirrored onto the upper one by :func:`_mirror_lower`, and
  a state file stores only that lower triangle, so R is exactly symmetric
  by construction, whatever kernel BLAS picks; no GEMM forms a product on R.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, solve_triangular
from scipy.linalg.blas import dsyrk

from .atomic import write_atomic
from .checks import check_int, check_number, is_int, json_fields
from .features import FeaturizerConfig

__all__ = [
    "STATE_VERSION",
    "HEADER_LIMIT",
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
    "payload_sha256",
    "save_state",
    "load_state",
]

STATE_VERSION = 3
DEFAULT_CHUNK_ROWS = 512

# Longest header line a state file may have, newline included. Real headers
# are a few hundred bytes; the bound keeps a corrupt file from being read
# whole in search of a newline.
HEADER_LIMIT = 1 << 16

# R's lower triangle and Q are stored as raw little-endian float64.
_PAYLOAD_DTYPE = np.dtype("<f8")

# Side of the square blocks _mirror_lower copies; a block and its transposed
# source (2 x 128 KiB of float64) stay in cache while it is read.
_MIRROR_BLOCK = 128
_STRICT_UPPER = np.triu(np.ones((_MIRROR_BLOCK, _MIRROR_BLOCK), dtype=bool), 1)
_STRICT_UPPER.setflags(write=False)


class NumericalError(RuntimeError):
    """A Gram or inner update system overflowed or is not factorisable: pathological features."""


class StateFormatError(ValueError):
    """A persisted state file is malformed, truncated, or inconsistent."""


@dataclass(frozen=True)
class SchedulerState:
    """Sufficient statistics of the router plus the featurization it expects.

    ``R`` (d_e x d_e) is the inverse regularised Gram matrix, ``Q``
    (d_e x d_k) the feature/label moment matrix, and ``W = R Q`` the routing
    weights; ``d_e`` and ``d_k`` are read from their shapes. ``featurizer``
    and ``expansion_seed`` record how inputs must be featurized and may be
    absent for states driven with raw feature matrices.
    """

    R: np.ndarray
    Q: np.ndarray
    W: np.ndarray
    gamma: float
    tasks_seen: int = 0
    featurizer: FeaturizerConfig | None = None
    expansion_seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", _as_gamma(self.gamma))
        if self.R.ndim != 2 or self.R.shape[0] != self.R.shape[1]:
            raise ValueError("R must be a square matrix")
        if self.Q.ndim != 2 or self.Q.shape[0] != self.d_e or self.W.shape != self.Q.shape:
            raise ValueError("Q and W must have shape (d_e, d_k)")
        for name, arr in (("R", self.R), ("Q", self.Q), ("W", self.W)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
        check_int(self.tasks_seen, "tasks_seen")
        if self.expansion_seed is not None:
            check_int(self.expansion_seed, "expansion_seed", 0, 2**64)
        if self.featurizer is not None and self.featurizer.d_e != self.d_e:
            raise ValueError("featurizer d_e disagrees with the state's d_e")

    @property
    def d_e(self) -> int:
        return self.R.shape[0]

    @property
    def d_k(self) -> int:
        return self.Q.shape[1]


def _as_gamma(gamma) -> float:
    """gamma as a float; refuses a bool, a non-number, and any value not positive and finite."""
    gamma = check_number(gamma, "gamma")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    return gamma


def _check_finite_system(system: np.ndarray, what: str) -> None:
    # Finite features can still overflow the products that form the system.
    if not np.isfinite(system).all():
        raise NumericalError(f"{what} overflows; the feature magnitudes are pathological")


def _mirror_lower(r: np.ndarray) -> None:
    """Copy the lower triangle of the C-ordered square ``r`` onto its upper one, in place.

    Works block by block, so each transposed read stays in cache; numpy's
    own triangle copies walk the whole matrix with a column stride.
    """
    n = r.shape[0]
    for i in range(0, n, _MIRROR_BLOCK):
        j = min(i + _MIRROR_BLOCK, n)
        diagonal = r[i:j, i:j]
        # copyto sees the overlap and reads from a copy of the block.
        np.copyto(diagonal, diagonal.T, where=_STRICT_UPPER[: j - i, : j - i])
        for a in range(j, n, _MIRROR_BLOCK):
            b = min(a + _MIRROR_BLOCK, n)
            r[i:j, a:b] = r[a:b, i:j].T


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
    check_int(num_classes, "num_classes", 1)
    ids = np.asarray(class_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("class_ids must be 1-D")
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
    check_int(d_e, "d_e", 1)
    gamma = _as_gamma(gamma)
    r = np.eye(d_e) / gamma
    q = np.zeros((d_e, 0))
    w = np.zeros((d_e, 0))
    _freeze(r, q, w)
    return SchedulerState(
        R=r,
        Q=q,
        W=w,
        gamma=gamma,
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
    gamma = _as_gamma(gamma)
    feats = _as_feature_matrix(features)
    lab = _as_label_matrix(labels, feats.shape[0])
    d_e = feats.shape[1]
    # FᵀF into the lower triangle of a Fortran-ordered array, the only one
    # cho_factor reads; the upper one stays zero. feats.T is F-ordered, so
    # BLAS reads feats without a copy.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = dsyrk(1.0, feats.T, lower=1)
        gram.flat[:: d_e + 1] += gamma
    _check_finite_system(gram, "regularised Gram matrix")
    try:
        lower, _ = cho_factor(gram, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"regularised Gram matrix is not factorisable: {exc}") from exc
    # gram = L Lᵀ, so R = gram⁻¹ = Cᵀ C with C = L⁻¹. The upper triangle of
    # the F-ordered product is the lower one of its C-ordered transpose.
    c = solve_triangular(lower, np.eye(d_e), lower=True)
    r = dsyrk(1.0, c, trans=1).T
    _mirror_lower(r)
    q = feats.T @ lab
    w = r @ q
    _freeze(r, q, w)
    return SchedulerState(
        R=r,
        Q=q,
        W=w,
        gamma=gamma,
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
    check_int(chunk_rows, "chunk_rows", 1)
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

    # One C-ordered copy per call; every chunk downdates it in place.
    r = np.array(state.R, dtype=np.float64, order="C")
    for start in range(0, feats.shape[0], chunk_rows):
        chunk = feats[start : start + chunk_rows]
        with np.errstate(over="ignore", invalid="ignore"):
            b = chunk @ r
            # cho_factor reads only the lower triangle of the inner system.
            inner = np.eye(chunk.shape[0]) + b @ chunk.T
        _check_finite_system(inner, "inner update system")
        try:
            lower, _ = cho_factor(inner, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "inner update system is numerically singular; "
                "the feature batch is pathological"
            ) from exc
        # inner = L Lᵀ, so Bᵀ inner⁻¹ B = Cᵀ C with C = L⁻¹ B.
        c = solve_triangular(lower, b, lower=True)
        # R − CᵀC into R's lower triangle, which is the upper one of the
        # F-ordered view r.T. syrk writes into r.T's buffer unless it has to
        # copy, so its return value, not r, holds the result either way.
        r = dsyrk(-1.0, c, beta=1.0, c=r.T, trans=1, overwrite_c=1).T
        _mirror_lower(r)

    q = state.Q + feats.T @ lab
    w = r @ q
    _freeze(r, q, w)
    return replace(state, R=r, Q=q, W=w, tasks_seen=state.tasks_seen + 1)


def expand_label_space(state: SchedulerState, new_d_k: int) -> SchedulerState:
    """Widen Q and W with zero columns for classes not yet seen.

    R is untouched, and zero columns add zero logits, so predictions for
    existing classes are bit-identical before and after.
    """
    check_int(new_d_k, "new_d_k")
    if new_d_k <= state.d_k:
        raise ValueError(
            f"new class count ({new_d_k}) must exceed the current one ({state.d_k})"
        )
    pad = np.zeros((state.d_e, new_d_k - state.d_k))
    q = np.hstack([state.Q, pad])
    w = np.hstack([state.W, pad])
    _freeze(q, w)
    return replace(state, Q=q, W=w)


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


def _parts(r: np.ndarray, q: np.ndarray) -> list[np.ndarray]:
    """The payload in file order, as views: each row of R up to its diagonal, then Q."""
    return [r[i, : i + 1] for i in range(r.shape[0])] + [q.reshape(-1)]


def _payload(state: SchedulerState) -> list[np.ndarray]:
    """The state's payload parts, copied only if R or Q is not C-ordered little-endian float64."""
    return _parts(
        np.ascontiguousarray(state.R, dtype=_PAYLOAD_DTYPE),
        np.ascontiguousarray(state.Q, dtype=_PAYLOAD_DTYPE),
    )


def _digest(parts: list[np.ndarray]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)  # hashes the array's buffer in place
    return digest.hexdigest()


def payload_sha256(state: SchedulerState) -> str:
    """Hex sha256 of the state's payload, as :func:`save_state` writes it.

    Equal states give equal digests, so it fingerprints which state a
    process holds.
    """
    return _digest(_payload(state))


def save_state(state: SchedulerState, destination: str | Path) -> None:
    """Write the state as one JSON header line followed by a raw payload.

    The header holds ``version``, ``d_e``, ``d_K``, ``gamma``,
    ``tasks_seen``, ``featurizer``, ``expansion_seed`` and the payload's
    ``payload_sha256``. The payload is each row of R up to its diagonal
    (``R[i, :i+1]``, row by row), then Q (d_e x d_K) in C order, as raw
    little-endian float64. R is symmetric, so its upper triangle is not
    stored, and W is not stored either; both are derived on load. Equal
    states give equal bytes, so a save/load/save cycle is byte-identical,
    and the file is replaced atomically.
    """
    parts = _payload(state)
    header = {
        "version": STATE_VERSION,
        "d_e": state.d_e,
        "d_K": state.d_k,
        "gamma": state.gamma,
        "tasks_seen": state.tasks_seen,
        "featurizer": None if state.featurizer is None else state.featurizer.to_dict(),
        "expansion_seed": state.expansion_seed,
        "payload_sha256": _digest(parts),
    }
    line = json.dumps(header, separators=(",", ":")) + "\n"
    write_atomic(destination, line.encode("utf-8"), *parts)


_HEADER_FIELDS = ("version", "d_e", "d_K", "gamma", "tasks_seen", "featurizer",
                  "expansion_seed", "payload_sha256")


def _unsupported_version(version) -> StateFormatError:
    return StateFormatError(
        f"unsupported state version {version!r} (expected {STATE_VERSION}); "
        "regenerate the state with train-base/update"
    )


def _read_header(handle) -> dict:
    line = handle.readline(HEADER_LIMIT)
    if not line.endswith(b"\n"):
        raise StateFormatError(
            f"state header is not a line of at most {HEADER_LIMIT} bytes"
        )
    try:
        header = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StateFormatError(f"corrupt state header: {exc}") from exc
    # The version decides the layout, so a header of another version is
    # refused as such before its keys are held against this version's.
    if isinstance(header, dict) and "version" in header:
        version = header["version"]
        if not (is_int(version) and version == STATE_VERSION):
            raise _unsupported_version(version)
    try:
        json_fields(header, "state header", _HEADER_FIELDS)
        check_int(header["d_e"], "d_e", 1)
        check_int(header["d_K"], "d_K")
    except ValueError as exc:
        raise StateFormatError(str(exc)) from exc
    return header


def load_state(source: str | Path) -> SchedulerState:
    """Load a state file, validating its header, payload and invariants.

    The payload must be exactly as long as the header's shapes require and
    match its sha256, and every other field passes the state's own checks,
    whose ``ValueError`` becomes a :class:`StateFormatError`. R's stored
    lower triangle is mirrored into its upper one, so R is symmetric by
    construction. R and Q are read into freshly allocated, aligned,
    read-only arrays.
    """
    with open(source, "rb") as handle:
        header = _read_header(handle)
        d_e, d_k = header["d_e"], header["d_K"]
        expected = _PAYLOAD_DTYPE.itemsize * (d_e * (d_e + 1) // 2 + d_e * d_k)
        size = os.fstat(handle.fileno()).st_size - handle.tell()
        if size != expected:
            raise StateFormatError(
                f"state payload is {size} bytes, expected {expected} "
                f"for d_e={d_e}, d_K={d_k}"
            )
        # readinto fresh arrays keeps R and Q aligned; a view into the file's
        # bytes at the header's length would not be, and slows every x @ R.
        r = np.empty((d_e, d_e), dtype=_PAYLOAD_DTYPE)
        q = np.empty((d_e, d_k), dtype=_PAYLOAD_DTYPE)
        digest = hashlib.sha256()
        for part in _parts(r, q):
            if handle.readinto(part) != part.nbytes:
                raise StateFormatError("state payload is truncated")
            digest.update(part)

    if digest.hexdigest() != header["payload_sha256"]:
        raise StateFormatError("state payload does not match its payload_sha256")
    _mirror_lower(r)
    # A non-finite payload makes R @ Q warn; it is refused below by the
    # state's own finiteness scan, so the warning would only be noise.
    with np.errstate(invalid="ignore", over="ignore"):
        w = r @ q
    _freeze(r, q, w)
    featurizer = header["featurizer"]
    try:
        return SchedulerState(
            R=r,
            Q=q,
            W=w,
            gamma=header["gamma"],
            tasks_seen=header["tasks_seen"],
            featurizer=None if featurizer is None else FeaturizerConfig.from_dict(featurizer),
            expansion_seed=header["expansion_seed"],
        )
    except ValueError as exc:
        raise StateFormatError(str(exc)) from exc
