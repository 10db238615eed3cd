"""Closed-form ridge routing core with exact replay-free recursive updates.

The learner keeps the regularised Gram matrix G = FᵀF + gamma I in square-root
form: a lower-triangular factor L with L Lᵀ = G, and Z = L⁻¹ Q, where Q = FᵀY
is the feature/label moment matrix. The routing weights are W = L⁻ᵀ Z, the
ridge solution G⁻¹ Q. Absorbing a batch (F, Y), the base batch included, is
one QR factorisation of [Lᵀ; F] whose reflectors are applied to [Z; Y]
(QR-based recursive least squares), so no past training row is ever needed
again, and the sequential solution matches the joint ridge solution to
rounding error. R = G⁻¹ and Q are derived from L and Z when read.

SciPy's LAPACK wrappers are imported only where a state is factored: in the
absorb step and in the derived R. Loading a state reads W back from the file
instead of solving for it, so loading and routing need numpy alone.

Numerical conventions, all load-bearing for the equivalence guarantees:

* everything is float64;
* the regulariser gamma enters exactly once, at initialisation
  (L0 = sqrt(gamma) I); updates add no fresh regularisation;
* G itself is never formed, so features whose Gram matrix would overflow
  still fit, and the error of W grows with G's condition number, not with
  its square as it would through R; L's diagonal may carry either sign;
* the derived R is formed by LAPACK ``potri`` into one triangle, mirrored
  onto the other by :func:`_mirror_lower`, so it is exactly symmetric by
  construction, whatever kernel BLAS picks.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .checks import check_int, check_number, is_int, json_fields
from .features import FeaturizerConfig

__all__ = [
    "STATE_VERSION",
    "HEADER_LIMIT",
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
    "state_sha256",
    "save_state",
    "load_state",
]

STATE_VERSION = 6

# Longest header line a state file may have, newline included. Real headers
# are a few hundred bytes; the bound keeps a corrupt file from being read
# whole in search of a newline.
HEADER_LIMIT = 1 << 16

# L's lower triangle, Z and W are stored as raw little-endian float64.
_PAYLOAD_DTYPE = np.dtype("<f8")

# Block size of the QR that absorbs a batch; with a block of 1 or C-ordered
# operands a one-row update is several times slower.
_QR_BLOCK = 32

_PATHOLOGICAL = "the Gram factor is singular or overflows; the feature batch is pathological"


class NumericalError(RuntimeError):
    """The Gram factor overflowed or is singular: pathological features."""


class StateFormatError(ValueError):
    """A persisted state file is malformed, truncated, or inconsistent."""


@dataclass(frozen=True)
class SchedulerState:
    """Sufficient statistics of the router plus the featurization it expects.

    ``L`` (d_e x d_e, lower triangular) is the square root of the
    regularised Gram matrix, ``L Lᵀ = FᵀF + gamma I``; ``Z = L⁻¹ Q``
    (d_e x d_k) carries the feature/label moments ``Q = FᵀY``; and
    ``W = L⁻ᵀ Z`` the routing weights. ``d_e`` and ``d_k`` are read from
    their shapes. ``featurizer`` records how inputs must be featurized, its
    seed fixing the expansion too, and may be absent for states driven with
    raw feature matrices.
    """

    L: np.ndarray
    Z: np.ndarray
    W: np.ndarray
    gamma: float
    tasks_seen: int = 0
    featurizer: FeaturizerConfig | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", _as_gamma(self.gamma))
        if self.L.ndim != 2 or self.L.shape[0] != self.L.shape[1]:
            raise ValueError("L must be a square matrix")
        if self.Z.ndim != 2 or self.Z.shape[0] != self.d_e or self.W.shape != self.Z.shape:
            raise ValueError("Z and W must have shape (d_e, d_k)")
        for name, arr in (("L", self.L), ("Z", self.Z), ("W", self.W)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
        check_int(self.tasks_seen, "tasks_seen")
        if self.featurizer is not None and self.featurizer.d_e != self.d_e:
            raise ValueError("featurizer d_e disagrees with the state's d_e")

    @property
    def d_e(self) -> int:
        return self.L.shape[0]

    @property
    def d_k(self) -> int:
        return self.Z.shape[1]

    @property
    def R(self) -> np.ndarray:
        """The inverse regularised Gram matrix (L Lᵀ)⁻¹, derived on each read.

        LAPACK writes it into one triangle and :func:`_mirror_lower` copies
        that onto the other, so it is exactly symmetric. Tests and checks
        derive it; no routing or update path reads it.
        """
        from scipy.linalg.lapack import dpotri

        inverse, info = dpotri(self.L.T)
        if info:
            raise NumericalError("L is singular")
        r = inverse.T
        _mirror_lower(r)
        return r

    @property
    def Q(self) -> np.ndarray:
        """The feature/label moment matrix L Z, derived on each read."""
        return self.L @ self.Z


def _as_gamma(gamma) -> float:
    """gamma as a float; refuses a bool, a non-number, and any value not positive and finite."""
    gamma = check_number(gamma, "gamma")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    return gamma


def _mirror_lower(r: np.ndarray) -> None:
    """Copy the lower triangle of the square ``r`` onto its upper one, in place."""
    for i in range(r.shape[0] - 1):
        r[i, i + 1:] = r[i + 1:, i]


def _freeze(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


def _absorb(state: SchedulerState, feats: np.ndarray, lab: np.ndarray) -> SchedulerState:
    """Absorb validated rows ``feats`` with labels ``lab`` (d_k columns wide).

    One blocked QR of [Lᵀ; F] gives the new Lᵀ, and its reflectors carry
    [Z; Y] to the new Z; W = L⁻ᵀ Z is then one triangular solve, C-ordered.
    The input state's arrays are not touched.
    """
    from scipy.linalg import solve_triangular
    from scipy.linalg.lapack import dtpmqrt, dtpqrt

    u = state.L.T.copy(order="F")
    u, v, t, _ = dtpqrt(0, min(_QR_BLOCK, state.d_e), u, feats, overwrite_a=1)
    z, _, _ = dtpmqrt(0, v, t, state.Z, lab, side="L", trans="T")
    # C order, as load_state reads it, so a loaded state's derived Q is
    # formed from the same layouts and matches bit for bit.
    z = np.ascontiguousarray(z)
    diagonal = u.diagonal()
    if not (np.isfinite(diagonal).all() and diagonal.all() and np.isfinite(z).all()):
        raise NumericalError(_PATHOLOGICAL)
    lower = u.T
    w = np.ascontiguousarray(
        solve_triangular(lower, z, lower=True, trans="T", check_finite=False)
    )
    # A finite diagonal can sit beside an overflowed entry below it, which
    # the solve carries into W.
    if not np.isfinite(w).all():
        raise NumericalError(_PATHOLOGICAL)
    _freeze(lower, z, w)
    return replace(state, L=lower, Z=z, W=w, tasks_seen=state.tasks_seen + 1)


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


def init(d_e: int, gamma: float, *, featurizer: FeaturizerConfig | None = None) -> SchedulerState:
    """Fresh, classless state: L = sqrt(gamma) I, empty Z and W."""
    check_int(d_e, "d_e", 1)
    gamma = _as_gamma(gamma)
    lower = np.eye(d_e) * np.sqrt(gamma)
    z = np.zeros((d_e, 0))
    w = np.zeros((d_e, 0))
    _freeze(lower, z, w)
    return SchedulerState(L=lower, Z=z, W=w, gamma=gamma, featurizer=featurizer)


def _check_expansion_seed(expansion_seed, featurizer: FeaturizerConfig | None) -> None:
    """Refuse an ``expansion_seed`` other than None or the featurizer's own seed."""
    seed = None if featurizer is None else featurizer.seed
    if expansion_seed is not None and not (is_int(expansion_seed) and expansion_seed == seed):
        raise ValueError(f"expansion_seed must be None or the featurizer's seed ({seed}), "
                         f"got {expansion_seed!r}")


def fit_base(
    features: np.ndarray,
    labels: np.ndarray,
    gamma: float,
    *,
    featurizer: FeaturizerConfig | None = None,
    expansion_seed: int | None = None,
) -> SchedulerState:
    """Closed-form ridge fit over the whole base batch.

    W = (FᵀF + gamma I)^{-1} FᵀY, absorbed into a fresh state exactly as
    :func:`update` absorbs later batches, so those need none of this data.
    The expansion is always the featurizer's seed; ``expansion_seed`` is
    accepted only as None or that seed, for callers in ``bench/``, and goes
    when they next change.
    """
    _check_expansion_seed(expansion_seed, featurizer)
    feats = _as_feature_matrix(features)
    lab = _as_label_matrix(labels, feats.shape[0])
    state = init(feats.shape[1], gamma, featurizer=featurizer)
    return _absorb(expand_label_space(state, lab.shape[1]), feats, lab)


def update(state: SchedulerState, features: np.ndarray, labels: np.ndarray) -> SchedulerState:
    """Absorb one task batch without touching any historical data.

    L and Z move to the factor and moments of the Gram matrix with the batch
    added, and W is solved from them. Labels must be exactly d_K wide; widen
    the state with :func:`expand_label_space` before introducing new classes.
    """
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
        raise ValueError(f"labels cover {lab.shape[1]} classes, state expects {state.d_k}")
    return _absorb(state, feats, lab)


def expand_label_space(state: SchedulerState, new_d_k: int) -> SchedulerState:
    """Widen Z and W with zero columns for classes not yet seen.

    L is untouched, and zero columns add zero logits, so predictions for
    existing classes are bit-identical before and after.
    """
    check_int(new_d_k, "new_d_k")
    if new_d_k <= state.d_k:
        raise ValueError(
            f"new class count ({new_d_k}) must exceed the current one ({state.d_k})"
        )
    pad = np.zeros((state.d_e, new_d_k - state.d_k))
    z = np.hstack([state.Z, pad])
    w = np.hstack([state.W, pad])
    _freeze(z, w)
    return replace(state, Z=z, W=w)


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
    probs = _softmax(mat @ state.W)
    return probs[0] if single else probs


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a logit matrix, max-subtracted so huge logits cannot overflow."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def predict(state: SchedulerState, expanded: np.ndarray):
    """Most probable task id; exact ties resolve to the lowest class index."""
    probs = predict_proba(state, expanded)
    if probs.ndim == 1:
        return int(np.argmax(probs))
    return np.argmax(probs, axis=1)


def _parts(lower: np.ndarray, z: np.ndarray, w: np.ndarray) -> list[np.ndarray]:
    """The payload in file order, as views: each row of L up to its diagonal, then Z, then W."""
    return [lower[i, : i + 1] for i in range(lower.shape[0])] + [z.reshape(-1), w.reshape(-1)]


def _payload(state: SchedulerState) -> list[np.ndarray]:
    """The state's payload parts, copied only if L, Z or W is not C-ordered little-endian float64."""
    return _parts(
        *(np.ascontiguousarray(arr, dtype=_PAYLOAD_DTYPE) for arr in (state.L, state.Z, state.W))
    )


# The state header's keys in file order; the digest comes last and covers the others.
_HEADER_FIELDS = ("version", "d_e", "d_K", "gamma", "tasks_seen", "featurizer", "sha256")


def _header(state: SchedulerState) -> dict:
    """Every header field of the state but its digest, in file order."""
    return {
        "version": STATE_VERSION,
        "d_e": state.d_e,
        "d_K": state.d_k,
        "gamma": state.gamma,
        "tasks_seen": state.tasks_seen,
        "featurizer": None if state.featurizer is None else state.featurizer.to_dict(),
    }


def _canonical(header: dict) -> bytes:
    """The digested form of a header: every field but the digest, in file order, compact JSON."""
    return json.dumps(
        {key: header[key] for key in _HEADER_FIELDS[:-1]}, separators=(",", ":")
    ).encode("utf-8")


def _digest(header: dict, parts: list[np.ndarray]) -> str:
    digest = hashlib.sha256(_canonical(header))
    for part in parts:
        digest.update(part)  # hashes the array's buffer in place
    return digest.hexdigest()


def state_sha256(state: SchedulerState) -> str:
    """The ``sha256`` :func:`save_state` writes: of the canonical header, then the payload.

    It covers everything a state means, its featurizer and ``gamma`` as well
    as L, Z and W, so it fingerprints which state a process holds.
    """
    return _digest(_header(state), _payload(state))


def save_state(state: SchedulerState, destination: str | Path) -> None:
    """Write the state as one JSON header line followed by a raw payload.

    The header holds ``version``, ``d_e``, ``d_K``, ``gamma``,
    ``tasks_seen``, ``featurizer`` and ``sha256``, the digest of the other
    fields in that order (compact JSON, as written here) followed by the
    payload. The payload is each row of L up to its diagonal (``L[i, :i+1]``,
    row by row), then Z and then W (each d_e x d_K, C order), as raw
    little-endian float64. L's upper triangle is zero, so it is not stored.
    W is stored although L and Z determine it, so that a loading process
    need not solve for it, nor import SciPy to do so. Equal states give
    equal bytes, so a save/load/save cycle is byte-identical, and the file
    is replaced atomically.
    """
    parts = _payload(state)
    header = _header(state)
    header["sha256"] = _digest(header, parts)
    line = json.dumps(header, separators=(",", ":")) + "\n"
    write_atomic(destination, line.encode("utf-8"), *parts)


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

    The payload must be exactly as long as the header's shapes require, the
    header's ``sha256`` must match its other fields followed by the payload,
    every field passes the state's own checks, whose ``ValueError`` becomes a
    :class:`StateFormatError`, and L may have no zero on its diagonal. L, Z
    and W are read into freshly allocated, aligned, read-only arrays, L's
    upper triangle left zero, so a loaded state's W is the saved one's, bit
    for bit. Only numpy is used.

    The stored W is authoritative: it is not checked against L⁻ᵀZ. The
    digest rules out a W that disagrees with L and Z by accident, and the
    check would add about 4 ms to every load at d_e=1024.
    """
    with open(source, "rb") as handle:
        header = _read_header(handle)
        d_e, d_k = header["d_e"], header["d_K"]
        expected = _PAYLOAD_DTYPE.itemsize * (d_e * (d_e + 1) // 2 + 2 * d_e * d_k)
        size = os.fstat(handle.fileno()).st_size - handle.tell()
        if size != expected:
            raise StateFormatError(
                f"state payload is {size} bytes, expected {expected} "
                f"for d_e={d_e}, d_K={d_k}"
            )
        # readinto fresh arrays keeps L, Z and W aligned; a view into the
        # file's bytes at the header's length would not be, and slows every
        # product with them.
        lower = np.zeros((d_e, d_e), dtype=_PAYLOAD_DTYPE)
        z = np.empty((d_e, d_k), dtype=_PAYLOAD_DTYPE)
        w = np.empty((d_e, d_k), dtype=_PAYLOAD_DTYPE)
        digest = hashlib.sha256(_canonical(header))
        for part in _parts(lower, z, w):
            if handle.readinto(part) != part.nbytes:
                raise StateFormatError("state payload is truncated")
            digest.update(part)

    if digest.hexdigest() != header["sha256"]:
        raise StateFormatError("state header and payload do not match its sha256")
    # A NaN is nonzero, so a non-finite diagonal passes here; the state's own
    # finiteness scan refuses it below.
    if not lower.diagonal().all():
        raise StateFormatError("stored L is singular: a zero on its diagonal")
    _freeze(lower, z, w)
    featurizer = header["featurizer"]
    try:
        return SchedulerState(
            L=lower,
            Z=z,
            W=w,
            gamma=header["gamma"],
            tasks_seen=header["tasks_seen"],
            featurizer=None if featurizer is None else FeaturizerConfig.from_dict(featurizer),
        )
    except ValueError as exc:
        raise StateFormatError(str(exc)) from exc
