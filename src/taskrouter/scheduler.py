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
  construction, whatever kernel BLAS picks;
* L, Z and W are checked once, by the step that makes them, not by the state.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .checks import check_int, check_number, is_int, json_fields, parse_json
from .features import FeaturizerConfig

__all__ = ["STATE_VERSION", "HEADER_LIMIT", "NumericalError", "StateFormatError", "SchedulerState",
           "Weights", "one_hot", "init", "fit_base", "update", "expand_label_space",
           "predict_proba", "predict", "save_state", "load_state", "load_weights"]

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


class _Routable:
    """W, gamma, tasks_seen and featurizer as routing reads them, checked alike in both types."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", _as_gamma(self.gamma))
        check_int(self.tasks_seen, "tasks_seen")
        if self.featurizer is not None and self.featurizer.d_e != self.d_e:
            raise ValueError("featurizer d_e disagrees with the state's d_e")

    @property
    def d_e(self) -> int:
        return self.W.shape[0]

    @property
    def d_k(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True)
class SchedulerState(_Routable):
    """Sufficient statistics of the router plus the featurization it expects.

    ``L`` (d_e x d_e, lower triangular) is the square root of the
    regularised Gram matrix, ``L Lᵀ = FᵀF + gamma I``; ``Z = L⁻¹ Q``
    (d_e x d_k) carries the feature/label moments ``Q = FᵀY``; and
    ``W = L⁻ᵀ Z`` the routing weights. ``featurizer`` records how inputs
    must be featurized, its seed fixing the expansion too, and may be absent
    for states driven with raw feature matrices. :attr:`sha256`
    fingerprints all of it. L, Z and W are read-only; one passed in
    writable is copied first, so its owner cannot change the state under
    its cached digest. ``init``, ``expand_label_space``, ``fit_base``,
    ``update`` and ``load_state`` each check the state they make; one built
    by hand is taken as given, as :class:`Weights` and ``ExpansionParams``
    are, and a file of one with a non-finite value is refused at load.
    """

    L: np.ndarray
    Z: np.ndarray
    W: np.ndarray
    gamma: float
    tasks_seen: int = 0
    featurizer: FeaturizerConfig | None = None

    def __post_init__(self) -> None:
        if self.L.ndim != 2 or self.L.shape[0] != self.L.shape[1]:
            raise ValueError("L must be a square matrix")
        if self.Z.ndim != 2 or self.W.shape != self.Z.shape or len(self.Z) != len(self.L):
            raise ValueError("Z and W must have shape (d_e, d_k)")
        super().__post_init__()
        for name in ("L", "Z", "W"):
            arr = getattr(self, name)
            if arr.flags.writeable:  # the caller's array, which it could still write
                object.__setattr__(self, name, np.array(arr))
                _freeze(getattr(self, name))

    @cached_property
    def sha256(self) -> str:
        """The state's fingerprint, the ``sha256`` in its file's header.

        The digest of the canonical header (every header field but the
        digest, in file order, as compact JSON), then L's triangle row by
        row, then Z, then W. It covers everything a state means, so two
        states with the same value route every input alike. It is computed
        at most once per state; a loaded state keeps the one its file was
        checked against.
        """
        digest = hashlib.sha256(json.dumps(_header(self), separators=(",", ":")).encode("utf-8"))
        for part in _payload(self):
            digest.update(part)  # hashes the array's buffer in place
        return digest.hexdigest()

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


@dataclass(frozen=True)
class Weights(_Routable):
    """W and the scalar fields of a state file, which :func:`load_weights` checks whole.

    W is C-ordered and read-only, ``sha256`` is the digest the file was
    verified against, and there is no L or Z.
    """

    W: np.ndarray
    gamma: float
    tasks_seen: int
    featurizer: FeaturizerConfig | None
    sha256: str


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
    if not (np.isfinite(u).all() and u.diagonal().all() and np.isfinite(z).all()):
        raise NumericalError(_PATHOLOGICAL)
    lower = u.T
    w = np.ascontiguousarray(
        solve_triangular(lower, z, lower=True, trans="T", check_finite=False)
    )
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
    ids = np.asarray(class_ids)
    if ids.ndim != 1:
        raise ValueError("class_ids must be 1-D")
    if ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0 or ids.max() >= num_classes):
        raise ValueError("class ids must be integers in [0, num_classes)")
    out = np.zeros((ids.size, num_classes), dtype=np.float64)
    out[np.arange(ids.size), ids.astype(np.intp)] = 1.0
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
    if lab.shape[1] != state.d_k:
        raise ValueError(f"labels cover {lab.shape[1]} classes, state expects {state.d_k}; "
                         "widen it with expand_label_space to add classes")
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


def predict_proba(state: SchedulerState | Weights, expanded: np.ndarray) -> np.ndarray:
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


def _payload(state: SchedulerState) -> list[np.ndarray]:
    """The payload in file order, as views: each row of L up to its diagonal, then Z, then W."""
    lower, z, w = (np.ascontiguousarray(arr, _PAYLOAD_DTYPE) for arr in (state.L, state.Z, state.W))
    return [lower[i, : i + 1] for i in range(lower.shape[0])] + [z.reshape(-1), w.reshape(-1)]


# The state header's keys in file order; the digest comes last and covers the others.
_HEADER_FIELDS = ("version", "d_e", "d_K", "gamma", "tasks_seen", "featurizer", "sha256")


def _header(state: SchedulerState | Weights) -> dict:
    """Every header field of the state but its digest, in file order."""
    featurizer = None if state.featurizer is None else state.featurizer.to_dict()
    return {"version": STATE_VERSION, "d_e": state.d_e, "d_K": state.d_k, "gamma": state.gamma,
            "tasks_seen": state.tasks_seen, "featurizer": featurizer}


def save_state(state: SchedulerState, destination: str | Path) -> None:
    """Write the state as one JSON header line followed by a raw payload.

    The header holds ``version``, ``d_e``, ``d_K``, ``gamma``,
    ``tasks_seen``, ``featurizer`` and ``sha256``, the state's
    :attr:`~SchedulerState.sha256`, in that order as compact JSON. The
    payload is each row of L up to its diagonal (``L[i, :i+1]``, row by
    row), then Z and then W (each d_e x d_K, C order), as raw little-endian
    float64. L's upper triangle is zero, so it is not stored.
    W is stored although L and Z determine it, so that a loading process
    need not solve for it, nor import SciPy to do so. Equal states give
    equal bytes, so a save/load/save cycle is byte-identical, and the file
    is replaced atomically.
    """
    line = json.dumps(dict(_header(state), sha256=state.sha256), separators=(",", ":")) + "\n"
    write_atomic(destination, line.encode("utf-8"), *_payload(state))


def _read(source: str | Path, keep_l: bool) -> tuple[Weights, np.ndarray, np.ndarray]:
    """The checked weights, L (if ``keep_l``) and Z of a state file: both loads' one reader.

    L's triangle passes a block of whole rows at a time through one reused
    buffer of at most 256 KiB, or d_e floats. Each block, then Z, then W is
    checked (finite; for L, no zero on the diagonal) and hashed; with
    ``keep_l`` each block's rows are then copied into a fresh L. Fresh
    arrays keep Z and W aligned, as a view into the file's bytes would not.
    """
    with open(source, "rb") as handle:
        line = handle.readline(HEADER_LIMIT)
        if not line.endswith(b"\n"):
            raise StateFormatError(f"state header is not a line of at most {HEADER_LIMIT} bytes")
        try:
            header = parse_json(line, "corrupt state header")
            # The version decides the layout, so a header of another version is
            # refused as such before its keys are held against this version's.
            version = (header.get("version", STATE_VERSION) if isinstance(header, dict)
                       else STATE_VERSION)
            if not (is_int(version) and version == STATE_VERSION):
                raise ValueError(f"unsupported state version {version!r} (expected "
                                 f"{STATE_VERSION}); regenerate the state with train-base/update")
            json_fields(header, "state header", _HEADER_FIELDS)
            d_e, d_k = check_int(header["d_e"], "d_e", 1), check_int(header["d_K"], "d_K")
            expected = _PAYLOAD_DTYPE.itemsize * (d_e * (d_e + 1) // 2 + 2 * d_e * d_k)
            size = os.fstat(handle.fileno()).st_size - handle.tell()
            if size != expected:
                raise ValueError(f"state payload is {size} bytes, expected {expected} "
                                 f"for d_e={d_e}, d_K={d_k}")
            featurizer = header["featurizer"]
            featurizer = None if featurizer is None else FeaturizerConfig.from_dict(featurizer)
            weights = Weights(np.empty((d_e, d_k), _PAYLOAD_DTYPE), header["gamma"],
                              header["tasks_seen"], featurizer, header["sha256"])
        except ValueError as exc:
            raise StateFormatError(str(exc)) from exc
        digest = hashlib.sha256(json.dumps(_header(weights), separators=(",", ":")).encode("utf-8"))
        block = min(d_e, max(1, (1 << 15) // d_e))  # rows of L per read: 256 KiB, or one row
        buffer = np.empty(block * d_e, _PAYLOAD_DTYPE)
        lower = np.zeros((d_e, d_e) if keep_l else (0, 0), _PAYLOAD_DTYPE)
        for start in range(0, d_e, block):
            stop = min(start + block, d_e)
            ends = np.arange(start + 1, stop + 1).cumsum()  # where each row ends in the block
            part = _read_part(handle, digest, "L", buffer[: ends[-1]])
            if not part[ends - 1].all():
                raise StateFormatError("stored L is singular: a zero on its diagonal")
            if keep_l:
                lower[start:stop, :stop][np.arange(stop) <= np.arange(start, stop)[:, None]] = part
        z = _read_part(handle, digest, "Z", np.empty((d_e, d_k), _PAYLOAD_DTYPE))
        _read_part(handle, digest, "W", weights.W)
    if digest.hexdigest() != weights.sha256:
        raise StateFormatError("state header and payload do not match its sha256")
    _freeze(lower, z, weights.W)
    return weights, lower, z


def _read_part(handle, digest, name: str, part: np.ndarray) -> np.ndarray:
    """``part`` filled from the file, refused unless finite, then hashed."""
    if handle.readinto(part) != part.nbytes:
        raise StateFormatError("state payload is truncated")
    if not np.isfinite(part).all():
        raise StateFormatError(f"{name} contains non-finite values")
    digest.update(part)
    return part


def load_state(source: str | Path) -> SchedulerState:
    """Load a state file, validating its header, payload and invariants.

    Every refusal is a :class:`StateFormatError`: a header of another
    version, a field that fails the state's own checks, a payload not
    exactly as long as the header's shapes require, a non-finite value, a
    zero on L's diagonal, or a ``sha256`` other than the state's own as
    :func:`save_state` would write it back (so ``"gamma": 1`` is refused).
    The state keeps that digest. L, Z and W are fresh, aligned, read-only
    arrays, so W is the saved one, bit for bit. Only numpy is used;
    :func:`load_weights` makes the same checks but keeps only W.

    The stored W is authoritative: it is not checked against L⁻ᵀZ. The
    digest rules out a W that disagrees with L and Z by accident, and the
    check would add about 4 ms to every load at d_e=1024.
    """
    weights, lower, z = _read(source, keep_l=True)
    state = SchedulerState(L=lower, Z=z, W=weights.W, gamma=weights.gamma,
                           tasks_seen=weights.tasks_seen, featurizer=weights.featurizer)
    state.__dict__["sha256"] = weights.sha256  # the cached property, already checked
    return state


def load_weights(source: str | Path) -> Weights:
    """What routing needs of a state file, after every check :func:`load_state` makes.

    It never holds L: at d_e=1024 it allocates under 0.5 MiB where
    :func:`load_state` allocates 9 MiB. W and ``sha256`` are load_state's.
    """
    return _read(source, keep_l=False)[0]
