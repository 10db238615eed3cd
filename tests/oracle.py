"""Independent reference computations the suite checks the package against.

Everything here is written straight from the closed-form ridge formulation
and imports nothing from ``taskrouter``: the package maintains these
quantities through QR updates of the Gram matrix's square-root factor, the
oracle recomputes them densely with a plain LU solve, so the two paths share
no code.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def ridge_weights(
    feature_batches: Sequence[np.ndarray],
    label_batches: Sequence[np.ndarray],
    gamma: float,
) -> np.ndarray:
    """Dense ridge solution over the concatenation of all batches.

    Solves (sum_i F_iᵀF_i + gamma I) W = sum_i F_iᵀY_i with np.linalg.solve.
    """
    if len(feature_batches) != len(label_batches) or not feature_batches:
        raise ValueError("need one label batch per feature batch")
    d = feature_batches[0].shape[1]
    width = label_batches[0].shape[1]
    gram = gamma * np.eye(d)
    moment = np.zeros((d, width))
    for feats, labels in zip(feature_batches, label_batches):
        gram += feats.T @ feats
        moment += feats.T @ labels
    return np.linalg.solve(gram, moment)


def ridge_objective(
    weights: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    gamma: float,
) -> float:
    """||Y - F W||_F^2 + gamma ||W||_F^2, the quantity the closed form minimises."""
    resid = labels - features @ weights
    return float(np.sum(resid * resid) + gamma * np.sum(weights * weights))


def gram_form_step(
    r_new: np.ndarray,
    w_old: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """One weight-update step written in its Gram form.

    W' = (I - R' FᵀF) W + R' FᵀY, where R' is the already-updated inverse
    Gram statistic. Cross-checks the maintained W = R Q product.
    """
    d = r_new.shape[0]
    gram = features.T @ features
    return (np.eye(d) - r_new @ gram) @ w_old + r_new @ (features.T @ labels)
