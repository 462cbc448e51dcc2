"""Sturm-count bisection kernel for zero-diagonal hermitian tridiagonals.

The characteristic polynomials of the nested leading blocks obey

    p_0 = 1,  p_1 = a,  p_{k+1}(a) = a * p_k(a) - |a_k|^2 * p_{k-1}(a),

and the number of sign changes along (p_0(a), ..., p_n(a)) counts the
eigenvalues >= a.  One vectorized recurrence serves both the bisection
driver and the single-shift evaluation of p_n.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "bisect_all", "charpoly_value_and_count"]

BACKEND = "numpy"


def _recurrence(absa2: np.ndarray, alphas: np.ndarray):
    """Sturm counts (eigenvalues >= alpha) for each shift in alphas, the
    rescaled p_n(alpha), and the per-step scales that undo the rescaling."""
    p_prev, p = np.ones_like(alphas), alphas
    neg = np.zeros(alphas.shape, dtype=bool)  # p_0 = 1 is positive
    counts = np.zeros(alphas.shape, dtype=np.int64)
    scales = []
    for k in range(absa2.size + 1):
        # a vanishing p_k sits strictly between two nonzero neighbours of
        # opposite sign; counting it opposite to its predecessor is correct
        neg_k = (p < 0) | ((p == 0) & ~neg)
        counts += neg_k != neg
        neg = neg_k
        if k < absa2.size:
            # rescale to avoid overflow; only signs and the ratio matter
            scale = np.maximum(np.abs(p), 1.0)
            scales.append(scale)
            q = p / scale
            p, p_prev = alphas * q - absa2[k] * (p_prev / scale), q
    return counts, p, scales


def charpoly_value_and_count(absa2: np.ndarray, alpha: float):
    """p_n(alpha), saturated to +-inf once it passes e^700, and the number
    of eigenvalues >= alpha."""
    counts, p, scales = _recurrence(absa2, np.array([alpha]))
    logscale = sum(np.log(s[0]) for s in scales)
    value = p[0] * np.exp(logscale) if logscale < 700.0 else np.sign(p[0]) * np.inf
    return value, int(counts[0])


def bisect_all(absa2: np.ndarray, radius: float, tol: float) -> np.ndarray:
    """All n eigenvalues, descending, each to absolute accuracy tol, or to
    a few units in the last place of radius when tol is finer than that."""
    # once hi - lo nears the float spacing, 0.5 * (lo + hi) rounds onto lo or
    # hi and the bracket stops shrinking; above 4 spacings it always shrinks
    tol = max(tol, 4.0 * np.spacing(radius))
    n = absa2.size + 1
    lo = np.full(n, -radius)
    hi = np.full(n, radius)
    targets = np.arange(1, n + 1)
    while np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        above = _recurrence(absa2, mid)[0] >= targets
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)
