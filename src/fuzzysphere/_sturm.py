"""Sturm-count multisection kernel for zero-diagonal hermitian tridiagonals.

The characteristic polynomials of the nested leading blocks obey

    p_0 = 1,  p_1 = a,  p_{k+1}(a) = a * p_k(a) - |a_k|^2 * p_{k-1}(a),

and the number of sign changes along (p_0(a), ..., p_n(a)) counts the
eigenvalues >= a.  One vectorized recurrence, run over a ragged batch of
matrices padded to the largest size, serves both the multisection driver
and the single-shift evaluation of p_n.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "bisect_all", "bisect_many", "charpoly_value_and_count"]

BACKEND = "numpy"

# each sweep cuts every open bracket into SECTIONS equal parts; a power of
# two keeps the cut points exact fractions and the midpoint among them
SECTIONS = 16
_GRID = np.arange(SECTIONS + 1) / SECTIONS


def _recurrence(absa2: np.ndarray, sizes: np.ndarray, alphas: np.ndarray,
                scales: list | None = None):
    """Sturm counts (eigenvalues >= alpha) and the rescaled p_n(alpha) for
    each shift in alphas (rows x shifts).  Row r belongs to a matrix of size
    sizes[r] whose |a_k|^2 are absa2[r, :sizes[r] - 1]; absa2 is padded to
    the largest size and the steps past a row's own size are left out of
    its count.  Appends the per-step scales that undo the rescaling to
    scales, if given."""
    p_prev, p = np.ones_like(alphas), alphas
    neg = np.zeros(alphas.shape, dtype=bool)  # p_0 = 1 is positive
    counts = np.zeros(alphas.shape, dtype=np.int64)
    sizes = sizes[:, None]
    steps, shortest = absa2.shape[1], sizes.min()
    for k in range(steps + 1):
        # a vanishing p_k sits strictly between two nonzero neighbours of
        # opposite sign; counting it opposite to its predecessor is correct
        change = ((p < 0) != neg) | (p == 0)
        if k >= shortest:
            change &= k < sizes  # the length mask: row r stops at sizes[r]
        counts += change
        neg ^= change
        if k < steps:
            # rescale to avoid overflow; only signs and the ratio matter
            scale = np.maximum(np.abs(p), 1.0)
            if scales is not None:
                scales.append(scale)
            q = p / scale
            p, p_prev = alphas * q - absa2[:, k, None] * (p_prev / scale), q
    return counts, p


def charpoly_value_and_count(absa2: np.ndarray, alpha: float):
    """p_n(alpha), saturated to +-inf once it passes e^700, and the number
    of eigenvalues >= alpha."""
    scales = []
    counts, p = _recurrence(absa2[None, :], np.array([absa2.size + 1]),
                            np.array([[alpha]]), scales)
    logscale = sum(np.log(s[0, 0]) for s in scales)
    value = p[0, 0] * np.exp(logscale) if logscale < 700.0 else np.sign(p[0, 0]) * np.inf
    return value, int(counts[0, 0])


def bisect_many(absa2s, radii, tol: float) -> list:
    """All eigenvalues of each matrix of a ragged batch, descending, each to
    absolute accuracy tol, or to a few units in the last place of its
    matrix's radius when tol is finer than that.

    Each eigenvalue has its own bracket, which every sweep cuts into
    SECTIONS parts at once, and which stops moving once it is within tol;
    so a matrix's eigenvalues are bitwise the same whatever else is in the
    batch."""
    sizes = np.array([a.size + 1 for a in absa2s], dtype=np.int64)
    if sizes.size == 0:
        return []
    absa2 = np.zeros((sizes.size, sizes.max() - 1))
    for i, a in enumerate(absa2s):
        absa2[i, :a.size] = a
    # one row per eigenvalue: the j-th largest of its matrix stays in
    # [lo, hi] with count(lo) >= j > count(hi)
    owner = np.repeat(np.arange(sizes.size), sizes)
    starts = np.cumsum(sizes) - sizes
    rank = np.arange(owner.size) - starts[owner] + 1
    radius = np.asarray(radii, dtype=float)[owner]
    lo, hi = -radius, radius.copy()
    # below 4 float spacings of the radius the cut points may round onto
    # lo or hi; above it the midpoint is strictly inside, so every sweep
    # shrinks the bracket
    tol = np.maximum(tol, 4.0 * np.spacing(radius))
    rows = np.flatnonzero(hi - lo > tol)
    while rows.size:
        m = owner[rows]
        grid = lo[rows, None] + (hi[rows] - lo[rows])[:, None] * _GRID
        grid[:, -1] = hi[rows]
        counts = _recurrence(absa2[m], sizes[m], grid[:, 1:-1])[0]
        # cut points still at or below the eigenvalue, up to the first above
        below = np.logical_and.accumulate(counts >= rank[rows, None], axis=1)
        cut = below.sum(axis=1)
        at = np.arange(rows.size)
        lo[rows], hi[rows] = grid[at, cut], grid[at, cut + 1]
        rows = rows[hi[rows] - lo[rows] > tol[rows]]
    return np.split(0.5 * (lo + hi), starts[1:])


def bisect_all(absa2: np.ndarray, radius: float, tol: float) -> np.ndarray:
    """All n eigenvalues of one matrix, descending: bisect_many's batch of
    one."""
    return bisect_many([absa2], [radius], tol)[0]
