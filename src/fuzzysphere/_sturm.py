"""Sturm-count multisection kernel for zero-diagonal hermitian tridiagonals.

For a shift a, the pivots of the factorization T - a = L D L^T are

    q_1 = -a,  q_{k+1} = -a - |a_k|^2 / q_k,

and by Sylvester's law of inertia the number of negative pivots is the
number of eigenvalues below a, so n minus it counts the eigenvalues >= a.
This is the count LAPACK's dstebz uses; Kahan (1966) and Demmel, Dhillon and
Ren (1995) show that it is correct in floating point.  It needs no
rescaling and gives no value of the characteristic polynomial.

A zero pivot means a is an eigenvalue of the leading block; it is set to
+TINY before it is counted, the sign of the pivot at a shift just below a, so
an exact eigenvalue counts as >= a.  (-TINY would count it below a: on an odd
zero-diagonal block, where 0 is an eigenvalue, the count at 0 would be one
short.)  The division by a TINY pivot may overflow to -inf, harmlessly: the
next pivot is then -a, its limit as the shift rises to a.  One vectorized
loop, run over a ragged batch of matrices padded to the largest size, serves
the multisection driver.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "bisect_all", "bisect_many"]

BACKEND = "numpy"

# each sweep cuts every open bracket into SECTIONS equal parts; a power of
# two keeps the cut points exact fractions and the midpoint among them
SECTIONS = 16
_GRID = np.arange(SECTIONS + 1) / SECTIONS

# what a zero pivot is set to before it is counted
TINY = np.finfo(float).tiny


def _counts(absa2: np.ndarray, sizes: np.ndarray, alphas: np.ndarray):
    """Sturm counts (eigenvalues >= alpha) for each shift in alphas (rows x
    shifts).  Row r belongs to a matrix of size sizes[r] whose |a_k|^2 are
    absa2[r, :sizes[r] - 1]; absa2 is padded to the largest size and the
    pivots past a row's own size are left out of its count."""
    sizes = sizes[:, None]
    steps, shortest = absa2.shape[1], sizes.min()
    below = np.zeros(alphas.shape, dtype=np.int64)
    q = -alphas
    # zero pivots are replaced before any division, so only overflow occurs
    with np.errstate(over="ignore"):
        for k in range(steps + 1):
            if k:
                q = -alphas - absa2[:, k - 1, None] / q
            q[q == 0] = TINY
            neg = q < 0
            if k >= shortest:
                neg &= k < sizes  # the length mask: row r stops at sizes[r]
            below += neg
    return sizes - below


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
        counts = _counts(absa2[m], sizes[m], grid[:, 1:-1])
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
