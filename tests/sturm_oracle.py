"""Sweep oracle for the Sturm kernel.

`bisect_many` here is the old kernel, which bisects every eigenvalue: every
sweep counts at the 15 interior cut points of every open bracket, over a
batch padded to the largest size with a per-row length mask.
`_sturm.bisect_many` returns LAPACK's values where its counts certify them,
so the two agree within the tolerance; a value it cannot certify it bisects
by the same sweep, so that value agrees bit for bit.  The constants are read
from `_sturm` at call time, so a test that patches `_sturm.TINY` patches
both.
"""

import numpy as np

from fuzzysphere import _sturm


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
            q[q == 0] = _sturm.TINY
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
    grid_steps = np.arange(_sturm.SECTIONS + 1) / _sturm.SECTIONS
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
        grid = lo[rows, None] + (hi[rows] - lo[rows])[:, None] * grid_steps
        grid[:, -1] = hi[rows]
        counts = _counts(absa2[m], sizes[m], grid[:, 1:-1])
        # cut points still at or below the eigenvalue, up to the first above
        below = np.logical_and.accumulate(counts >= rank[rows, None], axis=1)
        cut = below.sum(axis=1)
        at = np.arange(rows.size)
        lo[rows], hi[rows] = grid[at, cut], grid[at, cut + 1]
        rows = rows[hi[rows] - lo[rows] > tol[rows]]
    return np.split(0.5 * (lo + hi), starts[1:])
