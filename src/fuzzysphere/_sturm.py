"""Sturm-count eigenvalue kernel for zero-diagonal hermitian tridiagonals.

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
next pivot is then -a, its limit as the shift rises to a.

The eigenvalues themselves are numpy's dense eigvalsh, certified by counts:
if below(v - tol/2) <= n - j < below(v + tol/2), the j-th largest eigenvalue
lies within tol/2 of v, repeated eigenvalues included.  An eigenvalue the
counts do not certify is bisected from the radius instead: each level of
multisection cuts its bracket into SECTIONS parts and keeps the part the
counts at the cut points point to.  The rows run largest matrix first, so
each pivot step runs on a prefix of them and no row is padded.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "bisect_all", "bisect_many"]

BACKEND = "numpy"

# each level cuts a bracket into SECTIONS equal parts; a power of two keeps
# the cut points exact fractions and the midpoint among them
SECTIONS = 16
_GRID = np.arange(SECTIONS + 1) / SECTIONS

# what a zero pivot is set to before it is counted
TINY = np.finfo(float).tiny


def _below(cols: np.ndarray, owner: np.ndarray, sizes: np.ndarray,
           shifts: np.ndarray) -> np.ndarray:
    """The number of negative pivots, i.e. of eigenvalues below the shift,
    for each shift in shifts (rows x ...), flattened to rows x shifts.  Row
    r belongs to matrix owner[r], of size sizes[r], whose |a_k|^2 is
    cols[k - 1, owner[r]]; the rows come largest size first, so the rows
    that have a pivot step k are a prefix."""
    minus = np.negative(shifts).reshape(len(shifts), -1)
    q = minus.copy()
    below = np.zeros(q.shape, dtype=np.int64)
    sizes, p = sizes.tolist(), len(sizes)
    # zero pivots are replaced before any division, so only overflow occurs
    with np.errstate(over="ignore"):
        for k in range(sizes[0]):
            while sizes[p - 1] <= k:
                p -= 1
            qp = q[:p]
            if k:
                np.divide(cols[k - 1].take(owner[:p])[:, None], qp, out=qp)
                np.subtract(minus[:p], qp, out=qp)
            qp[qp == 0] = TINY
            below[:p] += qp < 0
    return below


def _dense_spectra(absa2: np.ndarray) -> np.ndarray:
    """Descending guesses at the eigenvalues of each matrix of a stack of
    same-size matrices, given as rows of |a_k|^2: numpy's dense eigvalsh of
    the matrix with |a_k| off the diagonal, made symmetric as the spectrum
    is, so that an odd matrix's middle guess is 0.  (The matrix is complex
    because the spectra checks' own eigvalsh is: the real LAPACK path would
    map more library code into every process that bisects.)"""
    count, n = absa2.shape[0], absa2.shape[1] + 1
    dense = np.zeros((count, n, n), dtype=complex)
    k = np.arange(n - 1)
    dense[:, k, k + 1] = dense[:, k + 1, k] = np.sqrt(absa2)
    values = np.linalg.eigvalsh(dense)
    return 0.5 * (values[:, ::-1] - values)


def bisect_many(absa2s, radii, tol: float) -> list:
    """All eigenvalues of each matrix of a ragged batch, descending, each
    within tol/2 of its eigenvalue, with tol floored at 4 units in the last
    place of the matrix's radius: the dense guess where the counts certify
    it, else bisected.  Only a matrix's own counts decide its values, so
    they are bitwise the same whatever else is in the batch."""
    if not absa2s:
        return []
    # the matrices largest first; cols[k - 1, i] is |a_k|^2 of the i-th
    order = sorted(range(len(absa2s)), key=lambda i: absa2s[i].size, reverse=True)
    sizes = np.array([absa2s[j].size + 1 for j in order], dtype=np.int64)
    cols = np.zeros((sizes[0] - 1, sizes.size))
    for i, j in enumerate(order):
        cols[:sizes[i] - 1, i] = absa2s[j]
    # one row per eigenvalue: the j-th largest of its matrix of size n lies
    # in [lo, hi] when below(lo) <= n - j < below(hi)
    owner = np.repeat(np.arange(sizes.size), sizes)
    starts = np.cumsum(sizes) - sizes
    row_size = sizes[owner]
    most_below = row_size - 1 - (np.arange(owner.size) - starts[owner])
    radius = np.asarray(radii, dtype=float)[order][owner]
    # below 4 float spacings of the radius the cut points may round onto
    # lo or hi; above it the midpoint is strictly inside, so every level
    # shrinks the bracket
    tol = np.maximum(tol, 4.0 * np.spacing(radius))
    # the certificate: a count tol/2 below and above each guess
    guess = np.empty(owner.size)
    for n in sorted(set(sizes.tolist())):
        mats = np.flatnonzero(sizes == n)
        guess[starts[mats, None] + np.arange(n)] = \
            _dense_spectra(cols[:n - 1, mats].T)
    bracket = guess[:, None] + np.multiply.outer(tol, [-0.5, 0.5])
    below = _below(cols, owner, row_size, bracket)
    lo, hi = bracket.T
    rows = np.flatnonzero((below[:, 0] > most_below) | (below[:, 1] <= most_below))
    lo[rows], hi[rows] = -radius[rows], radius[rows]
    # the rows it fails are bisected from the radius
    rows = rows[hi[rows] - lo[rows] > tol[rows]]
    while rows.size:
        grid = lo[rows, None] + (hi[rows] - lo[rows])[:, None] * _GRID
        grid[:, -1] = hi[rows]
        below = _below(cols, owner[rows], row_size[rows], grid[:, 1:-1])
        # cut points still at or below the eigenvalue, up to the first above
        cut = np.logical_and.accumulate(below <= most_below[rows, None],
                                        axis=1).sum(axis=1)
        at = np.arange(rows.size)
        lo[rows], hi[rows] = grid[at, cut], grid[at, cut + 1]
        rows = rows[hi[rows] - lo[rows] > tol[rows]]
    values = np.split(0.5 * (lo + hi), starts[1:])
    out = [None] * sizes.size
    for i, j in enumerate(order):
        out[j] = values[i]
    return out


def bisect_all(absa2: np.ndarray, radius: float, tol: float) -> np.ndarray:
    """All n eigenvalues of one matrix, descending: bisect_many's batch of
    one."""
    return bisect_many([absa2], [radius], tol)[0]
