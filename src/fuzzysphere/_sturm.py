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

The rows of a pass of counts run largest matrix first, so each pivot step
runs on a prefix of them and no row is padded.  A step is one division, one
subtraction, the zero-pivot fix and one comparison written into a table of
signs; the table holds STEPS steps and is summed when it is full and at the
end, so a pass keeps a few numbers per row whatever the matrices' size.

The eigenvalues themselves are numpy's real eigvalsh, one stacked call per
matrix size, certified by one pass of counts: if below(v - tol/2) <= n - j <
below(v + tol/2), the j-th largest eigenvalue lies within tol/2 of v,
repeated eigenvalues included, and the midpoint of that bracket is
returned.  An eigenvalue the counts do not certify is bisected from the
radius instead, and only then are the sweep's brackets made: each level of
multisection cuts a bracket into SECTIONS parts and keeps the part the
counts at the cut points point to.
"""

from __future__ import annotations

from itertools import accumulate, groupby

import numpy as np

__all__ = ["BACKEND", "bisect_many"]

BACKEND = "numpy"

# each level cuts a bracket into SECTIONS equal parts; a power of two keeps
# the cut points exact fractions and the midpoint among them
SECTIONS = 16
_GRID = np.arange(SECTIONS + 1) / SECTIONS

# the certificate's bracket around a guess, in units of tol
_HALF = np.array([-0.5, 0.5])

# what a zero pivot is set to before it is counted
TINY = np.finfo(float).tiny

# the pivot steps whose signs are held before they are summed
STEPS = 16


def _below(cols: np.ndarray, owner: np.ndarray, sizes: np.ndarray,
           shifts: np.ndarray) -> np.ndarray:
    """The number of negative pivots, i.e. of eigenvalues below the shift,
    for each shift in shifts (rows x ...), flattened to rows x shifts.  Row
    r belongs to matrix owner[r], of size sizes[r], whose |a_k|^2 is
    cols[k - 1, owner[r]]; the rows come largest size first, so the rows
    that have a pivot step k are a prefix."""
    # one flat entry per row and shift, so every step is a run of
    # contiguous entries, divided without broadcasting
    width = shifts.size // len(shifts)
    minus = np.negative(shifts).reshape(-1)
    q = minus.copy()
    owner = owner.repeat(width)
    sizes, p = sizes.tolist(), len(sizes)
    steps = sizes[0]
    # negative[k % STEPS, e] is whether pivot k of entry e is negative; an
    # entry past its last step keeps False there
    negative = np.zeros((min(steps, STEPS), q.size), dtype=bool)
    below = 0
    # zero pivots are replaced before any division, so only overflow occurs
    with np.errstate(over="ignore"):
        for k in range(steps):
            while sizes[p - 1] <= k:
                p -= 1
            end = p * width
            qp = q[:end]
            if k:
                np.divide(cols[k - 1].take(owner[:end]), qp, out=qp)
                np.subtract(minus[:end], qp, out=qp)
            qp[qp == 0.0] = TINY
            np.less(qp, 0.0, out=negative[k % STEPS, :end])
            if k % STEPS == STEPS - 1 and k + 1 < steps:
                below += negative.sum(axis=0)
                negative.fill(False)
    return (below + negative.sum(axis=0)).reshape(len(shifts), width)


def tridiagonals(upper: np.ndarray) -> np.ndarray:
    """The zero-diagonal hermitian tridiagonals, of upper's dtype, with the
    superdiagonals along upper's last axis, stacked (..., n, n)."""
    lead, n = upper.shape[:-1], upper.shape[-1] + 1
    dense = np.zeros(lead + (n * n,), dtype=upper.dtype)
    # entries (k, k + 1) and (k + 1, k) of a row-major n x n matrix
    dense[..., 1::n + 1] = upper
    dense[..., n::n + 1] = upper.conj()
    return dense.reshape(lead + (n, n))


def _dense_spectra(absa2: np.ndarray) -> np.ndarray:
    """Descending guesses at the eigenvalues of each matrix of a stack of
    same-size matrices, given as rows of |a_k|^2: numpy's real eigvalsh of
    the matrix with |a_k| off the diagonal, made symmetric as the spectrum is,
    so that an odd matrix's middle guess is 0 (real LAPACK maps more library
    code: 0.3 MiB more peak RSS over 28 small matrices)."""
    values = np.linalg.eigvalsh(tridiagonals(np.sqrt(absa2)))
    return 0.5 * (values[:, ::-1] - values)


def _sweep(cols, owner, sizes, most_below, radius, tol) -> np.ndarray:
    """The eigenvalues of the given rows (as in _below) by multisection
    from [-radius, radius] until each bracket is at most tol wide: the
    midpoints.  Row r's eigenvalue has most_below[r] eigenvalues below it."""
    lo, hi = -radius, radius.copy()
    rows = np.flatnonzero(hi - lo > tol)
    while rows.size:
        grid = lo[rows, None] + (hi[rows] - lo[rows])[:, None] * _GRID
        grid[:, -1] = hi[rows]
        below = _below(cols, owner[rows], sizes[rows], grid[:, 1:-1])
        # cut points still at or below the eigenvalue, up to the first above
        cut = np.logical_and.accumulate(below <= most_below[rows, None],
                                        axis=1).sum(axis=1)
        at = np.arange(rows.size)
        lo[rows], hi[rows] = grid[at, cut], grid[at, cut + 1]
        rows = rows[hi[rows] - lo[rows] > tol[rows]]
    return 0.5 * (lo + hi)


def bisect_many(absa2s, radii, tol: float) -> list:
    """All eigenvalues of each matrix of a ragged batch, descending, each
    within tol/2 of its eigenvalue, with tol floored at 4 units in the last
    place of the matrix's radius: the dense guess where the counts certify
    it, else bisected.  Only a matrix's own counts decide its values, so
    they are bitwise the same whatever else is in the batch.

    The order needs no sort where every value is certified: the guesses
    are non-increasing, and so are the rounded brackets v +- tol/2 and
    their midpoints.  A bisected value may fall on either side of a
    certified one of the same eigenvalue, so a matrix with bisected rows
    is sorted once."""
    if not absa2s:
        return []
    # the matrices largest first; cols[k - 1, i] is |a_k|^2 of the i-th
    order = sorted(range(len(absa2s)), key=lambda i: absa2s[i].size, reverse=True)
    sizes = [absa2s[j].size + 1 for j in order]
    cols = np.zeros((sizes[0] - 1, len(order)))
    for i, j in enumerate(order):
        cols[:sizes[i] - 1, i] = absa2s[j]
    # one row per eigenvalue, largest first within its matrix: the j-th
    # largest of a matrix of size n lies in [lo, hi] when
    # below(lo) <= n - j < below(hi), and n - j counts down to 0 at the
    # matrix's last row, one before its end
    ends = list(accumulate(sizes))
    owner, row_size, most_below = np.array(
        [range(len(sizes)), sizes, ends]).repeat(sizes, axis=1)
    most_below -= np.arange(1, ends[-1] + 1)
    radius = np.asarray(radii, dtype=float)[order]
    # below 4 float spacings of the radius the cut points may round onto
    # lo or hi; above it the midpoint is strictly inside, so every level
    # shrinks the bracket
    tol = np.maximum(tol, 4.0 * np.spacing(radius)).repeat(sizes)
    # the certificate: a count tol/2 below and above each guess, the guesses
    # of the adjacent matrices i..j-1 of one size n coming from one
    # eigvalsh; a value is its bracket's midpoint
    bracket = np.multiply.outer(tol, _HALF)
    i = 0
    for n, same in groupby(sizes):
        j = i + len(list(same))
        guess = _dense_spectra(cols[:n - 1, i:j].T)
        bracket[ends[i] - n:ends[j - 1]] += guess.reshape(-1, 1)
        i = j
    below = _below(cols, owner, row_size, bracket)
    values = 0.5 * (bracket[:, 0] + bracket[:, 1])
    # a row is certified where below <= most_below reads (True, False) at
    # (lo, hi); the others are bisected from the radius
    at_most = below <= most_below[:, None]
    rows = (at_most[:, 0] <= at_most[:, 1]).nonzero()[0]
    if rows.size:
        values[rows] = _sweep(cols, owner[rows], row_size[rows], most_below[rows],
                              radius.repeat(sizes)[rows], tol[rows])
        for i in np.unique(owner[rows]).tolist():
            values[ends[i] - sizes[i]:ends[i]][::-1].sort()
    out = [None] * len(order)
    for i, j in enumerate(order):
        out[j] = values[ends[i] - sizes[i]:ends[i]]
    return out

