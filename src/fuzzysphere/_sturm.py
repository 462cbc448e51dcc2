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
next pivot is then -a, its limit as the shift rises to a.

Each eigenvalue has a bracket, and a level of multisection cuts it into
SECTIONS parts and keeps the part the counts at the cut points point to.
The levels of one bracket are sequential, but the chain they take is
predictable: a round guesses each eigenvalue from numpy's dense eigvalsh,
builds the chain of brackets the levels would take if the eigenvalue sat
there, and counts at the cut points of all of them in one pass of the pivot
recurrence.  A bracket keeps the levels up to the first whose counts
disagree with the guess, and that level's actual cut, so every bracket is
decided by the counts alone: a wrong guess costs rounds, never a value.
The rows run largest matrix first, so each pivot step runs on a prefix of
them and no row is padded.
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

# counts (open rows x levels x cut points) one round may take: a few rows
# run their whole chain in one pass, a wide batch one level per round
_ROUND_ENTRIES = 1 << 14


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
    """All eigenvalues of each matrix of a ragged batch, descending, each to
    absolute accuracy tol, or to a few units in the last place of its
    matrix's radius when tol is finer than that.

    Each eigenvalue has its own bracket, which every level cuts into
    SECTIONS parts at once, and which stops moving once it is within tol;
    so a matrix's eigenvalues are bitwise the same whatever else is in the
    batch, and whatever the guesses are."""
    if not absa2s:
        return []
    # the matrices largest first; cols[k - 1, i] is |a_k|^2 of the i-th
    order = sorted(range(len(absa2s)), key=lambda i: absa2s[i].size, reverse=True)
    sizes = np.array([absa2s[j].size + 1 for j in order], dtype=np.int64)
    cols = np.zeros((sizes[0] - 1, sizes.size))
    for i, j in enumerate(order):
        cols[:sizes[i] - 1, i] = absa2s[j]
    # one row per eigenvalue: the j-th largest of its matrix of size n stays
    # in [lo, hi] with count(lo) >= j > count(hi), i.e. below(lo) <= n - j
    owner = np.repeat(np.arange(sizes.size), sizes)
    starts = np.cumsum(sizes) - sizes
    row_size = sizes[owner]
    most_below = row_size - 1 - (np.arange(owner.size) - starts[owner])
    radius = np.asarray(radii, dtype=float)[order][owner]
    lo, hi = -radius, radius.copy()
    # below 4 float spacings of the radius the cut points may round onto
    # lo or hi; above it the midpoint is strictly inside, so every level
    # shrinks the bracket
    tol = np.maximum(tol, 4.0 * np.spacing(radius))
    guess = None
    rows = np.flatnonzero(hi - lo > tol)
    while rows.size:
        levels = max(1, _ROUND_ENTRIES // ((SECTIONS - 1) * rows.size))
        if levels > 1 and guess is None:
            guess = _guesses(cols, sizes, owner[rows], starts)
        at = np.arange(rows.size)
        a, b, t = lo[rows], hi[rows], tol[rows]
        # (a round of one level needs no guess)
        h = guess[rows, None] if levels > 1 else a[:, None]
        # the chain of brackets if each eigenvalue sat at its guess, each
        # level's cut points formed as one level alone would form them
        grids = np.empty((rows.size, levels, SECTIONS + 1))
        chain, live = [], []
        for level in range(levels):
            width = b - a
            if level:
                live.append(width > t)
                if not live[-1].any():
                    grids = grids[:, :level]
                    break
            grid = grids[:, level]
            np.multiply(width[:, None], _GRID, out=grid)
            grid += a[:, None]
            grid[:, -1] = b
            step = np.add.reduce(grid[:, 1:-1] <= h, axis=1)
            a, b = grid[at, step], grid[at, step + 1]
            chain.append(step)
        # cut points still at or below the eigenvalue, up to the first above
        below = _below(cols, owner[rows], row_size[rows], grids[:, :, 1:-1])
        ok = (below <= most_below[rows, None]).reshape(grids.shape[0], -1,
                                                       SECTIONS - 1)
        cut = np.logical_and.accumulate(ok, axis=2).sum(axis=2)
        # each row goes on past a level while the guess held there and the
        # bracket is not yet within tol; it stops at the round's last level
        go = cut == np.array(chain).T
        go[:, -1] = False
        if live:
            go[:, :len(live)] &= np.array(live).T
        level = np.logical_and.accumulate(go, axis=1).sum(axis=1)
        cut = cut[at, level]
        lo[rows], hi[rows] = grids[at, level, cut], grids[at, level, cut + 1]
        rows = rows[hi[rows] - lo[rows] > tol[rows]]
    values = np.split(0.5 * (lo + hi), starts[1:])
    out = [None] * sizes.size
    for i, j in enumerate(order):
        out[j] = values[i]
    return out


def _guesses(cols, sizes, owners, starts) -> np.ndarray:
    """A guess at every eigenvalue of the matrices in owners (sorted, with
    repeats), by row; other rows are NaN.  Each _dense_spectra call takes
    matrices of one size, as many as keep the dense stack within
    _ROUND_ENTRIES entries (at least one)."""
    guess = np.full(starts[-1] + sizes[-1], np.nan)
    mats = owners[np.flatnonzero(np.diff(owners, prepend=-1))]
    runs = np.flatnonzero(np.diff(sizes[mats])) + 1
    for run in np.split(mats, runs):
        n = int(sizes[run[0]])
        step = max(1, _ROUND_ENTRIES // (n * n))
        for part in (run[i:i + step] for i in range(0, run.size, step)):
            guess[starts[part, None] + np.arange(n)] = \
                _dense_spectra(cols[:n - 1, part].T)
    return guess


def bisect_all(absa2: np.ndarray, radius: float, tol: float) -> np.ndarray:
    """All n eigenvalues of one matrix, descending: bisect_many's batch of
    one."""
    return bisect_many([absa2], [radius], tol)[0]
