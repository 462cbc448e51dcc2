"""Complex array core.

Both spaces hold their operators as shift terms, a complex weight table
held read-only (made so by :func:`readonly`), and apply them to states
through :class:`ShiftTerms`.  A state is a complex 1-d unit vector over
the basis, and several states travel together as the columns of a
(dim, n) block; :func:`unit_columns` checks every column's norm, and a
single state is checked as a block of one.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = ["unit_columns", "normalized_columns", "random_states", "readonly",
           "diag_annihilator", "ShiftTerms"]


def readonly(a) -> np.ndarray:
    """a as a complex array that refuses writes.  A complex array is not
    copied: its own write flag is cleared, so build it fully first."""
    a = np.asarray(a, dtype=complex)
    a.setflags(write=False)
    return a


def unit_columns(v) -> np.ndarray:
    """v as a complex (dim, n) block, after checking that every column has
    norm 1 within 1e-12; the check is written so that a NaN or infinite
    norm fails it too."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.size < 1:
        raise ValueError("a block of states must be a nonempty 2-d array")
    nrm = np.linalg.norm(v, axis=0)
    unit = np.abs(nrm - 1.0) <= 1e-12
    if not unit.all():
        j = int(np.argmin(unit))
        raise ValueError(f"state norm {nrm[j]} of column {j} deviates from 1 "
                         "beyond 1e-12")
    return v


def normalized_columns(v) -> np.ndarray:
    """The columns of v scaled to unit norm; a zero column has no direction
    and is an error."""
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v, axis=0)
    if np.any(nrm == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return unit_columns(v / nrm)


def random_states(rng, dim: int, count: int) -> np.ndarray:
    """count random unit states as the columns of a (dim, count) block.
    They come from one rng.normal call, state by state, each as dim real
    parts followed by dim imaginary parts."""
    z = rng.normal(size=(count, 2, dim))
    return normalized_columns((z[:, 0] + 1j * z[:, 1]).T)


def diag_annihilator(diag, roots) -> np.ndarray:
    """prod_r (D - r) for the diagonal operator D = diag(diag), entrywise,
    normalized by prod_{r != r0} (r0 - r) with r0 the root nearest each
    entry.  It is taken factor by factor as (d - r) / (r0 - r), so nothing
    overflows however many roots there are, and an entry off its root by
    delta gives about delta.  The roots must be distinct.  It takes about
    2^14 (entry, root) pairs at a time, never the table of all of them."""
    diag, roots = np.asarray(diag), np.asarray(roots, dtype=float)
    out = []
    for d in np.array_split(diag[:, None], max(1, diag.size * roots.size >> 14)):
        gap = roots[np.abs(d - roots).argmin(axis=1)][:, None] - roots
        out.append(np.prod((d - roots) / np.where(gap == 0, 1.0, gap), axis=1))
    return np.concatenate(out)


class ShiftTerms:
    """Products with states for a space held as shift terms: row j of
    `terms` weighs, at each source index, the term of term_keys[j][0] that
    shifts the labels by term_keys[j][1:], sent where targets(keys) says."""

    @cached_property
    def _gather(self) -> tuple:
        """(src, w): term j moves basis vector src[j, i] onto i with weight
        w[j, i]; src is dim and w 0 where no basis vector moves onto i."""
        src = self.targets([(-dl, -dm) for _, dl, dm in self.term_keys])
        w = np.zeros((len(src), self.dim + 1), dtype=complex)
        w[:, :-1] = self.terms
        return src, np.take_along_axis(w, src, axis=1)

    def apply(self, rows: np.ndarray, ops) -> list:
        """Each operator in ops applied to each row of rows, a (n, dim)
        array of states: the sum of its terms, each one gather."""
        src, w = self._gather
        padded = np.zeros((rows.shape[0], self.dim + 1), dtype=complex)
        padded[:, :-1] = rows
        out = dict.fromkeys(ops, 0.0)
        for j, (name, _, _) in enumerate(self.term_keys):
            if name in out:
                out[name] = out[name] + w[j] * padded[:, src[j]]
        return [out[op] for op in ops]

    def _means(self, v: np.ndarray, ops) -> list:
        """Complex <A> of each column of the (dim, n) block v for each A in
        ops, each numpy's pairwise sum over a contiguous row."""
        rows = np.ascontiguousarray(v.T)
        conj = rows.conj()
        return [np.sum(conj * a, axis=1) for a in self.apply(rows, ops)]

    def h_eff(self, b, v: np.ndarray) -> tuple:
        """(E_0, H(b) v) for H(b) = x^2 - 2 b.x, b of length D, and a 1-d v.
        By O(D) covariance E_0 is the lowest over the sectors of x^2 - 2 |b|
        x_ref; -2 (b_1 x_1 + b_2 x_2) = -(b_1 - i b_2) x_+ - (b_1 + i b_2) x_-."""
        r, bp = float(np.linalg.norm(b)), b[0] - 1j * b[1]
        e0 = min(np.linalg.eigvalsh(q - 2.0 * r * xr)[0]
                 for _, q, xr in self.sectors())
        sq, xp, xm, *x3 = self.apply(v[None, :], ("x_squared", "x_plus",
                                                  "x_minus", "x3")[:len(b) + 1])
        hv = sq - bp * xp - np.conj(bp) * xm
        return e0, (hv - 2.0 * b[2] * x3[0] if x3 else hv)[0]
