"""The O(3)-covariant fuzzy sphere.

The carrier space at truncation lam is spanned by the angular-momentum
eigenvectors psi_l^m, l = 0..lam, m = -l..l, stored with l ascending and m
ascending inside each l-block (index l^2 + l + m).  The coordinates mix
adjacent l-levels through Clebsch-Gordan weights,

    x_a psi_l^m = c_l A_l^{a,m} psi_{l-1}^{m+a} + c_{l+1} B_l^{a,m} psi_{l+1}^{m+a},

with B_l^{a,m} = A_{l+1}^{-a,m+a}, c_l = sqrt(1 + l^2/k) for 1 <= l <= lam
and c_0 = c_{lam+1} = 0, so the band edges are handled by vanishing weights
rather than special cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._sturm import tridiagonals
from .circle import min_sharpness, sharpness
from .linop import ShiftTerms, readonly
from .report import Report
from .spectral import TridiagSpec

# .shift is imported where the relation suite uses it: every command
# imports this module, and only the relation and so(4) suites need the
# shift algebra, so the others do not pay for loading it at start-up

__all__ = ["FuzzySphere", "build_sphere", "verify_sphere_relations",
           "coordinate_blocks", "min_sharpness", "clebsch_a"]

EPS = np.array([[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
                [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]], dtype=float)


def clebsch_a(l, a: int, m):
    """Weight A_l^{a,m} coupling psi_l^m down to psi_{l-1}^{m+a}; l and m
    may be integer arrays of the same shape.  It is zero (-0.0 for a = -1)
    where psi_{l-1}^{m+a} does not exist."""
    if a not in (0, 1, -1):
        raise ValueError(f"component label a must be 0 or +-1, got {a}")
    l, m = np.asarray(l), np.asarray(m)
    den = (2 * l - 1) * (2 * l + 1)
    if a == 0:
        num = (l + m) * (l - m)
    elif a == 1:
        num = (l - m) * (l - m - 1)
    else:
        num = (l + m) * (l + m - 1)
    exists = (l >= 1) & (np.abs(m + a) <= l - 1)
    w = np.sqrt(np.where(exists, num / den, 0.0))
    return -w if a == -1 else w


# the stored shift terms of every sphere, one weight row each, as
# (operator, dl, dm): x_a moves psi_l^m to psi_{l-1}^{m+a} and
# psi_{l+1}^{m+a}, L_+ to psi_l^{m+1}; L_3, L.L and x.x are diagonal.  The
# a = 0 component x_0 is stored as x3
TERM_KEYS = (("x3", -1, 0), ("x3", 1, 0), ("x_plus", -1, 1), ("x_plus", 1, 1),
             ("x_minus", -1, -1), ("x_minus", 1, -1), ("L_plus", 0, 1),
             ("L3", 0, 0), ("l2", 0, 0), ("x_squared", 0, 0))


@dataclass(frozen=True)
class FuzzySphere(ShiftTerms):
    """The sphere as read-only shift terms (see linop.ShiftTerms), its only
    operator data: every rotation and sector block is cut from the terms,
    so replacing them changes the whole sphere."""

    lam: int
    k: float
    term_keys: tuple
    terms: np.ndarray
    l_of: np.ndarray            # level l of each basis vector (read-only)
    m_of: np.ndarray            # L_3 eigenvalue m of each basis vector (read-only)

    @property
    def dim(self) -> int:
        return (self.lam + 1) ** 2

    def index(self, l: int, m: int) -> int:
        """Basis index of psi_l^m."""
        if not (0 <= l <= self.lam and -l <= m <= l):
            raise ValueError(f"label (l={l}, m={m}) out of range for lam={self.lam}")
        return l * l + l + m

    def targets(self, keys) -> np.ndarray:
        """Target table, one row per key (dl, dm) and one column per source
        basis index: the index of psi_{l+dl}^{m+dm} for the source psi_l^m,
        or dim where that label does not exist."""
        keys = np.asarray(keys, dtype=int).reshape(-1, 2)
        l, m = self.l_of + keys[:, :1], self.m_of + keys[:, 1:]
        return np.where((l <= self.lam) & (np.abs(m) <= l), l * l + l + m, self.dim)

    def can_shift(self, lo, hi) -> np.ndarray:
        """For each row of lo and hi, whether some shift (dl, dm) with
        lo <= (dl, dm) <= hi moves some psi_l^m onto another basis vector:
        those shifts have |dl| <= lam and |dl| + |dm| <= 2 lam (l + l' is
        at most 2 lam - |dl|), so the box's point nearest (0, 0) decides."""
        near = np.minimum(np.maximum(lo, 0), hi)
        return ((np.abs(near[:, 0]) <= self.lam)
                & (np.abs(near).sum(axis=1) <= 2 * self.lam))

    def moments(self, v: np.ndarray) -> tuple:
        """(<x>, <x^2>, <L>, <L^2>) of each column of the (dim, n) block v,
        the vectors (3, n), from <x_+> = <x_1> + i <x_2> and likewise L_+."""
        xp, x3, x2, *L = self._means(
            v, ("x_plus", "x3", "x_squared", "L_plus", "L3", "l2"))
        return (np.array([xp.real, xp.imag, x3.real]), x2.real,
                *_angular(*L))

    def angular_moments(self, v: np.ndarray) -> tuple:
        """(<L>, <L^2>) of each column of the (dim, n) block v, the same
        numbers as moments gives, from the L terms alone."""
        return _angular(*self._means(v, ("L_plus", "L3", "l2")))

    def sectors(self):
        """The L_3 sectors m = 0..lam, m = 0 first, each (indices of
        psi_l^m, weights 1, real x^2 and x_3 blocks there), cut from the
        terms when reached; sector -m has the same blocks, so is not
        listed."""
        x2 = np.real(self.terms[self.term_keys.index(("x_squared", 0, 0))])
        for m, b in self.x3_blocks().items():
            idx = np.flatnonzero(self.m_of == m)
            yield idx, np.ones(idx.size), np.diag(x2[idx]), tridiagonals(b.offdiag.real)

    def x3_blocks(self) -> dict:
        """{m: TridiagSpec of x_3 on psi_l^m, l = m..lam}, m = 0..lam, cut
        from the l-lowering x_3 term."""
        return _x3_blocks(self.lam, self.terms[self.term_keys.index(("x3", -1, 0))])

    @cached_property
    def l2_eigh(self) -> tuple:
        """(slice, eigenvalues nu, real eigenvectors V') of each level l =
        0..lam (rows psi_l^-l .. psi_l^l), shared by the space's rotations.
        L_+ raises m by one, so L_2 = D (-L_1) D^dag, D = diag(i^m): nu, V'
        are the real eigh of -L_1, NaN (no eigh) unless L_+ is finite real."""
        lp = self.terms[self.term_keys.index(("L_plus", 0, 1))]
        out = []
        for l in range(self.lam + 1):
            n, sl = 2 * l + 1, slice(l * l, (l + 1) ** 2)
            up = lp[sl][:-1]                    # psi_l^m to psi_l^{m+1}
            real = np.all(np.isfinite(up)) and not np.any(up.imag)
            vals, vecs = (np.linalg.eigh(tridiagonals(-0.5 * up.real)) if real
                          else (np.full(n, np.nan), np.full((n, n), np.nan)))
            vals.setflags(write=False)
            vecs.setflags(write=False)
            out.append((sl, vals, vecs))
        return tuple(out)


def _angular(lp, l3, l2) -> tuple:
    """(<L>, <L^2>) from the complex means of L_+, L_3 and L^2."""
    return np.array([lp.real, lp.imag, l3.real]), l2.real


def _labels(lam: int) -> tuple:
    """The read-only level l and L_3 eigenvalue m of each basis vector."""
    l_of = np.concatenate([np.full(2 * l + 1, l) for l in range(lam + 1)])
    m_of = np.concatenate([np.arange(-l, l + 1) for l in range(lam + 1)])
    l_of.setflags(write=False)
    m_of.setflags(write=False)
    return l_of, m_of


def _lowering(lam: int, k: float, l, a: int, m):
    """x_a's l-lowering weight c_l A_l^{a,m} at psi_l^m, which it moves to
    psi_{l-1}^{m+a}, for label arrays l (0..lam+1) and m; c_l = sqrt(1 +
    l^2/k) except c_0 = c_{lam+1} = 0."""
    c = np.sqrt(1.0 + np.arange(lam + 2) ** 2 / k)
    c[0] = c[-1] = 0.0
    return c[l] * clebsch_a(l, a, m)


def _x3_blocks(lam: int, down) -> dict:
    """{m: TridiagSpec of x_3 on psi_l^m, l = m..lam}, m = 0..lam, from the
    l-lowering x_3 weight over the basis, whose entry at psi_l^m couples
    psi_{l-1}^m and psi_l^m."""
    l = np.arange(lam + 1)
    at = l * l + l                          # the index of psi_l^0
    return {m: TridiagSpec(down[at[m + 1:] + m]) for m in range(lam + 1)}


def build_sphere(lam: int, k: float | None = None) -> FuzzySphere:
    """Construct the fuzzy sphere at truncation lam (lam = 0 gives the
    one-dimensional space with vanishing coordinates); k defaults to
    max(k_min, 1) and may not lie below k_min."""
    k = sharpness(lam, k, lam_min=0)
    l_of, m_of = _labels(lam)

    # x_a psi_l^m has c_l A_l^{a,m} on psi_{l-1}^{m+a} and c_{l+1} B_l^{a,m}
    # on psi_{l+1}^{m+a}, where B_l^{a,m} = A_{l+1}^{-a,m+a}; L_+ psi_l^m =
    # sqrt((l-m)(l+m+1)) psi_l^{m+1}.  Each weight vanishes where its target
    # does not exist
    rows = []
    for a in (0, 1, -1):
        rows.append(_lowering(lam, k, l_of, a, m_of))
        rows.append(_lowering(lam, k, l_of + 1, -a, m_of + a))
    # x^2 = x_0^2 + (x_+ x_- + x_- x_+)/2 in closed form is 1 + (L^2 + 1)/k
    # less an edge term on the top level, which has no level lam+1 above it
    edge = (1.0 + (lam + 1) ** 2 / k) * (lam + 1) / (2 * lam + 1)
    rows += [np.sqrt((l_of - m_of) * (l_of + m_of + 1)), m_of, l_of * (l_of + 1),
             1.0 + (l_of * (l_of + 1) + 1.0) / k - edge * (l_of == lam)]
    return FuzzySphere(lam=lam, k=k, term_keys=TERM_KEYS,
                       terms=readonly(np.array(rows, dtype=complex)),
                       l_of=l_of, m_of=m_of)


def _relation_rows(ops) -> list:
    """The relation rows on the terms and f, the diagonal of the
    coordinate bracket."""
    from .shift import Op, cartesian

    lp, f = ops["L_plus"], ops["f"]
    x = cartesian(ops["x_plus"], ops["x_minus"], ops["x3"])
    L = cartesian(lp, lp.H, ops["L3"])

    def eps_sum(v, i, j):
        out = Op()
        for h in range(3):
            if EPS[i, j, h] != 0.0:
                out = out + EPS[i, j, h] * v[h]
        return out

    # [L_i, x_j] is not antisymmetric in (i, j), so all 9 pairs are tested;
    # the antisymmetric brackets below vanish at i = j and negate exactly
    # under (i, j) -> (j, i), so the 3 pairs i < j give every residual.
    # The correction factor f = -1/k + K P_lam of the coordinate bracket is
    # diagonal and commutes with every L_h, so the symmetrized form is
    # tested and the two orderings are compared
    pairs = [(0, 1), (0, 2), (1, 2)]
    rows = [("rf3D4/hermitean", a.H, a) for a in x + L]
    rows += [("rf3D4/[L,x]", L[i] @ x[j] - x[j] @ L[i], 1j * eps_sum(x, i, j))
             for i in range(3) for j in range(3)]
    rows += [("rf3D4/[L,L]", L[i] @ L[j] - L[j] @ L[i], 1j * eps_sum(L, i, j))
             for i, j in pairs]
    xdotl = x[0] @ L[0] + x[1] @ L[1] + x[2] @ L[2]
    rows.append(("rf3D4/x.L", xdotl, Op()))
    rows += [("xx/bracket", x[i] @ x[j] - x[j] @ x[i],
              0.5j * (eps_sum(L, i, j) @ f + f @ eps_sum(L, i, j)))
             for i, j in pairs]
    rows += [("xx/bracket-ordering", eps_sum(L, i, j) @ f, f @ eps_sum(L, i, j))
             for i, j in pairs]
    # x_squared is built in closed form, so the sum of squares is formed here
    sq = x[2] @ x[2] + 0.5 * (ops["x_plus"] @ ops["x_minus"]
                              + ops["x_minus"] @ ops["x_plus"])
    rows.append(("xx/r2", sq, ops["x_squared"]))
    rows.append(("D=3Basis/L2", L[0] @ L[0] + L[1] @ L[1] + L[2] @ L[2],
                 ops["l2"]))
    return rows


def verify_sphere_relations(s: FuzzySphere, tol: float = 1e-10) -> Report:
    """Residuals of the defining relations; pass iff all are <= tol.  They
    are evaluated on the shift terms alone."""
    from .shift import check, power_norm

    lam, k = s.lam, s.k
    K = 1.0 / k + (1.0 + lam * lam / k) / (2 * lam + 1)
    f = -1.0 / k + K * (s.l_of == lam)
    rep = check(s, _relation_rows, [((("f", 0, 0),), [f])], tol)

    # L^2 and L_3 are diagonal, so each annihilator polynomial vanishes
    # exactly when every diagonal entry is an allowed eigenvalue: the record
    # is the largest distance of an entry from its nearest one, l(l+1) for
    # l = 0..lam, and the integers -l..l on level l; np.max keeps a NaN
    d_l2, d_l3 = (np.real(s.terms[s.term_keys.index((name, 0, 0))])
                  for name in ("l2", "L3"))
    roots = np.arange(lam + 1.0) * np.arange(1.0, lam + 2.0)
    at = np.searchsorted(roots, d_l2)
    dist = np.minimum(np.abs(d_l2 - roots[np.maximum(at - 1, 0)]),
                      np.abs(d_l2 - roots[np.minimum(at, lam)]))
    rep.add_residual("rf3D3/L2-poly", float(np.max(dist)), tol, lam=lam)
    dist = np.abs(d_l3 - np.clip(np.rint(d_l3), -s.l_of, s.l_of))
    rep.add_residual("rf3D3/L3-poly", float(np.max(dist)), tol, lam=lam)

    nil = np.max([power_norm(s, name, 2 * lam + 1) for name in ("x_plus", "x_minus")])
    rep.add_residual("rf3D3/nilpotent", nil, tol, lam=lam)
    return rep


def coordinate_blocks(lam: int, k: float | None = None) -> dict[int, TridiagSpec]:
    """Tridiagonal blocks X_m of x_3 on span{psi_l^m, l = m..lam}, m >= 0
    (the block for -m coincides with the one for m): bitwise those of
    build_sphere(lam, k), from the build's own weight formula, without a
    build.  k is defaulted and validated as the build does."""
    k = sharpness(lam, k, lam_min=0)
    l_of, m_of = _labels(lam)
    return _x3_blocks(lam, _lowering(lam, k, l_of, 0, m_of))
