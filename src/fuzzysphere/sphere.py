"""The O(3)-covariant fuzzy sphere and the Madore comparator.

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

import functools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circle import min_sharpness
from .linop import diag_annihilator, readonly
from .report import Report
from .spectral import TridiagSpec

# .shift is imported where the relation suite uses it: every command
# imports this module, and only the relation and so(4) suites need the
# shift algebra, so the others do not pay for loading it at start-up

__all__ = ["FuzzySphere", "MadoreSphere", "build_sphere",
           "verify_sphere_relations", "coordinate_blocks", "build_madore",
           "min_sharpness", "clebsch_a"]

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


def _scattered(op: str) -> cached_property:
    """The dense matrix of operator op, its nonzero term weights written
    into (target, source), made on first use."""
    return cached_property(lambda s: s._scatter(op))


@dataclass(frozen=True)
class FuzzySphere:
    """The sphere as read-only shift terms: row j of `terms` is the weight,
    over the source basis index, of the term of operator term_keys[j][0]
    that shifts (l, m) by term_keys[j][1:] (TERM_KEYS for a build).  Every
    dense operator is scattered from these weights on first use."""

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

    def targets(self, keys, sources=None) -> np.ndarray:
        """Target table, one row per key (dl, dm) and one column per source
        basis index (all of them by default): the index of
        psi_{l+dl}^{m+dm} for the source psi_l^m, or dim where that label
        does not exist."""
        grid, base, stride = self._index_grid
        keys = np.asarray(keys, dtype=int).reshape(-1, 2)
        lam = self.lam
        # a shift this far leaves the space from every source, and stays
        # inside the grid's border of invalid labels
        dl = np.minimum(np.maximum(keys[:, 0], -lam - 1), lam + 1)
        dm = np.minimum(np.maximum(keys[:, 1], -2 * lam - 1), 2 * lam + 1)
        at = base if sources is None else base[sources]
        return grid[at + (dl * stride + dm)[:, None]]

    def can_shift(self, lo, hi) -> np.ndarray:
        """For each row of lo and hi, whether some shift (dl, dm) with
        lo <= (dl, dm) <= hi moves some psi_l^m onto another basis vector:
        those shifts have |dl| <= lam and |dl| + |dm| <= 2 lam (l + l' is
        at most 2 lam - |dl|), so the box's point nearest (0, 0) decides."""
        near = np.minimum(np.maximum(lo, 0), hi)
        return ((np.abs(near[:, 0]) <= self.lam)
                & (np.abs(near).sum(axis=1) <= 2 * self.lam))

    @cached_property
    def _index_grid(self) -> tuple:
        """(grid, base, stride): the flat grid holds the basis index of each
        label (l, m), l in [-lam-1, 2lam+1], m in [-3lam-1, 3lam+1], or dim
        where it does not exist; base[i] is the grid position of source i
        and a shift by (dl, dm) adds dl * stride + dm to it."""
        lam = self.lam
        stride = 6 * lam + 3
        grid = np.full((3 * lam + 3, stride), self.dim)
        base = (self.l_of + lam + 1) * stride + self.m_of + 3 * lam + 1
        grid.flat[base] = np.arange(self.dim)
        return grid.ravel(), base, stride

    def _scatter(self, op: str) -> np.ndarray:
        rows = [j for j, key in enumerate(self.term_keys) if key[0] == op]
        t = self.targets([self.term_keys[j][1:] for j in rows])
        w = self.terms[rows]
        nz = (w != 0.0) & (t < self.dim)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        np.add.at(out, (t[nz], np.nonzero(nz)[1]), w[nz])
        return readonly(out)

    # the dense operators, each scattered from its terms on first use
    L3 = _scattered("L3")
    L_plus = _scattered("L_plus")
    l2 = _scattered("l2")                  # L.L, diagonal l(l+1)
    x_plus = _scattered("x_plus")
    x_minus = _scattered("x_minus")
    x3 = _scattered("x3")                  # the a = 0 component x_0
    x_squared = _scattered("x_squared")

    @cached_property
    def L1(self) -> np.ndarray:
        return readonly((self.L_plus + self.L_plus.conj().T) / 2.0)

    @cached_property
    def L2(self) -> np.ndarray:
        return readonly((self.L_plus - self.L_plus.conj().T) / 2.0j)

    @cached_property
    def x1(self) -> np.ndarray:
        return readonly((self.x_plus + self.x_minus) / 2.0)

    @cached_property
    def x2(self) -> np.ndarray:
        return readonly((self.x_plus - self.x_minus) / 2.0j)

    @property
    def x_ops(self):
        return (self.x1, self.x2, self.x3)

    @property
    def L_ops(self):
        return (self.L1, self.L2, self.L3)

    @cached_property
    def l2_eigh(self) -> tuple:
        """(slice, eigenvalues, eigenvectors) of the L_2 block of each level
        l = 0..lam (rows psi_l^-l .. psi_l^l); computed on first use, so
        all the rotations of a space share one eigendecomposition."""
        return _blocks_eigh(self.L2, [slice(l * l, (l + 1) ** 2)
                                      for l in range(self.lam + 1)])


def _blocks_eigh(a: np.ndarray, slices) -> tuple:
    """Read-only eigh of each diagonal block a[sl, sl]."""
    out = []
    for sl in slices:
        vals, vecs = np.linalg.eigh(a[sl, sl])
        vals.setflags(write=False)
        vecs.setflags(write=False)
        out.append((sl, vals, vecs))
    return tuple(out)


def _level_weights(lam: int, k: float) -> np.ndarray:
    """c_l for l = 0..lam+1: sqrt(1 + l^2/k), and 0 at l = 0 and lam+1."""
    l = np.arange(lam + 2)
    c = np.sqrt(1.0 + l * l / k)
    c[0] = c[-1] = 0.0
    return c


def _sharpness(lam: int, k: float | None) -> float:
    """The validated sharpness at truncation lam (lam = 0 is admitted as
    the degenerate one-dimensional case); None gives max(k_min, 1)."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    kmin = min_sharpness(lam)
    k = max(kmin, 1.0) if k is None else float(k)
    if k <= 0 or not k >= kmin * (1 - 1e-12):  # also rejects nan
        raise ValueError(f"k={k} below the admissible minimum {kmin}")
    return k


def _x_squared(lam: int, k: float, l_of: np.ndarray) -> np.ndarray:
    """The diagonal of x^2 = x_0^2 + (x_+ x_- + x_- x_+)/2 in closed form,
    1 + (L^2 + 1)/k less an edge term on the top level, which has no level
    lam+1 above it."""
    edge = (1.0 + (lam + 1) ** 2 / k) * (lam + 1) / (2 * lam + 1)
    return 1.0 + (l_of * (l_of + 1) + 1.0) / k - edge * (l_of == lam)


def build_sphere(lam: int, k: float | None = None) -> FuzzySphere:
    """Construct the fuzzy sphere at truncation lam (lam = 0 gives the
    one-dimensional space with vanishing coordinates)."""
    k = _sharpness(lam, k)

    l_of = np.concatenate([np.full(2 * l + 1, l) for l in range(lam + 1)])
    m_of = np.concatenate([np.arange(-l, l + 1) for l in range(lam + 1)])
    l_of.setflags(write=False)
    m_of.setflags(write=False)

    # x_a psi_l^m has c_l A_l^{a,m} on psi_{l-1}^{m+a} and c_{l+1} B_l^{a,m}
    # on psi_{l+1}^{m+a}; L_+ psi_l^m = sqrt((l-m)(l+m+1)) psi_l^{m+1}.  Each
    # weight vanishes where its target does not exist
    c = _level_weights(lam, k)
    rows = []
    for a in (0, 1, -1):
        rows.append(c[l_of] * clebsch_a(l_of, a, m_of))
        rows.append(c[l_of + 1] * clebsch_a(l_of + 1, -a, m_of + a))  # B_l^{a,m}
    rows += [np.sqrt((l_of - m_of) * (l_of + m_of + 1)), m_of,
             l_of * (l_of + 1), _x_squared(lam, k, l_of)]
    return FuzzySphere(lam=lam, k=k, term_keys=TERM_KEYS,
                       terms=readonly(np.array(rows, dtype=complex)),
                       l_of=l_of, m_of=m_of)


@functools.cache
def _relation_tables(term_keys: tuple):
    """The relation rows compiled for spheres whose terms are labelled
    term_keys; the weight table is the terms, then the diagonal f of the
    coordinate bracket.  Also the rows of x_+ and x_-."""
    from .shift import ZERO, Op, cartesian, compile_checks, stored_ops

    n = len(term_keys)
    ops = stored_ops(term_keys)
    lp = ops["L_plus"]
    x = cartesian(ops["x_plus"], ops["x_minus"], ops["x3"])
    L = cartesian(lp, lp.H, ops["L3"])
    f = Op.atom(n, ZERO)

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
    rows_of = {name: [j for j, key in enumerate(term_keys) if key[0] == name]
               for name in ("x_plus", "x_minus", "l2", "L3")}
    ladders = rows_of["x_plus"] + rows_of["x_minus"]
    ladder_ops = [0] * len(rows_of["x_plus"]) + [1] * len(rows_of["x_minus"])
    return (compile_checks(rows, n + 1), rows_of["l2"], rows_of["L3"],
            (ladders, [term_keys[j][1:] for j in ladders], ladder_ops))


def verify_sphere_relations(s: FuzzySphere, tol: float = 1e-10) -> Report:
    """Residuals of the defining relations; pass iff all are <= tol.  They
    are evaluated on the shift terms alone."""
    from .shift import check_residuals, power_norms

    rep = Report()
    lam, k = s.lam, s.k
    tab, l2_rows, l3_rows, (ladders, ladder_keys, ladder_ops) = \
        _relation_tables(s.term_keys)

    K = 1.0 / k + (1.0 + lam * lam / k) / (2 * lam + 1)
    f = -1.0 / k + K * (s.l_of == lam)
    weights = np.concatenate([s.terms, f[None]])
    for tag, r in zip(tab.tags, check_residuals(tab, weights, s.targets)):
        rep.add_residual(tag, r, tol, lam=lam)

    # both annihilator polynomials act on diagonal operators, so they are
    # evaluated entrywise on the diagonals
    d_l2, d_l3 = (np.real(s.terms[rows].sum(axis=0)) for rows in (l2_rows, l3_rows))
    poly = diag_annihilator(d_l2, [l * (l + 1) for l in range(lam + 1)])
    rep.add_residual("rf3D3/L2-poly", float(np.abs(poly).max()), tol, lam=lam)
    worst = 0.0
    for l in range(lam + 1):
        val = diag_annihilator(d_l3[s.l_of == l], range(-l, l + 1))
        worst = max(worst, float(np.abs(val).max()))
    rep.add_residual("rf3D3/L3-poly", worst, tol, lam=lam)

    nil = power_norms(s.terms[ladders], ladder_keys, ladder_ops, 2 * lam + 1,
                      s.targets, s.can_shift).max()
    rep.add_residual("rf3D3/nilpotent", nil, tol, lam=lam)
    return rep


def coordinate_blocks(lam: int, k: float | None = None) -> dict[int, TridiagSpec]:
    """Tridiagonal blocks X_m of x_3 on span{psi_l^m, l = m..lam}, m >= 0
    (the block for -m coincides with the one for m), from (lam, k) alone;
    k defaults and is validated as in build_sphere."""
    k = _sharpness(lam, k)
    c = _level_weights(lam, k)
    blocks = {}
    for m in range(0, lam + 1):
        l = np.arange(m + 1, lam + 1)   # entry l-1-m couples psi_{l-1}^m, psi_l^m
        blocks[m] = TridiagSpec(c[l] * clebsch_a(l, 0, m))
    return blocks


@dataclass(frozen=True)
class MadoreSphere:
    """Spin-l fuzzy sphere with coordinates L_i / sqrt(l(l+1)); the square
    distance is exactly the identity."""

    l: float
    L1: np.ndarray
    L2: np.ndarray
    L3: np.ndarray
    l2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    x_squared: np.ndarray

    @property
    def dim(self) -> int:
        return int(round(2 * self.l + 1))

    @property
    def x_ops(self):
        return (self.x1, self.x2, self.x3)

    @property
    def L_ops(self):
        return (self.L1, self.L2, self.L3)

    @cached_property
    def l2_eigh(self) -> tuple:
        """FuzzySphere.l2_eigh for a single level: one block."""
        return _blocks_eigh(self.L2, [slice(0, self.dim)])


def build_madore(l: float) -> MadoreSphere:
    """Spin-l comparator; l may be any positive half-integer."""
    two_l = 2 * l
    if two_l <= 0 or abs(two_l - round(two_l)) > 1e-12:
        raise ValueError(f"l must be a positive half-integer, got {l}")
    n = int(round(two_l)) + 1
    ms = l - np.arange(n)               # m = l, l-1, ..., -l
    L3 = np.diag(ms.astype(complex))
    # L_+ raises m = ms[i] to ms[i-1], one row up
    Lp = np.diag(np.sqrt((l - ms[1:]) * (l + ms[1:] + 1)).astype(complex), 1)
    Lm = Lp.conj().T
    L1 = (Lp + Lm) / 2.0
    L2 = (Lp - Lm) / 2.0j
    scale = 1.0 / np.sqrt(l * (l + 1))
    x1, x2, x3 = scale * L1, scale * L2, scale * L3
    return MadoreSphere(
        l=l, L1=readonly(L1), L2=readonly(L2), L3=readonly(L3),
        l2=readonly(L1 @ L1 + L2 @ L2 + L3 @ L3), x1=readonly(x1),
        x2=readonly(x2), x3=readonly(x3),
        x_squared=readonly(sum(xi @ xi for xi in (x1, x2, x3))))

