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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circle import min_sharpness
from .linop import diag_annihilator, frobenius_residual, readonly
from .report import Report
from .spectral import TridiagSpec

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


@dataclass(frozen=True)
class FuzzySphere:
    lam: int
    k: float
    L3: np.ndarray
    L_plus: np.ndarray
    L1: np.ndarray
    L2: np.ndarray
    l2: np.ndarray              # L.L, diagonal l(l+1)
    x_plus: np.ndarray
    x_minus: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray              # the a = 0 component x_0
    x_squared: np.ndarray
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
    """x^2 = x_0^2 + (x_+ x_- + x_- x_+)/2 in closed form, 1 + (L^2 + 1)/k
    less an edge term on the top level, which has no level lam+1 above it."""
    edge = (1.0 + (lam + 1) ** 2 / k) * (lam + 1) / (2 * lam + 1)
    return np.diag(1.0 + (l_of * (l_of + 1) + 1.0) / k
                   - edge * (l_of == lam)).astype(complex)


def build_sphere(lam: int, k: float | None = None) -> FuzzySphere:
    """Construct the fuzzy sphere at truncation lam (lam = 0 gives the
    one-dimensional space with vanishing coordinates)."""
    k = _sharpness(lam, k)
    dim = (lam + 1) ** 2

    l_of = np.concatenate([np.full(2 * l + 1, l) for l in range(lam + 1)])
    m_of = np.concatenate([np.arange(-l, l + 1) for l in range(lam + 1)])
    l_of.setflags(write=False)
    m_of.setflags(write=False)

    L3 = np.diag(m_of.astype(complex))
    l2 = np.diag((l_of * (l_of + 1)).astype(complex))

    # L_+ psi_l^m = sqrt((l-m)(l+m+1)) psi_l^{m+1}, the next basis vector,
    # so L_+ is the first subdiagonal; the weight vanishes at m = l, so no
    # entry crosses into the next level
    raise_w = np.sqrt((l_of - m_of) * (l_of + m_of + 1))
    Lp = np.diag(raise_w[:-1].astype(complex), -1)
    Lm = Lp.conj().T
    L1 = (Lp + Lm) / 2.0
    L2 = (Lp - Lm) / 2.0j

    # column l^2 + l + m of x_a holds c_l A_l^{a,m} in row (l-1)^2 + (l-1) +
    # m+a and c_{l+1} B_l^{a,m} in row (l+1)^2 + (l+1) + m+a; only nonzero
    # weights are written, so absent neighbours leave no entry
    c = _level_weights(lam, k)
    cols = np.arange(dim)
    xs = {}
    for a in (0, 1, -1):
        xa = np.zeros((dim, dim), dtype=complex)
        down = c[l_of] * clebsch_a(l_of, a, m_of)
        up = c[l_of + 1] * clebsch_a(l_of + 1, -a, m_of + a)  # B_l^{a,m}
        for w, rows in ((down, l_of * (l_of - 1) + m_of + a),
                        (up, (l_of + 1) * (l_of + 2) + m_of + a)):
            nz = w != 0.0
            xa[rows[nz], cols[nz]] = w[nz]
        xs[a] = xa
    x0, xp, xm = xs[0], xs[1], xs[-1]
    x1 = (xp + xm) / 2.0
    x2 = (xp - xm) / 2.0j
    x_sq = _x_squared(lam, k, l_of)

    return FuzzySphere(
        lam=lam, k=k, L3=readonly(L3), L_plus=readonly(Lp), L1=readonly(L1),
        L2=readonly(L2), l2=readonly(l2), x_plus=readonly(xp),
        x_minus=readonly(xm), x1=readonly(x1), x2=readonly(x2),
        x3=readonly(x0), x_squared=readonly(x_sq), l_of=l_of, m_of=m_of)


def verify_sphere_relations(s: FuzzySphere, tol: float = 1e-10) -> Report:
    """Residuals of the defining relations; pass iff all are <= tol."""
    rep = Report()
    lam, k = s.lam, s.k
    x = [s.x1, s.x2, s.x3]
    L = [s.L1, s.L2, s.L3]
    dim = s.dim

    r = max(frobenius_residual(m.conj().T, m) for m in x + L)
    rep.add_residual("rf3D4/hermitean", r, tol, lam=lam)

    def eps_sum(ops, i, j):
        out = np.zeros((dim, dim), dtype=complex)
        for h in range(3):
            if EPS[i, j, h] != 0.0:
                out += EPS[i, j, h] * ops[h]
        return out

    # [L_i, x_j] is not antisymmetric in (i, j), so all 9 pairs are tested;
    # the antisymmetric brackets below vanish at i = j and negate exactly
    # under (i, j) -> (j, i), so the 3 pairs i < j give every residual
    pairs = [(0, 1), (0, 2), (1, 2)]
    r_lx = max(frobenius_residual(L[i] @ x[j] - x[j] @ L[i], 1j * eps_sum(x, i, j))
               for i in range(3) for j in range(3))
    rep.add_residual("rf3D4/[L,x]", r_lx, tol, lam=lam)
    r_ll = max(frobenius_residual(L[i] @ L[j] - L[j] @ L[i], 1j * eps_sum(L, i, j))
               for i, j in pairs)
    rep.add_residual("rf3D4/[L,L]", r_ll, tol, lam=lam)
    xdotl = sum(x[i] @ L[i] for i in range(3))
    rep.add_residual("rf3D4/x.L", frobenius_residual(xdotl, np.zeros_like(xdotl)),
                     tol, lam=lam)

    # coordinate bracket; the correction factor -1/k + K P_lam is diagonal
    # and commutes with every L_h, so the symmetrized form is tested and the
    # two orderings are compared
    K = 1.0 / k + (1.0 + lam * lam / k) / (2 * lam + 1)
    top = (s.l_of == lam).astype(float)
    f = -1.0 / k + K * top
    r_xx, r_ord = 0.0, 0.0
    for i, j in pairs:
        lh = eps_sum(L, i, j)
        lh_f, f_lh = lh * f, f[:, None] * lh
        sym = 1j * (lh_f + f_lh) / 2.0
        r_xx = max(r_xx, frobenius_residual(x[i] @ x[j] - x[j] @ x[i], sym))
        r_ord = max(r_ord, frobenius_residual(lh_f, f_lh))
    rep.add_residual("xx/bracket", r_xx, tol, lam=lam)
    rep.add_residual("xx/bracket-ordering", r_ord, tol, lam=lam)

    # x_squared is built in closed form, so the sum of squares is formed here
    sq = s.x3 @ s.x3 + (s.x_plus @ s.x_minus + s.x_minus @ s.x_plus) / 2.0
    rep.add_residual("xx/r2", frobenius_residual(sq, s.x_squared), tol, lam=lam)

    lsq = sum(L[i] @ L[i] for i in range(3))
    rep.add_residual("D=3Basis/L2", frobenius_residual(lsq, s.l2), tol, lam=lam)

    # both annihilator polynomials act on diagonal operators, so they are
    # evaluated entrywise on the diagonals
    poly = diag_annihilator(np.real(np.diag(s.l2)),
                            [l * (l + 1) for l in range(lam + 1)])
    rep.add_residual("rf3D3/L2-poly", float(np.abs(poly).max()), tol, lam=lam)
    d_l3 = np.real(np.diag(s.L3))
    worst = 0.0
    for l in range(lam + 1):
        val = diag_annihilator(d_l3[s.l_of == l], range(-l, l + 1))
        worst = max(worst, float(np.abs(val).max()))
    rep.add_residual("rf3D3/L3-poly", worst, tol, lam=lam)

    nil_p = np.linalg.matrix_power(s.x_plus, 2 * lam + 1)
    nil_m = np.linalg.matrix_power(s.x_minus, 2 * lam + 1)
    rep.add_residual("rf3D3/nilpotent",
                     max(frobenius_residual(nil_p, np.zeros_like(nil_p)),
                         frobenius_residual(nil_m, np.zeros_like(nil_m))),
                     tol, lam=lam)
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

