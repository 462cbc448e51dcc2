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

import numpy as np

from .circle import min_sharpness
from .linop import Operator, diag_annihilator, frobenius_residual
from .report import Report
from .spectral import TridiagSpec

__all__ = ["FuzzySphere", "MadoreSphere", "build_sphere",
           "verify_sphere_relations", "coordinate_blocks", "build_madore",
           "madore_min_dispersion", "min_sharpness", "clebsch_a"]

EPS = np.array([[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
                [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
                [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]], dtype=float)


def clebsch_a(l: int, a: int, m: int) -> float:
    """Weight A_l^{a,m} coupling psi_l^m down to psi_{l-1}^{m+a}."""
    if a not in (0, 1, -1):
        raise ValueError(f"component label a must be 0 or +-1, got {a}")
    if l < 1 or abs(m + a) > l - 1:
        return 0.0
    den = (2 * l - 1) * (2 * l + 1)
    if a == 0:
        return float(np.sqrt((l + m) * (l - m) / den))
    if a == 1:
        return float(np.sqrt((l - m) * (l - m - 1) / den))
    return -float(np.sqrt((l + m) * (l + m - 1) / den))


@dataclass(frozen=True)
class FuzzySphere:
    lam: int
    k: float
    L3: Operator
    L_plus: Operator
    L_minus: Operator
    L1: Operator
    L2: Operator
    l2: Operator                # L.L, diagonal l(l+1)
    x0: Operator
    x_plus: Operator
    x_minus: Operator
    x1: Operator
    x2: Operator
    x3: Operator
    x_squared: Operator
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

    @property
    def l2_op(self) -> Operator:
        return self.l2


def _level_weight(l: int, lam: int, k: float) -> float:
    if l < 1 or l > lam:
        return 0.0
    return float(np.sqrt(1.0 + l * l / k))


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


def build_sphere(lam: int, k: float | None = None) -> FuzzySphere:
    """Construct the fuzzy sphere at truncation lam (lam = 0 gives the
    one-dimensional space with vanishing coordinates)."""
    k = _sharpness(lam, k)
    dim = (lam + 1) ** 2
    idx = lambda l, m: l * l + l + m

    l_of = np.concatenate([np.full(2 * l + 1, l) for l in range(lam + 1)])
    m_of = np.concatenate([np.arange(-l, l + 1) for l in range(lam + 1)])
    l_of.setflags(write=False)
    m_of.setflags(write=False)

    L3 = np.diag(m_of.astype(complex))
    l2 = np.diag((l_of * (l_of + 1)).astype(complex))

    Lp = np.zeros((dim, dim), dtype=complex)
    for l in range(lam + 1):
        for m in range(-l, l):
            Lp[idx(l, m + 1), idx(l, m)] = np.sqrt((l - m) * (l + m + 1))
    Lm = Lp.conj().T
    L1 = (Lp + Lm) / 2.0
    L2 = (Lp - Lm) / 2.0j

    xs = {}
    for a in (0, 1, -1):
        xa = np.zeros((dim, dim), dtype=complex)
        for l in range(lam + 1):
            cl = _level_weight(l, lam, k)
            cl1 = _level_weight(l + 1, lam, k)
            for m in range(-l, l + 1):
                down = clebsch_a(l, a, m)
                if cl != 0.0 and down != 0.0:
                    xa[idx(l - 1, m + a), idx(l, m)] = cl * down
                if cl1 != 0.0 and abs(m + a) <= l + 1:
                    up = clebsch_a(l + 1, -a, m + a)  # B_l^{a,m}
                    if up != 0.0:
                        xa[idx(l + 1, m + a), idx(l, m)] = cl1 * up
        xs[a] = xa
    x0, xp, xm = xs[0], xs[1], xs[-1]
    x1 = (xp + xm) / 2.0
    x2 = (xp - xm) / 2.0j
    x_sq = x0 @ x0 + (xp @ xm + xm @ xp) / 2.0

    return FuzzySphere(
        lam=lam, k=k,
        L3=Operator(L3, label="L_3"), L_plus=Operator(Lp, label="L_+"),
        L_minus=Operator(Lm, label="L_-"), L1=Operator(L1, label="L_1"),
        L2=Operator(L2, label="L_2"), l2=Operator(l2, label="L^2"),
        x0=Operator(x0, label="x_0"), x_plus=Operator(xp, label="x_+"),
        x_minus=Operator(xm, label="x_-"), x1=Operator(x1, label="x_1"),
        x2=Operator(x2, label="x_2"), x3=Operator(x0, label="x_3"),
        x_squared=Operator(x_sq, label="x^2"), l_of=l_of, m_of=m_of)


def verify_sphere_relations(s: FuzzySphere, tol: float = 1e-10) -> Report:
    """Residuals of the defining relations; pass iff all are <= tol."""
    rep = Report()
    lam, k = s.lam, s.k
    x = [s.x1.mat, s.x2.mat, s.x3.mat]
    L = [s.L1.mat, s.L2.mat, s.L3.mat]
    dim = s.dim
    eye = np.eye(dim)

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

    edge = (1.0 + (lam + 1) ** 2 / k) * (lam + 1) / (2 * lam + 1)
    rhs = eye + (s.l2.mat + eye) / k - edge * np.diag(top)
    rep.add_residual("xx/r2", frobenius_residual(s.x_squared.mat, rhs), tol, lam=lam)

    lsq = sum(L[i] @ L[i] for i in range(3))
    rep.add_residual("D=3Basis/L2", frobenius_residual(lsq, s.l2.mat), tol, lam=lam)

    # both annihilator polynomials act on diagonal operators, so they are
    # evaluated entrywise on the diagonals
    poly = diag_annihilator(np.real(np.diag(s.l2.mat)),
                            [l * (l + 1) for l in range(lam + 1)])
    rep.add_residual("rf3D3/L2-poly", float(np.abs(poly).max()), tol, lam=lam)
    d_l3 = np.real(np.diag(s.L3.mat))
    worst = 0.0
    for l in range(lam + 1):
        val = diag_annihilator(d_l3[s.l_of == l], range(-l, l + 1))
        worst = max(worst, float(np.abs(val).max()))
    rep.add_residual("rf3D3/L3-poly", worst, tol, lam=lam)

    nil_p = np.linalg.matrix_power(s.x_plus.mat, 2 * lam + 1)
    nil_m = np.linalg.matrix_power(s.x_minus.mat, 2 * lam + 1)
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
    blocks = {}
    for m in range(0, lam + 1):
        off = np.array([_level_weight(l + 1, lam, k) * clebsch_a(l + 1, 0, m)
                        for l in range(m, lam)])
        blocks[m] = TridiagSpec(off)
    return blocks


@dataclass(frozen=True)
class MadoreSphere:
    """Spin-l fuzzy sphere with coordinates L_i / sqrt(l(l+1)); the square
    distance is exactly the identity."""

    l: float
    L1: Operator
    L2: Operator
    L3: Operator
    x1: Operator
    x2: Operator
    x3: Operator

    @property
    def dim(self) -> int:
        return int(round(2 * self.l + 1))

    @property
    def x_ops(self):
        return (self.x1, self.x2, self.x3)

    @property
    def L_ops(self):
        return (self.L1, self.L2, self.L3)

    @property
    def l2_op(self) -> Operator:
        m = self.L1.mat @ self.L1.mat + self.L2.mat @ self.L2.mat \
            + self.L3.mat @ self.L3.mat
        return Operator(m, label="L^2")

    @property
    def x_squared(self) -> Operator:
        m = sum(xi.mat @ xi.mat for xi in self.x_ops)
        return Operator(m, label="x^2")


def build_madore(l: float) -> MadoreSphere:
    """Spin-l comparator; l may be any positive half-integer."""
    two_l = 2 * l
    if two_l <= 0 or abs(two_l - round(two_l)) > 1e-12:
        raise ValueError(f"l must be a positive half-integer, got {l}")
    n = int(round(two_l)) + 1
    ms = l - np.arange(n)               # m = l, l-1, ..., -l
    L3 = np.diag(ms.astype(complex))
    Lp = np.zeros((n, n), dtype=complex)
    for i in range(1, n):
        m = ms[i]
        Lp[i - 1, i] = np.sqrt((l - m) * (l + m + 1))
    Lm = Lp.conj().T
    L1 = (Lp + Lm) / 2.0
    L2 = (Lp - Lm) / 2.0j
    scale = 1.0 / np.sqrt(l * (l + 1))
    return MadoreSphere(l=l,
                        L1=Operator(L1, label="L_1"), L2=Operator(L2, label="L_2"),
                        L3=Operator(L3, label="L_3"),
                        x1=Operator(scale * L1, label="x_1"),
                        x2=Operator(scale * L2, label="x_2"),
                        x3=Operator(scale * L3, label="x_3"))


def madore_min_dispersion(ms: MadoreSphere) -> float:
    """Minimum spatial dispersion over normalized states; equals 1/(l+1)."""
    from .coherent import minimize_dispersion
    _, value = minimize_dispersion(ms)
    return value
