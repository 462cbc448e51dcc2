"""The O(2)-covariant fuzzy circle.

The Hilbert space at truncation lam is spanned by angular-momentum
eigenvectors psi_n, n = lam, lam-1, ..., -lam (stored in that descending
order, so the coordinate matrix of x1 is read off directly).  The ladder
coordinates act as

    x_+ psi_n = sqrt(1 + n(n+1)/k) psi_{n+1},   x_- = x_+^dag,

which makes every algebraic relation below an exact identity of the
construction; the sharpness parameter obeys k >= lam^2 (lam+1)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import diag_annihilator, frobenius_residual, readonly
from .report import Report
from .spectral import TridiagSpec

__all__ = ["FuzzyCircle", "build_circle", "verify_circle_relations",
           "coordinate_matrix", "min_sharpness", "ladder_coefficient"]


def min_sharpness(lam: int) -> float:
    return float(lam * lam * (lam + 1) * (lam + 1))


def ladder_coefficient(n, k: float):
    """Coefficient of psi_{n+1} in x_+ psi_n; n may be an array of labels."""
    return np.sqrt(1.0 + n * (n + 1) / k)


@dataclass(frozen=True)
class FuzzyCircle:
    lam: int
    k: float
    labels: np.ndarray          # angular momentum labels, descending
    L: np.ndarray
    l2: np.ndarray              # L^2
    x_plus: np.ndarray
    x_minus: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x_squared: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.lam + 1

    def index(self, n: int) -> int:
        """Basis index of psi_n."""
        if abs(n) > self.lam:
            raise ValueError(f"label n={n} out of range for lam={self.lam}")
        return self.lam - n

    # the coherent-state calls, on the dense matrices (dim is 2 lam + 1)
    def expect(self, ops, v: np.ndarray) -> np.ndarray:
        """<A> of each column of the (dim, n) block v, one row per matrix A
        in ops; with the states as contiguous rows, each sum over the basis
        is numpy's pairwise sum."""
        rows = np.ascontiguousarray(v.T)
        conj = rows.conj()
        return np.array([np.real(np.sum(conj * (rows @ a.T), axis=1))
                         for a in ops])

    def moments(self, v: np.ndarray) -> tuple:
        """(<x>, <x^2>, <L>, <L^2>) of each column of v, <x> (2, n), <L> (1, n)."""
        m = self.expect((self.x1, self.x2, self.L, self.x_squared, self.l2), v)
        return m[:2], m[3], m[2:3], m[4]

    def sectors(self) -> list:
        """One sector, the whole space: [(indices, real x^2, real x_1)]."""
        return [(np.arange(self.dim), np.real(self.x_squared), np.real(self.x1))]

    def h_eff(self, b, v: np.ndarray) -> tuple:
        """(E_0, H(b) v) for H(b) = x^2 - 2 b.x and a 1-d v, E_0 its
        lowest eigenvalue."""
        h = self.x_squared - 2.0 * sum(bi * xi for bi, xi
                                       in zip(b, (self.x1, self.x2)))
        return np.linalg.eigvalsh(h)[0], h @ v


def _sharpness(lam: int, k: float | None) -> float:
    """The validated sharpness at truncation lam; None gives the minimal
    admissible one, which maximizes the corrections."""
    if lam < 1:
        raise ValueError(f"lam must be >= 1, got {lam}")
    kmin = min_sharpness(lam)
    k = kmin if k is None else float(k)
    if not k >= kmin * (1 - 1e-12):  # also rejects nan
        raise ValueError(f"k={k} below the admissible minimum {kmin}")
    return k


def _x_squared(lam: int, k: float, labels: np.ndarray) -> np.ndarray:
    """x^2 = (x_+ x_- + x_- x_+)/2 in closed form, 1 + L^2/k less half an
    edge term at n = +-lam, where one of the two ladder steps leaves."""
    edge = 1.0 + lam * (lam + 1) / k
    return np.diag(1.0 + labels * labels / k
                   - edge * (np.abs(labels) == lam) / 2.0).astype(complex)


def build_circle(lam: int, k: float | None = None) -> FuzzyCircle:
    """Construct the fuzzy circle at truncation lam (default sharpness is
    the minimal admissible one)."""
    k = _sharpness(lam, k)
    labels = np.arange(lam, -lam - 1, -1)
    L = np.diag(labels.astype(complex))
    # psi_n sits at index lam-n, psi_{n+1} one row above: x_+ is the first
    # superdiagonal, whose column j holds the coefficient of labels[j]
    xp = np.diag(ladder_coefficient(labels[1:], k).astype(complex), 1)
    xm = xp.conj().T
    return FuzzyCircle(
        lam=lam, k=k, labels=labels, L=readonly(L), l2=readonly(L @ L),
        x_plus=readonly(xp), x_minus=readonly(xm),
        x1=readonly((xp + xm) / 2.0), x2=readonly((xp - xm) / 2.0j),
        x_squared=readonly(_x_squared(lam, k, labels)))


def verify_circle_relations(c: FuzzyCircle, tol: float = 1e-10) -> Report:
    """Residuals of the defining relations; pass iff all are <= tol."""
    rep = Report()
    lam, k, dim = c.lam, c.k, c.dim
    L, xp, xm = c.L, c.x_plus, c.x_minus

    rep.add_residual("commrelD=2'/[L,x+]", frobenius_residual(L @ xp - xp @ L, xp),
                     tol, lam=lam)
    rep.add_residual("commrelD=2'/[L,x-]", frobenius_residual(L @ xm - xm @ L, -xm),
                     tol, lam=lam)
    rep.add_residual("commrelD=2'/adjoint", frobenius_residual(xp.conj().T, xm),
                     tol, lam=lam)
    rep.add_residual("commrelD=2'/L-herm", frobenius_residual(L.conj().T, L),
                     tol, lam=lam)

    edge = 1.0 + lam * (lam + 1) / k
    p_top = np.diag(c.labels == lam).astype(float)
    p_bot = np.diag(c.labels == -lam).astype(float)
    rhs_comm = -2.0 * L / k + edge * (p_top - p_bot)
    rep.add_residual("y+y-", frobenius_residual(xp @ xm - xm @ xp, rhs_comm),
                     tol, lam=lam)

    # x_squared is built in closed form, so the sum of squares is formed here
    sq = (xp @ xm + xm @ xp) / 2.0
    rep.add_residual("defR2D=2", frobenius_residual(sq, c.x_squared),
                     tol, lam=lam)

    # L is diagonal, so prod_n (L - n) is evaluated entrywise on its diagonal
    poly = diag_annihilator(np.diag(L), range(-lam, lam + 1))
    rep.add_residual("commrelD=2/L-poly", float(np.abs(poly).max()), tol, lam=lam)
    nil = np.linalg.matrix_power(xp, dim)
    rep.add_residual("commrelD=2/nilpotent", frobenius_residual(nil, np.zeros_like(nil)),
                     tol, lam=lam)
    return rep


def coordinate_matrix(lam: int, k: float | None = None) -> TridiagSpec:
    """The symmetric tridiagonal matrix of x1 in the descending basis
    {psi_lam, ..., psi_-lam}, from (lam, k) alone; k defaults and is
    validated as in build_circle.  k = inf gives the Toeplitz limit, every
    off-diagonal exactly 1/2."""
    k = _sharpness(lam, k)
    # row i couples psi_{lam-i} and psi_{lam-i-1}
    off = 0.5 * ladder_coefficient(np.arange(lam - 1, -lam - 1, -1), k)
    return TridiagSpec(off)
