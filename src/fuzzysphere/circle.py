"""The O(2)-covariant fuzzy circle.

The Hilbert space at truncation lam is spanned by angular-momentum
eigenvectors psi_n, n = lam, lam-1, ..., -lam (stored in that descending
order, index lam - n, so the coordinate matrix of x1 is read off
directly).  The ladder coordinates act as

    x_+ psi_n = sqrt(1 + n(n+1)/k) psi_{n+1},   x_- = x_+^dag,

which makes every algebraic relation below an exact identity of the
construction; the sharpness parameter obeys k >= lam^2 (lam+1)^2.  As on
the sphere, operators are shift terms: key (0, dn) moves psi_n to psi_{n+dn}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._sturm import tridiagonals
from .linop import ShiftTerms, readonly
from .report import Report
from .spectral import TridiagSpec

__all__ = ["FuzzyCircle", "build_circle", "verify_circle_relations",
           "coordinate_matrix", "min_sharpness", "ladder_coefficient"]

# the stored terms of every circle as (operator, 0, dn), one weight row each
TERM_KEYS = (("x_plus", 0, 1), ("x_minus", 0, -1), ("L", 0, 0), ("l2", 0, 0),
             ("x_squared", 0, 0))


def min_sharpness(lam: int) -> float:
    return float(lam * lam * (lam + 1) * (lam + 1))


def ladder_coefficient(n, k: float):
    """Coefficient of psi_{n+1} in x_+ psi_n; n may be an array of labels."""
    return np.sqrt(1.0 + n * (n + 1) / k)


@dataclass(frozen=True)
class FuzzyCircle(ShiftTerms):
    """The circle as read-only shift terms (see linop.ShiftTerms)."""

    lam: int
    k: float
    labels: np.ndarray          # angular momentum labels, descending
    term_keys: tuple
    terms: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.lam + 1

    def index(self, n: int) -> int:
        """Basis index of psi_n."""
        if abs(n) > self.lam:
            raise ValueError(f"label n={n} out of range for lam={self.lam}")
        return self.lam - n

    def targets(self, keys) -> np.ndarray:
        """Target table, row j for key j = (dl, dn), column i for the source
        psi_n: index lam - n - dn, or dim where dl != 0 or |n + dn| > lam."""
        keys = np.asarray(keys, dtype=int).reshape(-1, 2)
        n = self.labels + keys[:, 1:]
        return np.where((keys[:, :1] == 0) & (np.abs(n) <= self.lam),
                        self.lam - n, self.dim)

    def can_shift(self, lo, hi) -> np.ndarray:
        """For each row of lo and hi, whether some shift lo <= (dl, dn) <= hi
        has dl = 0 and |dn| <= 2 lam, so moves some psi_n onto a basis vector."""
        near = np.minimum(np.maximum(lo, 0), hi)
        return (near[:, 0] == 0) & (np.abs(near[:, 1]) <= 2 * self.lam)

    def moments(self, v: np.ndarray) -> tuple:
        """(<x>, <x^2>, <L>, <L^2>) of each column of the (dim, n) block v,
        <x> (2, n) from <x_+> = <x_1> + i <x_2>, <L> (1, n)."""
        xp, L, l2, x2 = self._means(v, ("x_plus", "L", "l2", "x_squared"))
        return np.array([xp.real, xp.imag]), x2.real, np.array([L.real]), l2.real

    def sectors(self):
        """One sector, the even half, cut from the terms when reached; why
        it holds the minimizer and E_0 is in coherent.minimize_dispersion.
        The half has lam + 1 coordinates: j < lam is (psi_{lam-j} +
        psi_{j-lam}) / sqrt 2 and j = lam is psi_0.  Its x^2 and x_1 blocks
        are the top-left (lam+1)^2 blocks of the whole space's, with the
        coupling of psi_+-1 to psi_0 scaled by sqrt 2."""
        lam = self.lam
        x2, up = (np.real(self.terms[self.term_keys.index(key)])
                  for key in (("x_squared", 0, 0), ("x_plus", 0, 1)))
        # x_+ moves index i + 1 to i with weight up[i + 1]
        off = up[1:lam + 1] / 2.0
        off[-1] *= np.sqrt(2.0)
        j = np.arange(lam + 1)
        weight = np.full(lam + 1, np.sqrt(0.5))
        weight[-1] = 1.0
        yield (np.array([j, 2 * lam - j]), weight, np.diag(x2[:lam + 1]),
               tridiagonals(off))


def sharpness(lam: int, k: float | None, lam_min: int = 1) -> float:
    """The validated sharpness at truncation lam >= lam_min; None gives
    max(k_min, 1), from lam 1 on the least admissible k, which maximizes
    the corrections."""
    if lam < lam_min:
        raise ValueError(f"lam must be >= {lam_min}, got {lam}")
    kmin = min_sharpness(lam)
    k = max(kmin, 1.0) if k is None else float(k)
    if np.isnan(k):
        raise ValueError("k=nan is not a number")
    if k <= 0 or k < kmin * (1 - 1e-12):
        raise ValueError(f"k={k} below the admissible minimum {kmin}")
    return k


def build_circle(lam: int, k: float | None = None) -> FuzzyCircle:
    """Construct the fuzzy circle at truncation lam (default sharpness is
    the minimal admissible one)."""
    k = sharpness(lam, k)
    labels = np.arange(lam, -lam - 1, -1)
    labels.setflags(write=False)
    # x_+ weighs c(n) at psi_n and x_- c(n-1), 0 where they leave; x^2 =
    # (x_+ x_- + x_- x_+)/2 in closed form is 1 + L^2/k less half an edge
    # term at n = +-lam, where one of the two steps leaves
    edge = 1.0 + lam * (lam + 1) / k
    rows = [np.where(labels < lam, ladder_coefficient(labels, k), 0.0),
            np.where(labels > -lam, ladder_coefficient(labels - 1, k), 0.0),
            labels, labels * labels,
            1.0 + labels * labels / k - edge * (np.abs(labels) == lam) / 2.0]
    return FuzzyCircle(lam=lam, k=k, labels=labels, term_keys=TERM_KEYS,
                       terms=readonly(np.array(rows, dtype=complex)))


def _relation_rows(ops) -> list:
    """The relation rows on the terms and comm, the rhs of [x_+, x_-]."""
    L, xp, xm = ops["L"], ops["x_plus"], ops["x_minus"]
    # x_squared is built in closed form, so the sum of squares is formed here
    return [("commrelD=2'/[L,x+]", L @ xp - xp @ L, xp),
            ("commrelD=2'/[L,x-]", L @ xm - xm @ L, -xm),
            ("commrelD=2'/adjoint", xp.H, xm), ("commrelD=2'/L-herm", L.H, L),
            ("y+y-", xp @ xm - xm @ xp, ops["comm"]),
            ("defR2D=2", 0.5 * (xp @ xm + xm @ xp), ops["x_squared"])]


def verify_circle_relations(c: FuzzyCircle, tol: float = 1e-10) -> Report:
    """Residuals of the defining relations; pass iff all are <= tol.  They
    are evaluated on the shift terms alone, by the shift algebra, which is
    imported here, on first use, as in sphere.py."""
    from .shift import check, power_norm

    lam, k, n = c.lam, c.k, c.labels
    # [x_+, x_-] = -2 L/k + edge (P_lam - P_-lam)
    edge = 1.0 + lam * (lam + 1) / k
    comm = -2.0 * n / k + edge * np.sign(n) * (np.abs(n) == lam)
    rep = check(c, _relation_rows, [((("comm", 0, 0),), [comm])], tol)

    # L is diagonal, so prod_n (L - n) vanishes exactly when every diagonal
    # entry is an integer in -lam..lam: the record is the largest distance
    # of an entry from its nearest one; np.max keeps a NaN
    d_l = np.real(c.terms[c.term_keys.index(("L", 0, 0))])
    dist = np.abs(d_l - np.clip(np.rint(d_l), -lam, lam))
    rep.add_residual("commrelD=2/L-poly", float(np.max(dist)), tol, lam=lam)
    nil = power_norm(c, "x_plus", c.dim)
    rep.add_residual("commrelD=2/nilpotent", nil, tol, lam=lam)
    return rep


def coordinate_matrix(lam: int, k: float | None = None) -> TridiagSpec:
    """The symmetric tridiagonal matrix of x1 in the descending basis
    {psi_lam, ..., psi_-lam}, from (lam, k) alone; k defaults and is
    validated as in build_circle.  k = inf gives the Toeplitz limit, every
    off-diagonal exactly 1/2."""
    k = sharpness(lam, k)
    # row i couples psi_{lam-i} and psi_{lam-i-1}
    return TridiagSpec(0.5 * ladder_coefficient(np.arange(lam - 1, -lam - 1, -1), k))
