"""The spin-l Madore sphere, a dense comparator for the minimizer and the
rotations.

Its coordinates are L_i / sqrt(l(l+1)), so the square distance is exactly
the identity and the dispersion minimum is 1/(l+1) in closed form.  It
answers the calls that the coherent-state functions make of a space
(moments, sectors, apply) and those of lierep.rotate (m_of, l2_eigh) with
its dense matrices.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from dense_oracle import expect
from fuzzysphere.linop import readonly


@dataclass(frozen=True)
class MadoreSphere:
    """Spin-l fuzzy sphere with coordinates L_i / sqrt(l(l+1)); the basis
    runs m = l, l-1, ..., -l."""

    lam = None                  # no truncation: its records carry no lambda

    l: float
    m_of: np.ndarray
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

    def moments(self, v: np.ndarray) -> tuple:
        x2, l2 = expect((self.x_squared, self.l2), v)
        return (expect((self.x1, self.x2, self.x3), v), x2,
                expect((self.L1, self.L2, self.L3), v), l2)

    def sectors(self):
        """One 1x1 sector per m, m = l first."""
        for i in range(self.dim):
            yield (np.array([i]), np.ones(1),
                   np.real(self.x_squared[i:i + 1, i:i + 1]),
                   np.real(self.x3[i:i + 1, i:i + 1]))

    def apply(self, rows: np.ndarray, ops) -> list:
        """Each operator in ops applied to each row of rows, a (n, dim)
        array of states, by its dense matrix; x_+- = x_1 +- i x_2."""
        mats = {"x_squared": self.x_squared, "x3": self.x3,
                "x_plus": self.x1 + 1j * self.x2, "x_minus": self.x1 - 1j * self.x2}
        return [rows @ mats[op].T for op in ops]

    @cached_property
    def l2_eigh(self) -> tuple:
        """The sphere's l2_eigh for a single level: one block, the real
        eigh of -L_1, whose eigenvectors V' give L_2's as diag(i^m) V'."""
        vals, vecs = np.linalg.eigh(-np.real(self.L1))
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return ((slice(0, self.dim), vals, vecs),)


def build_madore(l: float) -> MadoreSphere:
    """Spin-l comparator; l may be any positive half-integer."""
    two_l = 2 * l
    if two_l <= 0 or abs(two_l - round(two_l)) > 1e-12:
        raise ValueError(f"l must be a positive half-integer, got {l}")
    n = int(round(two_l)) + 1
    ms = l - np.arange(n)               # m = l, l-1, ..., -l
    ms.setflags(write=False)
    L3 = np.diag(ms.astype(complex))
    # L_+ raises m = ms[i] to ms[i-1], one row up
    Lp = np.diag(np.sqrt((l - ms[1:]) * (l + ms[1:] + 1)).astype(complex), 1)
    Lm = Lp.conj().T
    L1 = (Lp + Lm) / 2.0
    L2 = (Lp - Lm) / 2.0j
    scale = 1.0 / np.sqrt(l * (l + 1))
    x1, x2, x3 = scale * L1, scale * L2, scale * L3
    return MadoreSphere(
        l=l, m_of=ms, L1=readonly(L1), L2=readonly(L2), L3=readonly(L3),
        l2=readonly(L1 @ L1 + L2 @ L2 + L3 @ L3), x1=readonly(x1),
        x2=readonly(x2), x3=readonly(x3),
        x_squared=readonly(sum(xi @ xi for xi in (x1, x2, x3))))
