"""Dense complex operator core.

Everything downstream (coordinates, angular momenta, rotations)
is carried by :class:`Operator`, a labelled dense complex square matrix.
States are normalized complex coefficient vectors over the same basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Operator",
    "State",
    "DimensionMismatchError",
    "NotHermitianError",
    "commutator",
    "hermitian_eig",
    "expm_hermitian_generator",
    "frobenius_residual",
    "diag_annihilator",
]

HERMITIAN_TOL = 1e-12


class DimensionMismatchError(ValueError):
    pass


class NotHermitianError(ValueError):
    pass


def _as_complex(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"operator matrix must be square, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Operator:
    """Immutable dense complex square matrix with a semantic label."""

    mat: np.ndarray
    label: str = ""

    def __post_init__(self):
        a = _as_complex(self.mat)
        a.setflags(write=False)
        object.__setattr__(self, "mat", a)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.mat.conj().T, label=f"{self.label}^dag" if self.label else "")

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        scale = 1.0 + np.abs(self.mat).max()
        return np.abs(self.mat - self.mat.conj().T).max() <= tol * scale

    def relabel(self, label: str) -> "Operator":
        return Operator(self.mat, label=label)

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.mat))

    # basic algebra; dimension mismatches surface as numpy shape errors for
    # + and -, and are checked explicitly for products
    def __add__(self, other):
        return Operator(self.mat + _coerce(other, self.dim))

    def __radd__(self, other):
        return Operator(_coerce(other, self.dim) + self.mat)

    def __sub__(self, other):
        return Operator(self.mat - _coerce(other, self.dim))

    def __rsub__(self, other):
        return Operator(_coerce(other, self.dim) - self.mat)

    def __mul__(self, scalar):
        return Operator(self.mat * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Operator(self.mat / scalar)

    def __neg__(self):
        return Operator(-self.mat)

    def __matmul__(self, other):
        if isinstance(other, State):
            if self.dim != other.dim:
                raise DimensionMismatchError(
                    f"operator dim {self.dim} != state dim {other.dim}")
            return self.mat @ other.coeffs
        other_mat = other.mat if isinstance(other, Operator) else np.asarray(other)
        if self.dim != other_mat.shape[0]:
            raise DimensionMismatchError(
                f"operator dims {self.dim} and {other_mat.shape[0]} differ")
        return Operator(self.mat @ other_mat)

    def expect(self, psi: "State") -> complex:
        """<psi| A |psi>."""
        if self.dim != psi.dim:
            raise DimensionMismatchError(
                f"operator dim {self.dim} != state dim {psi.dim}")
        return complex(psi.coeffs.conj() @ (self.mat @ psi.coeffs))


def _coerce(other, dim):
    if isinstance(other, Operator):
        return other.mat
    if np.isscalar(other):
        return other * np.eye(dim)
    return np.asarray(other, dtype=complex)


@dataclass(frozen=True)
class State:
    """Normalized complex coefficient vector."""

    coeffs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coeffs, dtype=complex)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("state must be a nonempty 1-d coefficient vector")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"state norm {nrm} deviates from 1 beyond 1e-12")
        v.setflags(write=False)
        object.__setattr__(self, "coeffs", v)

    @property
    def dim(self) -> int:
        return self.coeffs.size

    @classmethod
    def normalized(cls, v) -> "State":
        v = np.asarray(v, dtype=complex)
        return cls(v / np.linalg.norm(v))

    @classmethod
    def basis(cls, dim: int, index: int) -> "State":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls(v)

    def overlap(self, other: "State") -> complex:
        return complex(self.coeffs.conj() @ other.coeffs)


def commutator(a: Operator, b: Operator) -> Operator:
    """[a, b] = ab - ba."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"commutator of dims {a.dim} and {b.dim}")
    return Operator(a.mat @ b.mat - b.mat @ a.mat)


def hermitian_eig(a: Operator, tol: float = HERMITIAN_TOL):
    """Eigendecomposition of a hermitian operator.

    Returns (values, vectors) with real eigenvalues in descending order and
    orthonormal eigenvector columns aligned with them.
    """
    if not a.is_hermitian(tol):
        raise NotHermitianError(f"operator {a.label!r} is not hermitian within {tol}")
    vals, vecs = np.linalg.eigh(a.mat)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def expm_hermitian_generator(h: Operator, t: float) -> Operator:
    """exp(i*t*h) for hermitian h, via eigendecomposition; exactly unitary
    up to rounding."""
    vals, vecs = hermitian_eig(h)
    phases = np.exp(1j * t * vals)
    return Operator((vecs * phases) @ vecs.conj().T)


def frobenius_residual(a, b) -> float:
    """Relative Frobenius distance ||a - b||_F / (1 + ||b||_F)."""
    am = a.mat if isinstance(a, Operator) else np.asarray(a)
    bm = b.mat if isinstance(b, Operator) else np.asarray(b)
    return float(np.linalg.norm(am - bm) / (1.0 + np.linalg.norm(bm)))


def diag_annihilator(diag, roots) -> np.ndarray:
    """prod_r (D - r) for the diagonal operator D = diag(diag), entrywise,
    normalized by prod_{r != r0} (r0 - r) with r0 the root nearest each
    entry.  It is taken factor by factor as (d - r) / (r0 - r), so nothing
    overflows however many roots there are, and an entry off its root by
    delta gives about delta.  The roots must be distinct."""
    d = np.asarray(diag)[:, None]
    roots = np.asarray(roots, dtype=float)
    gap = roots[np.abs(d - roots).argmin(axis=1)][:, None] - roots
    return np.prod((d - roots) / np.where(gap == 0, 1.0, gap), axis=1)
