"""Dense complex array core.

Every operator downstream (coordinates, angular momenta, rotations) is a
plain complex square ndarray; the spaces hold theirs read-only, made so by
:func:`readonly`.  States are normalized complex coefficient vectors over
the same basis.  Several states travel together as the columns of a
(dim, n) block; :func:`unit_columns` checks every column's norm, and a
:class:`State` is that check on a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "State",
    "unit_columns",
    "normalized_columns",
    "random_states",
    "readonly",
    "expect",
    "expm_hermitian_generator",
    "frobenius_residual",
    "diag_annihilator",
]


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


@dataclass(frozen=True)
class State:
    """Normalized complex coefficient vector: a block of one column."""

    coeffs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coeffs, dtype=complex)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("state must be a nonempty 1-d coefficient vector")
        unit_columns(v[:, None])
        v.setflags(write=False)
        object.__setattr__(self, "coeffs", v)

    @property
    def dim(self) -> int:
        return self.coeffs.size

    @classmethod
    def normalized(cls, v) -> "State":
        v = np.asarray(v, dtype=complex)
        if v.ndim != 1:
            raise ValueError("state must be a nonempty 1-d coefficient vector")
        return cls(normalized_columns(v[:, None])[:, 0])

    @classmethod
    def basis(cls, dim: int, index: int) -> "State":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls(v)

    def overlap(self, other: "State") -> complex:
        return complex(self.coeffs.conj() @ other.coeffs)


def expect(a: np.ndarray, psi: State) -> complex:
    """<psi| a |psi>."""
    return complex(psi.coeffs.conj() @ (a @ psi.coeffs))


def expm_hermitian_generator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(i*t*h) for hermitian h, via eigendecomposition; exactly unitary
    up to rounding."""
    vals, vecs = np.linalg.eigh(h)
    phases = np.exp(1j * t * vals)
    return (vecs * phases) @ vecs.conj().T


def frobenius_residual(a, b) -> float:
    """Relative Frobenius distance ||a - b||_F / (1 + ||b||_F)."""
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))


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
