"""Spectral toolkit for hermitian tridiagonal matrices with zero diagonal.

Covers all eigenvalues to a tolerance (in _sturm: numpy's dense eigvalsh
where Sturm counts, the negative pivots of an LDL^T factorization, certify
them, Sturm-count bisection elsewhere), spectrum symmetry / interlacing /
simplicity checks, and the theorem reports for the coordinate matrices of
the fuzzy circle and sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _sturm
from .linop import Stream
from .report import CheckRecord, Report

__all__ = [
    "TridiagSpec",
    "Spectrum",
    "eig_bisection",
    "eig_bisection_many",
    "toeplitz_spectrum",
    "check_spectrum_symmetry",
    "check_interlacing",
    "random_rephasing",
    "agrees_with_dense",
    "alpha1_bound",
    "bisection_tol",
    "spectrum_invariance_under_phases",
    "circle_diag_report",
    "sphere_diag_report",
]

SIMPLE_GAP_FACTOR = 10.0


def bisection_tol(tol: float) -> float:
    """The tolerance every check at tol bisects to: tol, but at most 1e-12."""
    return min(tol, 1e-12)


@dataclass(frozen=True)
class TridiagSpec:
    """Hermitian tridiagonal matrix with identically zero diagonal,
    described by its superdiagonal entries a_1 ... a_{n-1}."""

    offdiag: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.offdiag, dtype=complex))
        a.setflags(write=False)
        object.__setattr__(self, "offdiag", a)

    @property
    def n(self) -> int:
        return self.offdiag.size + 1

    def abs2(self) -> np.ndarray:
        return np.abs(self.offdiag) ** 2

    def dense(self) -> np.ndarray:
        return _sturm.tridiagonals(self.offdiag)

    def gershgorin_radius(self) -> float:
        return 2.0 * float(np.abs(self.offdiag).max(initial=0.0))


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues in descending order."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if np.any(np.diff(v) > 0):
            raise ValueError("spectrum values must be descending")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size


def eig_bisection(t: TridiagSpec, tol: float = 1e-12) -> Spectrum:
    """All eigenvalues, each within tol/2 of its own (tol floored at 4 units
    in the last place of the radius): LAPACK's where two Sturm counts
    certify them, else by Sturm-count bisection."""
    return eig_bisection_many([t], tol)[0]


def eig_bisection_many(specs, tol: float = 1e-12) -> list[Spectrum]:
    """eig_bisection of every matrix in specs, in one batched kernel call
    (certified LAPACK values, else bisected); each spectrum is bitwise the
    same whatever else is in specs, so eig_bisection is its batch of one.
    A matrix with an |a_k|^2 beyond the floats (or NaN) is refused."""
    if not 0 < tol < np.inf:
        raise ValueError("bisection tolerance must be positive and finite")
    radii = [t.gershgorin_radius() for t in specs]
    for i, half in enumerate(0.5 * r for r in radii):
        if not half * half < np.inf:
            raise ValueError(f"matrix {i} of the batch: |a_k| = {half:g} squares to inf")
    values = _sturm.bisect_many([t.abs2() for t in specs],
                                [r + tol for r in radii], tol)
    return [Spectrum(v) for v in values]


def toeplitz_spectrum(n: int) -> np.ndarray:
    """Closed-form descending spectrum cos(h*pi/(n+1)) of the constant-1/2
    off-diagonal tridiagonal of size n."""
    h = np.arange(1, n + 1)
    return np.cos(h * np.pi / (n + 1))


def check_spectrum_symmetry(s: Spectrum, tol: float = 1e-10) -> bool:
    """True iff the eigenvalue multiset is invariant under negation."""
    v = s.values
    return bool(np.max(np.abs(v + v[::-1])) <= tol)


def check_interlacing(inner: Spectrum, outer: Spectrum) -> bool:
    """Strict interlacing of an n-spectrum between an (n+1)-spectrum."""
    if outer.n != inner.n + 1:
        raise ValueError(
            f"outer spectrum must have exactly one more eigenvalue "
            f"(got {outer.n} vs {inner.n})")
    a, b = outer.values, inner.values
    return bool(np.all(a[:-1] > b) and np.all(b > a[1:]))


def random_rephasing(t: TridiagSpec, rng) -> TridiagSpec:
    """t with each off-diagonal entry turned by its own uniform random
    phase; it has the same |a_k|^2, so by the proposition the same
    spectrum."""
    return TridiagSpec(t.offdiag * np.exp(2j * np.pi * rng.random(t.n - 1)))


def agrees_with_dense(values, mats, tol: float) -> bool:
    """True iff the descending values agree within tol with numpy's dense
    eigvalsh of every matrix in mats, all of the values' size: one stacked
    eigvalsh of them all."""
    dense = _sturm.tridiagonals(np.array([m.offdiag for m in mats]))
    return bool(np.max(np.abs(values - np.linalg.eigvalsh(dense)[:, ::-1])) <= tol)


def spectrum_invariance_under_phases(t: TridiagSpec, rng=None,
                                     tol: float = 1e-10) -> bool:
    """True iff the eig_bisection spectrum, which sees only |a_k|^2 (LAPACK's
    values for |a_k| off the diagonal where the counts certify them,
    bisected elsewhere), agrees within tol with numpy's dense eigvalsh of
    the complex hermitian matrix and of a random rephasing of its
    off-diagonal entries, drawn from rng (default linop.Stream(0)).  It
    takes t alone, at bisection_tol(tol); to check many matrices in one kernel
    call, pass each spectrum of eig_bisection_many to agrees_with_dense, as
    the CLI's spectra suite does."""
    if rng is None:
        rng = Stream(0)
    values = eig_bisection(t, bisection_tol(tol)).values
    return agrees_with_dense(values, (t, random_rephasing(t, rng)), tol)


def alpha1_bound(d: int, lam: int) -> float | None:
    """The theorems' lower bound on the top coordinate eigenvalue: on the
    circle (d = 1), and on the sphere (d = 2) from lam = 2 on (else None)."""
    if d == 1:
        return 1.0 - np.pi ** 2 / (8.0 * (lam + 1) ** 2)
    return 1.0 - np.pi ** 2 / (2.0 * (lam + 2) ** 2) if lam >= 2 else None


def circle_diag_report(lam_min: int, lam_max: int, k=None,
                       tol: float = 1e-10) -> Report:
    """Spectrum symmetry, interlacing of the positive halves, top-eigenvalue
    bound and simplicity for the circle coordinate matrices."""
    from .circle import coordinate_matrix

    report = Report()
    bis_tol = bisection_tol(tol)
    lams = range(lam_min, lam_max + 2)
    circle_spectra = dict(zip(lams, eig_bisection_many(
        [coordinate_matrix(lam, k) for lam in lams], bis_tol)))
    for lam in range(lam_min, lam_max + 1):
        s_now, s_next = circle_spectra[lam], circle_spectra[lam + 1]
        report.add_verdict("diag-circle/symmetry",
                           check_spectrum_symmetry(s_now, tol), lam)
        # the theorem interlaces the positive halves (sizes differ by 2 overall)
        top_in = Spectrum(s_now.values[:lam])
        top_out = Spectrum(s_next.values[:lam + 1])
        report.add_verdict("diag-circle/interlacing",
                           check_interlacing(top_in, top_out), lam)
        bound = alpha1_bound(1, lam)
        a1 = s_now.values[0]
        report.add(CheckRecord(tag="diag-circle/alpha1-bound", lam=lam,
                               value=float(a1), bound=float(bound),
                               passed=bool(a1 >= bound)))
        gaps = -np.diff(s_now.values)
        report.add_verdict("diag-circle/simple", gaps.min(initial=np.inf)
                           > SIMPLE_GAP_FACTOR * bis_tol, lam)
    return report


def sphere_diag_report(lam_min: int, lam_max: int, k=None,
                       tol: float = 1e-10) -> Report:
    """Per-block symmetry, interlacing, simplicity, m-monotonicity and the
    top-eigenvalue bound for the sphere coordinate matrices."""
    from .sphere import coordinate_blocks

    report = Report()
    bis_tol = bisection_tol(tol)
    blocks = {(lam, m): blk for lam in range(lam_min, lam_max + 2)
              for m, blk in coordinate_blocks(lam, k).items()}
    spectra = dict(zip(blocks, eig_bisection_many(list(blocks.values()), bis_tol)))
    for lam in range(lam_min, lam_max + 1):
        alpha1 = []
        for m in range(0, lam + 1):
            s_now, s_next = spectra[lam, m], spectra[lam + 1, m]
            alpha1.append(s_now.values[0])
            report.add_verdict("diag-sphere/symmetry",
                               check_spectrum_symmetry(s_now, tol), lam, m)
            report.add_verdict("diag-sphere/interlacing",
                               check_interlacing(s_now, s_next), lam, m)
            if s_now.n > 1:
                gaps = -np.diff(s_now.values)
                report.add_verdict("diag-sphere/simple", gaps.min()
                                   > SIMPLE_GAP_FACTOR * bis_tol, lam, m)
        report.add_verdict("diag-sphere/alpha1-monotone",
                           np.all(np.diff(alpha1) < 0), lam)
        bound = alpha1_bound(2, lam)
        if bound is not None:
            report.add(CheckRecord(tag="diag-sphere/alpha1-bound", lam=lam, m=0,
                                   value=float(alpha1[0]), bound=float(bound),
                                   passed=bool(alpha1[0] >= bound)))
    return report

