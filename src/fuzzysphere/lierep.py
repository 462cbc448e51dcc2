"""Lie-algebra structure behind the fuzzy spaces.

The circle coordinates are squeezed su(2) ladder operators,
x_+- = sqrt(2) f_+-(E_0) E_+-, and the sphere coordinates are dressed so(4)
generators, x_i = g(lambda) Lhat_{4i} g(lambda) with a positive diagonal
weight g.  Both squeeze factors are invertible on the truncated space, so the
generator sets are reconstructed here by entrywise division and then checked
against the Cartan-Weyl relations and the Casimir values that label the
representation.  Rotations enter as pi(g) = exp(i phi L_3) exp(i theta L_2)
exp(i psi L_3) together with their classical 3x3 counterparts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .circle import FuzzyCircle
from .linop import frobenius_residual, readonly
from .report import Report
from .sphere import FuzzySphere

__all__ = ["EulerAngles", "squeeze_factor_circle", "g_weight",
           "rotation_operator", "rotation_operator_circle", "classical_rotation",
           "classical_rotation_2d", "verify_su2_reconstruction",
           "verify_so4_reconstruction"]

TWO_PI = 2.0 * np.pi

# the three ways to split (1, 2, 3, 4) into two pairs, with the sign of
# eps_{HIJK}; eps_{HIJK} L_HI L_JK summed over all 24 permutations is
# 4 * sum over these of sign * (L_HI L_JK + L_JK L_HI)
_PAIRINGS = (((1, 2), (3, 4), 1.0), ((1, 3), (2, 4), -1.0),
             ((1, 4), (2, 3), 1.0))


@dataclass(frozen=True)
class EulerAngles:
    """zyz Euler angles; phi and psi wrap, theta is a colatitude."""

    phi: float
    theta: float
    psi: float

    def __post_init__(self):
        if not -1e-12 <= self.theta <= np.pi + 1e-12:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)
        object.__setattr__(self, "theta", float(min(max(self.theta, 0.0), np.pi)))
        object.__setattr__(self, "psi", float(self.psi) % TWO_PI)


def squeeze_factor_circle(s, lam: int, k: float):
    """f_+(s); the lowering factor is f_-(s) = f_+(s+1).  s may be an
    array of labels."""
    s = np.asarray(s)
    den = lam * (lam + 1) - s * (s - 1)
    if np.any(den <= 0):
        raise ValueError(f"squeeze factor undefined at s={s[den <= 0]} "
                         f"for lam={lam}")
    return np.sqrt((1.0 + s * (s - 1) / k) / den)


def g_weight(l: int, lam: int, k: float) -> float:
    """Diagonal dressing weight g(l) in finite-product form."""
    if not 0 <= l <= lam:
        raise ValueError(f"l={l} out of range 0..{lam}")
    num = 1.0
    for h in range(l):
        num *= lam + l - 2 * h
    den = 1.0
    for h in range(l + 1):
        den *= lam + l + 1 - 2 * h
    ratio = 1.0
    for j in range((l - 1) // 2 + 1):
        ratio *= (1.0 + (l - 2 * j) ** 2 / k) / (1.0 + (l - 1 - 2 * j) ** 2 / k)
    return float(np.sqrt(num / den * ratio))


def _so4_parts(s: FuzzySphere):
    """Invert x_i = g(lambda) Lhat_{4i} g(lambda); returns the generators
    Lhat_{HI} (H < I), their full antisymmetric table and the matrices of
    both Casimirs, sum Lhat_{HI}^2 and eps_{HIJK} Lhat_{HI} Lhat_{JK}, and
    the dressing weight g(l) of every basis vector."""
    g = np.array([g_weight(l, s.lam, s.k) for l in range(s.lam + 1)])[s.l_of]
    dress = np.outer(1.0 / g, 1.0 / g)

    gens = {(1, 2): s.L3, (1, 3): readonly(-s.L2), (2, 3): s.L1}
    for i, xi in enumerate((s.x1, s.x2, s.x3), start=1):
        gens[(i, 4)] = readonly(-dress * xi)

    full = {}
    for (h, i), op in gens.items():
        full[(h, i)] = op
        full[(i, h)] = -op
    for h in range(1, 5):
        full[(h, h)] = np.zeros((s.dim, s.dim), dtype=complex)
    cas = np.zeros((s.dim, s.dim), dtype=complex)
    for op in gens.values():
        cas += op @ op
    cas_prime = np.zeros((s.dim, s.dim), dtype=complex)
    for a, b, sign in _PAIRINGS:
        cas_prime += 4.0 * sign * (full[a] @ full[b] + full[b] @ full[a])
    return gens, full, cas, cas_prime, g


def rotation_operator(s: FuzzySphere, g: EulerAngles) -> np.ndarray:
    """pi(g) = exp(i phi L_3) exp(i theta L_2) exp(i psi L_3); unitary and
    block-diagonal over the angular-momentum levels.  L_3 is diagonal, so
    the outer factors are phases e^{i phi m} on the rows and e^{i psi m} on
    the columns of the block-diagonal middle factor, whose level blocks
    share the space's one eigendecomposition l2_eigh."""
    u = np.zeros((s.dim, s.dim), dtype=complex)
    for sl, vals, vecs in s.l2_eigh:
        u[sl, sl] = (vecs * np.exp(1j * g.theta * vals)) @ vecs.conj().T
    m = np.real(np.diag(s.L3))
    u *= np.exp(1j * g.phi * m)[:, None]
    u *= np.exp(1j * g.psi * m)
    return u


def rotation_operator_circle(c: FuzzyCircle, alpha: float) -> np.ndarray:
    """exp(i alpha L); diagonal phases e^{i alpha n}."""
    return np.diag(np.exp(1j * alpha * c.labels))


def classical_rotation(g: EulerAngles) -> np.ndarray:
    """3x3 matrix by which <x> transforms under pi(g); its action on e_3
    gives the orbit direction u_g = (-sin t cos p, sin t sin p, cos t)."""
    cp, sp = np.cos(g.phi), np.sin(g.phi)
    ct, st = np.cos(g.theta), np.sin(g.theta)
    cs, ss = np.cos(g.psi), np.sin(g.psi)
    r3_phi = np.array([[cp, sp, 0.0], [-sp, cp, 0.0], [0.0, 0.0, 1.0]])
    r2_theta = np.array([[ct, 0.0, -st], [0.0, 1.0, 0.0], [st, 0.0, ct]])
    r3_psi = np.array([[cs, ss, 0.0], [-ss, cs, 0.0], [0.0, 0.0, 1.0]])
    return r3_phi @ r2_theta @ r3_psi


def classical_rotation_2d(alpha: float) -> np.ndarray:
    """2x2 matrix by which <x> transforms under exp(i alpha L)."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    return np.array([[ca, sa], [-sa, ca]])


def verify_su2_reconstruction(c: FuzzyCircle, tol: float = 1e-10) -> Report:
    """Cartan-Weyl relations, scalar Casimir and squeeze round-trip.  The
    ladders are reconstructed separately, E_+ = x_+ / (sqrt(2) f_+(E_0))
    and E_- = x_- / (sqrt(2) f_-(E_0)) with f_-(s) = f_+(s+1), each on the
    rows its coordinate reaches (x_+ leaves the bottom row empty, x_- the
    top one), so su2rel/adjoint compares two independent reconstructions."""
    rep = Report()
    lam, k = c.lam, c.k
    w = np.sqrt(2.0) * squeeze_factor_circle(c.labels[:-1], lam, k)
    w_minus = np.sqrt(2.0) * squeeze_factor_circle(c.labels[1:] + 1, lam, k)
    ep, em = np.array(c.x_plus), np.array(c.x_minus)
    ep[:-1] /= w[:, None]
    em[1:] /= w_minus[:, None]
    e0 = c.L
    eye = np.eye(c.dim)

    rep.add_residual("su2rel/[E+,E-]", frobenius_residual(ep @ em - em @ ep, e0),
                     tol, lam=lam)
    rep.add_residual("su2rel/[E0,E+]", frobenius_residual(e0 @ ep - ep @ e0, ep),
                     tol, lam=lam)
    rep.add_residual("su2rel/[E0,E-]", frobenius_residual(e0 @ em - em @ e0, -em),
                     tol, lam=lam)
    rep.add_residual("su2rel/adjoint", frobenius_residual(ep.conj().T, em),
                     tol, lam=lam)
    cas = ep @ em + e0 @ e0 + em @ ep
    rep.add_residual("isomD2/casimir",
                     frobenius_residual(cas, lam * (lam + 1) * eye), tol, lam=lam)

    # forward squeeze re-applied to the reconstructed ladder
    xp_back = np.array(ep)
    xp_back[:-1] *= w[:, None]
    rep.add_residual("transfD2/roundtrip", frobenius_residual(xp_back, c.x_plus),
                     tol, lam=lam)
    keep = np.abs(c.labels) != lam
    off_edge = np.outer(keep, keep)             # P X P with P = 1 - P_lam - P_-lam
    rep.add_residual("transfD2/roundtrip-offedge",
                     frobenius_residual(xp_back * off_edge,
                                        c.x_plus * off_edge),
                     tol, lam=lam)
    return rep


def verify_so4_reconstruction(s: FuzzySphere, tol: float = 1e-9) -> Report:
    """so(4) bracket table, hermiticity, both Casimirs and the dressing
    round-trip."""
    rep = Report()
    lam = s.lam
    gens, full, cas, cas_prime, g = _so4_parts(s)
    eye = np.eye(s.dim)

    r_herm = max(frobenius_residual(op.conj().T, op) for op in gens.values())
    rep.add_residual("so4rel/hermitean", r_herm, tol, lam=lam)

    # [A, B] = -[B, A] on both sides and [A, A] = 0, so the 15 unordered
    # pairs of distinct generators cover the whole table
    r_br = 0.0
    for (h, i), (j, kk) in combinations(gens, 2):
        lhs = full[(h, i)] @ full[(j, kk)] - full[(j, kk)] @ full[(h, i)]
        rhs = 1j * ((h == j) * full[(i, kk)] - (h == kk) * full[(i, j)]
                    - (i == j) * full[(h, kk)] + (i == kk) * full[(h, j)])
        r_br = max(r_br, frobenius_residual(lhs, rhs))
    rep.add_residual("so4rel/brackets", r_br, tol, lam=lam)

    rep.add_residual("isomD3/casimir",
                     frobenius_residual(cas, lam * (lam + 2) * eye), tol, lam=lam)
    rep.add_residual("isomD3/casimir-prime", float(np.linalg.norm(cas_prime)),
                     tol, lam=lam)

    dress = np.outer(g, g)
    r_rt, r_rt_off = 0.0, 0.0
    keep = s.l_of != lam
    off_edge = np.outer(keep, keep)             # P X P with P = 1 - P_lam
    for i, xi in enumerate((s.x1, s.x2, s.x3), start=1):
        x_back = dress * (-full[(i, 4)])        # g(l') Lhat_{4i} g(l)
        r_rt = max(r_rt, frobenius_residual(x_back, xi))
        r_rt_off = max(r_rt_off, frobenius_residual(x_back * off_edge,
                                                    xi * off_edge))
    rep.add_residual("transfD3/roundtrip", r_rt, tol, lam=lam)
    rep.add_residual("transfD3/roundtrip-offedge", r_rt_off, tol, lam=lam)
    return rep
