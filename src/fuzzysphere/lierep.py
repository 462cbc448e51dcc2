"""Lie-algebra structure behind the fuzzy spaces.

The circle coordinates are squeezed su(2) ladder operators,
x_+- = sqrt(2) f_+-(E_0) E_+-, and the sphere coordinates are dressed so(4)
generators, x_i = g(lambda) Lhat_{4i} g(lambda) with a positive diagonal
weight g.  Both squeeze factors are invertible on the truncated space, so the
generator sets are reconstructed here by dividing each coordinate shift
term (by f_+- at its target, by g at its source and its target) and then
checked against the Cartan-Weyl relations and the Casimir values that label
the representation.  Rotations enter as pi(g) = exp(i phi L_3)
exp(i theta L_2) exp(i psi L_3), applied to states, one g per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .circle import FuzzyCircle
from .report import Report
from .sphere import FuzzySphere

__all__ = ["EulerAngles", "squeeze_factor_circle", "g_weight",
           "rotate", "verify_su2_reconstruction",
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
        if not (math.isfinite(self.phi) and math.isfinite(self.psi)):
            raise ValueError(f"phi and psi must be finite, got {self.phi}, {self.psi}")
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
    """Diagonal dressing weight g(l).  g(l)^2 is 1/(lam - l + 1) times the
    ratios (lam + l - 2h)/(lam + l + 1 - 2h), h < l, and the ratios of
    sharpness factors (1 + (l - 2j)^2/k)/(1 + (l - 1 - 2j)^2/k); every
    factor lies near 1, so no partial product overflows at any lam."""
    if not 0 <= l <= lam:
        raise ValueError(f"l={l} out of range 0..{lam}")
    g2 = 1.0 / (lam - l + 1)
    for h in range(l):
        g2 *= (lam + l - 2 * h) / (lam + l + 1 - 2 * h)
    for j in range((l - 1) // 2 + 1):
        g2 *= (1.0 + (l - 2 * j) ** 2 / k) / (1.0 + (l - 1 - 2 * j) ** 2 / k)
    return float(np.sqrt(g2))


def rotate(space, g, v: np.ndarray) -> np.ndarray:
    """pi(g) v for a state or a (dim, n) block v, g one rotation for every
    column or a sequence of n, one per column.  On a sphere a rotation is
    an EulerAngles, pi(g) = exp(i phi L_3) exp(i theta L_2) exp(i psi L_3):
    as L_2 = D (-L_1) D^dag, D = e^{i pi L_3 / 2}, e^{i (psi - pi/2) m},
    each level's real V' e^{i theta nu} V'^T (l2_eigh), e^{i (phi + pi/2) m},
    each a (dim, n) array.  On the circle pi(alpha) = exp(i alpha L), alpha
    an angle.  A rotation of the other space's type is a ValueError."""
    out = v.reshape(len(v), -1)
    n = out.shape[1]
    gs = [g] * n if isinstance(g, EulerAngles) or np.ndim(g) == 0 else list(g)
    if len(gs) != n:
        raise ValueError(f"{len(gs)} rotations for a block of {n} columns")
    circle = isinstance(space, FuzzyCircle)
    if any(isinstance(e, EulerAngles) == circle for e in gs):
        raise ValueError("a circle rotation is an angle" if circle
                         else "a sphere rotation is an EulerAngles")
    if circle:
        return (np.exp(1j * np.multiply.outer(space.labels, gs)) * out).reshape(v.shape)
    phi, theta, psi = np.array([(e.phi, e.theta, e.psi) for e in gs]).reshape(-1, 3).T
    out = np.exp(1j * np.multiply.outer(space.m_of, psi - np.pi / 2)) * out
    for sl, vals, vecs in space.l2_eigh:
        x = (vecs.T @ out[sl].view(float)).view(complex)
        x *= np.exp(1j * np.multiply.outer(vals, theta))
        out[sl] = (vecs @ x.view(float)).view(complex)
    out *= np.exp(1j * np.multiply.outer(space.m_of, phi + np.pi / 2))
    return out.reshape(v.shape)


def _su2_rows(ops) -> list:
    """The su(2) rows on the circle's terms, E_+ and E_-, the round trip
    x_plus/back of E_+, that and x_+ each times the mask |n| != lam of the
    source (x_plus/back_kept, x_plus/kept), the mask keep itself and cas,
    the Casimir value lam (lam + 1)."""
    ep, em, e0, keep = ops["E+"], ops["E-"], ops["L"], ops["keep"]
    return [("su2rel/[E+,E-]", ep @ em - em @ ep, e0),
            ("su2rel/[E0,E+]", e0 @ ep - ep @ e0, ep),
            ("su2rel/[E0,E-]", e0 @ em - em @ e0, -em),
            ("su2rel/adjoint", ep.H, em),
            ("isomD2/casimir", ep @ em + e0 @ e0 + em @ ep, ops["cas"]),
            ("transfD2/roundtrip", ops["x_plus/back"], ops["x_plus"]),
            # P X P with P = 1 - P_lam - P_-lam: the source mask is in the
            # kept rows, the target mask is the factor keep
            ("transfD2/roundtrip-offedge", keep @ ops["x_plus/back_kept"],
             keep @ ops["x_plus/kept"])]


def verify_su2_reconstruction(c: FuzzyCircle, tol: float = 1e-10) -> Report:
    """Cartan-Weyl relations, scalar Casimir and squeeze round-trip on the
    shift terms alone.  E_+ = x_+ / (sqrt(2) f_+(E_0)) and E_- = x_- /
    (sqrt(2) f_-(E_0)), f_-(s) = f_+(s+1), each weight divided at its
    target, so su2rel/adjoint compares two independent reconstructions."""
    from .shift import check

    lam, k = c.lam, c.k
    # the factors at the targets of x_+ and x_-; label 0 stands at the
    # missing target dim, where both weights vanish
    up, down = np.append(c.labels, 0)[c.targets([(0, 1), (0, -1)])]
    w, w_minus = (np.sqrt(2.0) * squeeze_factor_circle(s, lam, k) for s in (up, down + 1))
    xp, xm = (c.terms[c.term_keys.index(key)]
              for key in (("x_plus", 0, 1), ("x_minus", 0, -1)))
    ep, keep = xp / w, np.abs(c.labels) != lam
    return check(c, _su2_rows, [
        ((("E+", 0, 1), ("E-", 0, -1)), [ep, xm / w_minus]),
        ((("x_plus/back", 0, 1), ("x_plus/back_kept", 0, 1), ("x_plus/kept", 0, 1)),
         [ep * w, ep * w * keep, xp * keep]),
        ((("keep", 0, 0),), [keep]),
        ((("cas", 0, 0),), [np.full(c.dim, lam * (lam + 1.0))])], tol)


# the coordinates, whose terms so(4) dresses, and the four copies it makes
# of each: the dressed weight, the round trip, and those two kept off the
# top level (see _so4_rows)
_COORDS = ("x_plus", "x_minus", "x3")
_COPIES = ("dressed", "back", "kept", "back_kept")


def _so4_rows(ops) -> list:
    """The so(4) rows on the sphere's terms and, for each coordinate
    term w from l to l', four copies with the key of w: name/dressed, the
    dressed weight -w / (g(l') g(l)); name/back, the round trip g(l') g(l)
    times minus that; name/kept and name/back_kept, w and the round trip
    each times the mask l != lam of the source; then the mask keep itself
    and cas, the Casimir value lam (lam + 2)."""
    from .shift import Op, cartesian

    def coords(suffix):
        return cartesian(*(ops[name + suffix] for name in _COORDS))

    lp = ops["L_plus"]
    L1, L2, L3 = cartesian(lp, lp.H, ops["L3"])
    x = coords("")
    dressed, back, x_kept, back_kept = (coords("/" + copy) for copy in _COPIES)
    keep = ops["keep"]

    gens = {(1, 2): L3, (1, 3): -L2, (2, 3): L1}
    for i in range(3):
        gens[(i + 1, 4)] = dressed[i]
    full = {}
    for (h, i), op in gens.items():
        full[(h, i)] = op
        full[(i, h)] = -op
    for h in range(1, 5):
        full[(h, h)] = Op()

    rows = [("so4rel/hermitean", op.H, op) for op in gens.values()]
    # [A, B] = -[B, A] on both sides and [A, A] = 0, so the 15 unordered
    # pairs of distinct generators cover the whole table
    for (h, i), (j, kk) in combinations(gens, 2):
        lhs = full[(h, i)] @ full[(j, kk)] - full[(j, kk)] @ full[(h, i)]
        rhs = 1j * ((h == j) * full[(i, kk)] - (h == kk) * full[(i, j)]
                    - (i == j) * full[(h, kk)] + (i == kk) * full[(h, j)])
        rows.append(("so4rel/brackets", lhs, rhs))
    sq = Op()
    for op in gens.values():
        sq = sq + op @ op
    rows.append(("isomD3/casimir", sq, ops["cas"]))
    prime = Op()
    for a, b, sign in _PAIRINGS:
        prime = prime + 4.0 * sign * (full[a] @ full[b] + full[b] @ full[a])
    rows.append(("isomD3/casimir-prime", prime, Op()))
    # P X P with P = 1 - P_lam: the source mask is in the kept rows, the
    # target mask is the factor keep
    rows += [("transfD3/roundtrip", back[i], x[i]) for i in range(3)]
    rows += [("transfD3/roundtrip-offedge", keep @ back_kept[i], keep @ x_kept[i])
             for i in range(3)]
    return rows


def verify_so4_reconstruction(s: FuzzySphere, tol: float = 1e-9) -> Report:
    """so(4) bracket table, hermiticity, both Casimirs and the dressing
    round-trip, evaluated on the shift terms alone.  The generators are
    Lhat_{12} = L_3, Lhat_{13} = -L_2, Lhat_{23} = L_1 and Lhat_{i4}, the
    inverse of x_i = g(lambda) Lhat_{4i} g(lambda): each coordinate term
    is divided by g at its source and at its target."""
    from .shift import check

    lam = s.lam
    x_rows = [j for j, key in enumerate(s.term_keys) if key[0] in _COORDS]
    x_keys = [s.term_keys[j] for j in x_rows]
    # g(l) at index l + 1, and 1 at the levels -1 and lam + 1, where every
    # weight to them vanishes
    g = np.array([1.0] + [g_weight(l, lam, s.k) for l in range(lam + 1)] + [1.0])
    g_source = g[s.l_of + 1]
    g_target = g[s.l_of + np.array([[dl + 1] for _, dl, _ in x_keys])]
    w = s.terms[x_rows]
    dressed = -((1.0 / g_target) * (1.0 / g_source)) * w
    back = (g_target * g_source) * -dressed
    keep = s.l_of != lam
    copies = [(tuple((f"{name}/{copy}", dl, dm) for name, dl, dm in x_keys), block)
              for copy, block in zip(_COPIES, (dressed, back, w * keep, back * keep))]
    return check(s, _so4_rows, copies + [
        ((("keep", 0, 0),), [keep]),
        ((("cas", 0, 0),), [np.full(s.dim, lam * (lam + 2.0))])], tol)
