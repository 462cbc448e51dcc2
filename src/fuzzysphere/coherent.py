"""Coherent states, uncertainty relations and dispersion minimization.

The strong families come with exact resolutions of the identity; because
every integrand built from the truncated representation is a trigonometric
polynomial of bounded degree, uniform azimuthal grids of 4*lam+3 points and
Gauss-Legendre rules with 4*lam+4 nodes in cos(theta) integrate them exactly,
so the identity checks are rounding-level assertions rather than convergence
studies.  The weak families are orbits of the dispersion minimizer.  Its
minimum is min over beta of beta^2 + E_0(beta), with E_0 the ground energy
of x^2 - 2 beta x_ref along one reference axis; both terms commute with L_3,
so each step solves one small real block per L_3 sector.  The fixed point
beta <- <x_ref> starts at the top eigenvalue of x_ref and, E_0 being
concave, only goes down, so it ends without a tolerance or restarts.

The moments behind the uncertainty relations are taken over a block of
states at once: `dispersion` and `check_heisenberg_circle` accept a State
or a (dim, n) block of unit columns, and each operator's expectations over
the block come from one matrix product and one contraction with V^*.  A
State is a block of one and goes through the same code, so the
random-state checks cost one pass per block rather than one call per
state.

All functions accept any space exposing the read-only complex arrays x_ops
(the coordinates), L_ops (the angular momenta), l2 (L^2) and x_squared (the
square distance); the fuzzy circle, the fuzzy sphere and the Madore
comparator all do, and the three-dimensional ones also expose L3 and x3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lierep import (EulerAngles, l2_rotation_blocks, rotation_operator,
                     rotation_operator_circle)
from .linop import State, unit_columns
from .report import CheckRecord, Report

__all__ = ["DispersionReport", "dispersion",
           "check_heisenberg_circle", "strong_scs_circle",
           "verify_identity_resolution_circle", "spin_cs",
           "strong_scs_sphere_phi", "random_omega_weights",
           "verify_identity_resolution_sphere", "minimize_dispersion",
           "weak_scs_orbit", "verify_weak_orbit"]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class DispersionReport:
    """Position and angular-momentum moments of a state; for a block of n
    states every field gains a last axis of length n, one entry per
    column."""

    x_mean: np.ndarray
    x2_mean: float | np.ndarray
    x_var: float | np.ndarray   # (Delta x)^2
    L_mean: np.ndarray
    l2_mean: float | np.ndarray
    L_var: float | np.ndarray   # (Delta L)^2


def _columns(psi) -> np.ndarray:
    """psi as a (dim, n) block of unit columns: a State is a block of one."""
    if isinstance(psi, State):
        return psi.coeffs[:, None]
    return unit_columns(psi)


def _block_moments(space, v: np.ndarray, extra=()) -> tuple:
    """DispersionReport fields of the columns of v, and <A> of each operator
    in extra, all from one pass over the block.  The states are laid out as
    contiguous rows, so each sum over the basis is numpy's pairwise sum,
    as accurate as one BLAS dot product per state."""
    rows = np.ascontiguousarray(v.T)
    conj = rows.conj()

    def means(ops):
        return np.array([np.real(np.sum(conj * (rows @ a.T), axis=1))
                         for a in ops])
    x_mean, L_mean = means(space.x_ops), means(space.L_ops)
    x2, l2, *more = means((space.x_squared, space.l2, *extra))
    fields = (x_mean, x2, x2 - np.sum(x_mean * x_mean, axis=0),
              L_mean, l2, l2 - np.sum(L_mean * L_mean, axis=0))
    return fields, more


def dispersion(space, psi) -> DispersionReport:
    """Moments of psi, a State or a (dim, n) block of unit columns; the
    dispersions are the O(D)-invariant variances.  A State's report holds
    plain numbers and length-D mean vectors, exactly the first column of
    its block-of-one report."""
    fields, _ = _block_moments(space, _columns(psi))
    if isinstance(psi, State):
        fields = [f[:, 0] if f.ndim == 2 else float(f[0]) for f in fields]
    return DispersionReport(*fields)


def _slack_record(tag, lhs, rhs, lam, tol) -> CheckRecord:
    """lhs >= rhs up to tol; over a block, the record holds the worst
    column, and a NaN anywhere fails it."""
    slack = float(np.min(lhs - rhs))
    return CheckRecord(tag=tag, lam=lam, value=slack, bound=0.0,
                       residual=float(max(0.0, -slack)),
                       passed=bool(slack >= -tol))


def check_heisenberg_circle(c, psi, tol: float = 1e-12) -> Report:
    """The three covariant uncertainty inequalities on the fuzzy circle, for
    a State or for every column of a block of unit states.  For a block,
    each of the three records holds its worst column, so the report passes
    exactly when every state passes all three."""
    (x_mean, _, x_var, _, _, L_var), (sq1, sq2) = _block_moments(
        c, _columns(psi), (c.x1 @ c.x1, c.x2 @ c.x2))
    ex1, ex2 = x_mean
    dL = np.sqrt(np.maximum(L_var, 0.0))
    var1 = np.maximum(sq1 - ex1 ** 2, 0.0)
    var2 = np.maximum(sq2 - ex2 ** 2, 0.0)
    rep = Report()
    rep.add(_slack_record("HURS^1/Lx1", dL * np.sqrt(var1), np.abs(ex2) / 2.0,
                          c.lam, tol))
    rep.add(_slack_record("HURS^1/Lx2", dL * np.sqrt(var2), np.abs(ex1) / 2.0,
                          c.lam, tol))
    rep.add(_slack_record("HURS^1/product", L_var * x_var,
                          (ex1 ** 2 + ex2 ** 2) / 4.0, c.lam, tol))
    return rep


def _strong_circle_columns(c, beta, alphas) -> np.ndarray:
    """The strong states omega_alpha^beta for each alpha in alphas, as the
    columns of a block."""
    beta = np.asarray(beta, dtype=float)
    if beta.size != c.dim:
        raise ValueError(f"beta must have {c.dim} entries, got {beta.size}")
    phases = np.multiply.outer(c.labels, alphas) + beta[:, None]
    return np.exp(1j * phases) / np.sqrt(c.dim)


def strong_scs_circle(c, beta: np.ndarray, alpha: float) -> State:
    """omega_alpha^beta = sum_n e^{i(alpha n + beta_n)} psi_n / sqrt(2L+1);
    beta is indexed like the basis (n descending from lam to -lam)."""
    return State(_strong_circle_columns(c, beta, [alpha])[:, 0])


def _gram(states: np.ndarray, weights) -> np.ndarray:
    """Weighted sum of projectors onto the columns of `states`."""
    w = np.asarray(weights, dtype=float)
    return (states * w) @ states.conj().T


def verify_identity_resolution_circle(c, beta=None, npoints: int | None = None,
                                      tol: float = 1e-10) -> Report:
    """Quadrature check of (2L+1)/(2pi) int dalpha P_alpha^beta = id."""
    if beta is None:
        beta = np.zeros(c.dim)
    if npoints is None:
        npoints = 4 * c.lam + 3
    alphas = TWO_PI * np.arange(npoints) / npoints
    states = unit_columns(_strong_circle_columns(c, beta, alphas))
    total = c.dim / npoints * _gram(states, np.ones(npoints))
    resid = float(np.linalg.norm(total - np.eye(c.dim)))
    rep = Report()
    rep.add_residual("IdResolS^1_L", resid, tol, lam=c.lam)
    return rep


def spin_cs(s, l: int, g: EulerAngles) -> State:
    """Rotated highest-weight state pi(g) psi_l^l."""
    if not 0 <= l <= s.lam:
        raise ValueError(f"l={l} out of range 0..{s.lam}")
    psi = State.basis(s.dim, s.index(l, l))
    return State(rotation_operator(s, g) @ psi.coeffs)


def strong_scs_sphere_phi(s, beta: np.ndarray, g: EulerAngles) -> State:
    """phi_g^beta: the m=0 superposition with sqrt(2l+1) weights, rotated."""
    beta = np.asarray(beta, dtype=float)
    if beta.size != s.lam + 1:
        raise ValueError(f"beta must have {s.lam + 1} entries, got {beta.size}")
    v = np.zeros(s.dim, dtype=complex)
    for l in range(s.lam + 1):
        v[s.index(l, 0)] = np.exp(1j * beta[l]) * np.sqrt(2 * l + 1) / (s.lam + 1)
    return State(rotation_operator(s, g) @ State(v).coeffs)


def random_omega_weights(s, rng) -> np.ndarray:
    """Random seed vector omega with the per-level norms (2l+1)/(lam+1)^2
    required for a strong family."""
    v = np.zeros(s.dim, dtype=complex)
    for l in range(s.lam + 1):
        block = rng.normal(size=2 * l + 1) + 1j * rng.normal(size=2 * l + 1)
        block *= np.sqrt(2 * l + 1) / ((s.lam + 1) * np.linalg.norm(block))
        v[s.index(l, -l):s.index(l, l) + 1] = block
    return v


def _polar_nodes(lam: int):
    """Gauss-Legendre nodes/weights in cos(theta), mapped to theta."""
    nodes, weights = np.polynomial.legendre.leggauss(4 * lam + 4)
    return np.arccos(nodes), weights


_SPHERE_RESOLUTION_TAGS = {"spin": "ResolIdS^2_L",
                           "omega": "ResolIdS^2_Lomegagen",
                           "phi": "ResolIdS^2_Lphi"}


def _identity_sum_sphere(s, family: str, omega=None, beta=None) -> np.ndarray:
    """Quadrature sum of one strong family's weighted projectors; it is the
    identity exactly when the nodes integrate the family exactly.

    The rotated states are never stacked.  With D_phi = e^{i phi L_3}
    diagonal, the azimuthal sum sum_phi D_phi G D_phi^dag is the entrywise
    product W * G with W = A A^dag, A[m, phi] = e^{i phi m}.  W is taken
    from the grid itself, so a grid too coarse to cancel the off-diagonal
    terms still shows in W.  Each polar node then costs one block-diagonal
    exp(i theta L_2) applied on both sides.
    """
    lam, dim = s.lam, s.dim
    if family not in _SPHERE_RESOLUTION_TAGS:
        raise ValueError(f"unknown family {family!r}")
    n_az = 4 * lam + 3
    phis = TWO_PI * np.arange(n_az) / n_az
    thetas, w_th = _polar_nodes(lam)
    az_phases = np.exp(1j * np.outer(s.m_of, phis))  # columns: e^{i phi L_3}
    weave = az_phases @ az_phases.conj().T
    rot_theta = l2_rotation_blocks(s)

    # the third Euler angle is either a pure phase on the seed columns (spin
    # and phi families) or sampled on its own uniform grid (omega), whose
    # sum over the seed projectors is again an entrywise product with W
    gram = None
    if family == "spin":
        seeds = np.zeros((dim, lam + 1), dtype=complex)
        for l in range(lam + 1):
            seeds[s.index(l, l), l] = np.sqrt(2 * l + 1)
        norm = TWO_PI / n_az / (4.0 * np.pi)
    elif family == "omega":
        if omega is None:
            raise ValueError("the omega family needs a seed vector")
        omega = np.asarray(omega, dtype=complex)
        defects = {}
        for l in range(lam + 1):
            block = omega[s.index(l, -l):s.index(l, l) + 1]
            target = (2 * l + 1) / (lam + 1) ** 2
            defect = abs(float(np.vdot(block, block).real) - target)
            if defect > 1e-12:
                defects[l] = defect
        if defects:
            raise ValueError(f"weight condition violated, per-l defect: {defects}")
        # sum over psi of |e^{i psi L_3} omega><...|
        gram = weave * np.outer(omega, omega.conj())
        norm = (lam + 1) ** 2 * (TWO_PI / n_az) ** 2 / (8.0 * np.pi ** 2)
    else:
        if beta is None:
            beta = np.zeros(lam + 1)
        beta = np.asarray(beta, dtype=float)
        v = np.zeros(dim, dtype=complex)
        for l in range(lam + 1):
            v[s.index(l, 0)] = np.exp(1j * beta[l]) * np.sqrt(2 * l + 1) / (lam + 1)
        seeds = v[:, None]
        norm = (lam + 1) ** 2 * (TWO_PI / n_az) / (4.0 * np.pi)

    total = np.zeros((dim, dim), dtype=complex)
    for theta, wt in zip(thetas, w_th):
        blocks = rot_theta(theta)
        if gram is None:
            mid = np.empty_like(seeds)
            for sl, r in blocks:
                mid[sl] = r @ seeds[sl]
            total += wt * (mid @ mid.conj().T)
        else:
            sandwich = np.empty_like(gram)
            for sl, r in blocks:
                sandwich[sl] = r @ gram[sl]
            for sl, r in blocks:
                sandwich[:, sl] = sandwich[:, sl] @ r.conj().T
            total += wt * sandwich
    return norm * (weave * total)


def verify_identity_resolution_sphere(s, family: str, omega=None, beta=None,
                                      tol: float = 1e-8) -> Report:
    """Quadrature check of the three strong-family identity resolutions.

    family "spin": sum_l (2l+1)/(4pi) over S^2 of |pi(g) psi_l^l><...|
    (the third Euler angle only contributes a phase, so its integral is an
    exact factor 2pi already absorbed in the weight).
    family "omega": (lam+1)^2/(8pi^2) over SO(3) with a seed omega obeying
    the per-level weight condition.
    family "phi": (lam+1)^2/(4pi) over S^2 with the m=0 seed phi^beta.
    """
    total = _identity_sum_sphere(s, family, omega, beta)
    rep = Report()
    rep.add_residual(_SPHERE_RESOLUTION_TAGS[family],
                     float(np.linalg.norm(total - np.eye(s.dim))), tol,
                     lam=s.lam)
    return rep


def minimize_dispersion(space):
    """Minimize (Delta x)^2 over unit states; returns (state, minimum).

    For every unit state and vector b, <x^2> - 2 b.<x> + |b|^2 equals
    (Delta x)^2 + |<x> - b|^2, so the minimum is min_b |b|^2 + E_0(b) with
    E_0(b) the ground energy of x^2 - 2 b.x.  By rotation invariance b may
    lie on the reference axis (x_1 on the circle, x_3 on a sphere), and
    H(beta) = x^2 - 2 beta x_ref splits into small real blocks, one per L_3
    sector.  From beta = alpha_1, the top eigenvalue of x_ref, the fixed
    point beta <- <x_ref> in the ground vector of the lowest block runs
    until beta no longer decreases.  E_0 is concave, so beta -> <x_ref>
    never decreases in beta and never exceeds alpha_1: the sequence only
    goes down and stops at the largest fixed point, with no tolerance, no
    iteration cap and no restarts (a strictly falling sequence of floats in
    [0, alpha_1] is finite).  The minimizer is that ground vector, so <x>
    already points along the reference axis.
    """
    if len(space.x_ops) == 2:
        x_ref, sectors = space.x1, [np.arange(space.dim)]
    else:
        m = np.real(np.diag(space.L3))
        x_ref = space.x3
        # dict.fromkeys rather than np.unique, whose first call alone raises
        # the process's resident memory by about 1.3 MiB
        sectors = [np.flatnonzero(m == v) for v in dict.fromkeys(m.tolist())]
    x2 = space.x_squared
    blocks = [(idx, np.real(x2[np.ix_(idx, idx)]),
               np.real(x_ref[np.ix_(idx, idx)])) for idx in sectors]
    beta = max(np.linalg.eigvalsh(xr)[-1] for _, _, xr in blocks)
    while True:
        ground = None
        for idx, q, xr in blocks:
            vals, vecs = np.linalg.eigh(q - 2.0 * beta * xr)
            if ground is None or vals[0] < ground[0]:
                ground = (vals[0], idx, vecs[:, 0], xr)
        _, idx, v, xr = ground
        mean = float(v @ xr @ v)
        if not mean < beta:
            break
        beta = mean
    chi = np.zeros(space.dim, dtype=complex)
    chi[idx] = v
    chi = State(chi)
    return chi, float(dispersion(space, chi).x_var)


def minimizer_certificate(space, chi: State) -> float:
    """Stationarity residual: distance of chi from the ground eigenspace of
    H_eff at its own mean position."""
    b = dispersion(space, chi).x_mean
    h = space.x_squared - 2.0 * sum(bi * xi for bi, xi in zip(b, space.x_ops))
    e0 = np.linalg.eigvalsh(h)[0]
    v = chi.coeffs
    return float(np.linalg.norm(h @ v - e0 * v))


def weak_scs_orbit(space, chi: State, grid) -> list:
    """Orbit [pi(g) chi for g in grid] of the minimizer over group elements
    (angles alpha for the circle, EulerAngles for the sphere)."""
    members = []
    for g in grid:
        if isinstance(g, EulerAngles):
            u = rotation_operator(space, g)
        else:
            u = rotation_operator_circle(space, float(g))
        members.append(State(u @ chi.coeffs))
    return members


def verify_weak_orbit(space, chi: State, grid, tol_var: float = 1e-10,
                      tol_dir: float = 1e-9) -> Report:
    """On every orbit member the dispersion is unchanged and <x> points along
    the classically rotated reference direction."""
    from .lierep import classical_rotation, classical_rotation_2d
    rep = Report()
    # chi and its orbit as one block: column 0 is chi itself
    orbit = [chi.coeffs] + [m.coeffs for m in weak_scs_orbit(space, chi, grid)]
    d = dispersion(space, np.column_stack(orbit))
    r = np.linalg.norm(d.x_mean[:, 0])
    u = np.zeros((len(space.x_ops), len(orbit)))
    for j, g in enumerate(grid, start=1):
        if isinstance(g, EulerAngles):
            u[:, j] = classical_rotation(g) @ np.array([0.0, 0.0, 1.0])
        else:
            u[:, j] = classical_rotation_2d(float(g)) @ np.array([1.0, 0.0])
    worst_var = float(np.max(np.abs(d.x_var[1:] - d.x_var[0]), initial=0.0))
    worst_dir = float(np.max(np.linalg.norm(d.x_mean - r * u, axis=0)[1:],
                             initial=0.0))
    lam = getattr(space, "lam", None)
    rep.add_residual("weak-orbit/dispersion", worst_var, tol_var, lam=lam)
    rep.add_residual("weak-orbit/direction", worst_dir, tol_dir, lam=lam)
    return rep
