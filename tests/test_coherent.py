"""Coherent-state families, uncertainty relations, dispersion minimizer."""

import dataclasses

import numpy as np
import pytest

from fuzzysphere import coherent
from fuzzysphere.circle import build_circle
from fuzzysphere.coherent import (check_heisenberg_circle, dispersion,
                                  minimize_dispersion, minimizer_certificate,
                                  random_omega_weights, spin_cs,
                                  strong_scs_circle, strong_scs_sphere_phi,
                                  verify_identity_resolution_circle,
                                  verify_identity_resolution_sphere,
                                  verify_weak_orbit, weak_scs_orbit)
from fuzzysphere.lierep import EulerAngles
from fuzzysphere.linop import (State, expect, expm_hermitian_generator,
                               random_states)
from fuzzysphere.sphere import build_madore, build_sphere


def test_basis_states_saturate_circle_hur():
    # on psi_n both sides of every inequality vanish: <x> = 0 and Delta L = 0
    c = build_circle(4)
    for n in range(-4, 5):
        psi = State.basis(c.dim, c.index(n))
        d = dispersion(c, psi)
        assert d.L_var == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(d.x_mean, 0.0, atol=1e-14)
        rep = check_heisenberg_circle(c, psi)
        assert rep.passed
        for rec in rep.checks:
            assert abs(rec.value) <= 1e-13     # saturated, not just satisfied


def test_random_states_obey_circle_hur():
    c = build_circle(5)
    rng = np.random.default_rng(11)
    for _ in range(50):
        chi = State.normalized(rng.normal(size=c.dim)
                               + 1j * rng.normal(size=c.dim))
        assert check_heisenberg_circle(c, chi).passed


def _block_spaces():
    yield from (build_circle(lam) for lam in range(1, 17))
    yield from (build_sphere(lam) for lam in range(1, 10))
    yield from (build_madore(twol / 2) for twol in range(1, 7))


def test_block_moments_match_per_column_expect():
    rng = np.random.default_rng(21)
    for space in _block_spaces():
        block = random_states(rng, space.dim, 7)
        d = dispersion(space, block)
        for j in range(block.shape[1]):
            psi = State(block[:, j])
            want = {"x_mean": [expect(op, psi).real for op in space.x_ops],
                    "x2_mean": expect(space.x_squared, psi).real,
                    "L_mean": [expect(op, psi).real for op in space.L_ops],
                    "l2_mean": expect(space.l2, psi).real}
            for name, ref in want.items():
                got = getattr(d, name)[..., j]
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(got - ref)) <= 1e-14 * scale, (space, name)
            # the variances are the means' own combination, column by column
            assert d.x_var[j] == d.x2_mean[j] - np.sum(d.x_mean[:, j] ** 2)
            assert d.L_var[j] == d.l2_mean[j] - np.sum(d.L_mean[:, j] ** 2)


def test_block_of_one_is_bitwise_the_state():
    rng = np.random.default_rng(4)
    for space in (build_circle(6), build_sphere(4), build_madore(1.5)):
        v = random_states(rng, space.dim, 1)
        single, block = dispersion(space, State(v[:, 0])), dispersion(space, v)
        for name in ("x_mean", "x2_mean", "x_var", "L_mean", "l2_mean", "L_var"):
            assert np.array_equal(getattr(single, name),
                                  getattr(block, name)[..., 0]), name
        assert isinstance(single.x_var, float)
    c = build_circle(6)
    v = random_states(rng, c.dim, 1)
    assert (check_heisenberg_circle(c, State(v[:, 0])).checks
            == check_heisenberg_circle(c, v).checks)


def test_block_rejects_non_unit_column():
    c = build_circle(3)
    block = np.array(random_states(np.random.default_rng(0), c.dim, 4))
    block[:, 2] *= 1.5
    with pytest.raises(ValueError, match="column 2"):
        dispersion(c, block)
    with pytest.raises(ValueError):
        check_heisenberg_circle(c, block[:, 0])       # 1-d: not a block


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_circle_hur_block_catches_one_offending_state(where):
    # with L and L^2 zeroed the left-hand sides vanish, so a state with
    # <x> != 0 breaks HURS^1; the basis states around it, with <x> = 0,
    # still pass, and the block must fail whichever column holds it
    c = build_circle(4)
    broken = dataclasses.replace(c, L=np.zeros_like(c.L),
                                 l2=np.zeros_like(c.l2))
    block = np.eye(c.dim, dtype=complex)
    assert check_heisenberg_circle(broken, block).passed
    j = {"first": 0, "middle": c.dim // 2, "last": c.dim - 1}[where]
    bad = np.zeros(c.dim, dtype=complex)
    bad[[j, j + 1 if j + 1 < c.dim else j - 1]] = np.sqrt(0.5)   # neighbours
    block[:, j] = bad
    assert check_heisenberg_circle(c, block).passed
    rep = check_heisenberg_circle(broken, block)
    assert not rep.passed
    assert rep.first_failure().tag.startswith("HURS^1/")


def test_strong_circle_family_moments():
    lam = 6
    c = build_circle(lam)
    rng = np.random.default_rng(0)
    beta = rng.uniform(0, 2 * np.pi, size=c.dim)
    d = dispersion(c, strong_scs_circle(c, beta, 0.7))
    assert d.L_mean[0] == pytest.approx(0.0, abs=1e-13)
    assert d.l2_mean == pytest.approx(lam * (lam + 1) / 3, abs=1e-12)


def test_strong_circle_dispersion_bound():
    # (Delta x)^2 of a strong state stays below (1/2 + 1/(3 lam))/(lam + 1)
    for lam in (2, 5, 9):
        c = build_circle(lam)
        d = dispersion(c, strong_scs_circle(c, np.zeros(c.dim), 0.0))
        assert d.x_var < (0.5 + 1 / (3 * lam)) / (lam + 1)


def test_circle_identity_resolution():
    rng = np.random.default_rng(3)
    for lam in (1, 3, 7):
        c = build_circle(lam)
        beta = rng.uniform(0, 2 * np.pi, size=c.dim)
        assert verify_identity_resolution_circle(c, beta).passed


def test_circle_resolution_needs_enough_points():
    # 2 points alias: the quadrature misses the off-diagonal cancellations
    c = build_circle(2)
    rep = verify_identity_resolution_circle(c, npoints=2)
    assert not rep.passed


def test_strong_circle_beta_length_checked():
    c = build_circle(2)
    with pytest.raises(ValueError):
        strong_scs_circle(c, np.zeros(3), 0.0)


@pytest.mark.parametrize("size", [3, 9])
def test_phi_beta_length_checked(size):
    # beta has one entry per level l = 0..lam; the state and the identity
    # sum share one seed and one check
    s = build_sphere(3)
    with pytest.raises(ValueError, match="beta must have 4 entries"):
        strong_scs_sphere_phi(s, np.zeros(size), EulerAngles(0, 0, 0))
    with pytest.raises(ValueError, match="beta must have 4 entries"):
        verify_identity_resolution_sphere(s, "phi", beta=np.zeros(size))


def test_spin_cs_saturates_sphere_ur():
    # pi(g) psi_l^l has (Delta L)^2 = l and <x3> driven by the weight c_{l}
    s = build_sphere(4)
    for l in (1, 2, 4):
        d = dispersion(s, spin_cs(s, l, EulerAngles(0.4, 1.0, 2.2)))
        assert d.L_var == pytest.approx(l, abs=1e-10)
        assert np.linalg.norm(d.L_mean) == pytest.approx(l, abs=1e-10)
    with pytest.raises(ValueError):
        spin_cs(s, 5, EulerAngles(0, 0, 0))


def test_phi_family_moments():
    lam = 5
    s = build_sphere(lam)
    rng = np.random.default_rng(1)
    chi = strong_scs_sphere_phi(s, rng.uniform(0, 2 * np.pi, lam + 1),
                                EulerAngles(0.3, 0.9, 1.7))
    d = dispersion(s, chi)
    assert d.l2_mean == pytest.approx(lam * (lam + 2) / 2, abs=1e-10)
    assert np.allclose(d.L_mean, 0.0, atol=1e-10)
    assert np.linalg.norm(d.x_mean) < 1 / (lam + 1)


@pytest.mark.parametrize("lam", [1, 2, 4])
def test_sphere_identity_resolutions(lam):
    s = build_sphere(lam)
    rng = np.random.default_rng(lam)
    assert verify_identity_resolution_sphere(s, "spin").passed
    omega = random_omega_weights(s, rng)
    assert verify_identity_resolution_sphere(s, "omega", omega=omega).passed
    beta = rng.uniform(0, 2 * np.pi, lam + 1)
    assert verify_identity_resolution_sphere(s, "phi", beta=beta).passed


def _brute_identity_sum(s, family, omega=None, beta=None):
    """Oracle: one weighted projector per quadrature point (theta, phi) or
    (theta, phi, psi), with exp(i theta L_2) from a dense eigensolve."""
    lam = s.lam
    n_az = 4 * lam + 3
    az = 2 * np.pi * np.arange(n_az) / n_az
    m = np.real(np.diag(s.L3))
    if family == "spin":
        seeds = [np.sqrt(2 * l + 1) * State.basis(s.dim, s.index(l, l)).coeffs
                 for l in range(lam + 1)]
        psis = [0.0]
        norm = 2 * np.pi / n_az / (4 * np.pi)
    elif family == "omega":
        seeds = [omega]
        psis = az
        norm = (lam + 1) ** 2 * (2 * np.pi / n_az) ** 2 / (8 * np.pi ** 2)
    else:
        v = np.zeros(s.dim, dtype=complex)
        for l in range(lam + 1):
            v[s.index(l, 0)] = np.exp(1j * beta[l]) * np.sqrt(2 * l + 1) / (lam + 1)
        seeds = [v]
        psis = [0.0]
        norm = (lam + 1) ** 2 * (2 * np.pi / n_az) / (4 * np.pi)
    total = np.zeros((s.dim, s.dim), dtype=complex)
    thetas, weights = coherent._polar_nodes(lam)
    for theta, wt in zip(thetas, weights):
        r = expm_hermitian_generator(s.L2, theta)
        for phi in az:
            for psi in psis:
                for seed in seeds:
                    v = np.exp(1j * phi * m) * (r @ (np.exp(1j * psi * m) * seed))
                    total += wt * np.outer(v, v.conj())
    return norm * total


def _two_node_rule(lam):
    nodes, weights = np.polynomial.legendre.leggauss(2)
    return np.arccos(nodes), weights


@pytest.mark.parametrize("coarse", [False, True])
@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
def test_identity_sum_matches_brute_force(lam, coarse, monkeypatch):
    # the reassociated sum equals the per-point sum for any polar rule,
    # including one too coarse to give the identity
    if coarse:
        monkeypatch.setattr(coherent, "_polar_nodes", _two_node_rule)
    s = build_sphere(lam)
    rng = np.random.default_rng(100 + lam)
    args = {"spin": {}, "omega": {"omega": random_omega_weights(s, rng)},
            "phi": {"beta": rng.uniform(0, 2 * np.pi, lam + 1)}}
    for family, kw in args.items():
        got = coherent._identity_sum_sphere(s, family, **kw)
        want = _brute_identity_sum(s, family, **kw)
        assert np.abs(got - want).max() <= 1e-12


def test_sphere_resolution_needs_enough_polar_nodes(monkeypatch):
    s = build_sphere(3)
    omega = random_omega_weights(s, np.random.default_rng(2))
    beta = np.random.default_rng(3).uniform(0, 2 * np.pi, 4)
    monkeypatch.setattr(coherent, "_polar_nodes", _two_node_rule)
    assert not verify_identity_resolution_sphere(s, "spin").passed
    assert not verify_identity_resolution_sphere(s, "omega", omega=omega).passed
    assert not verify_identity_resolution_sphere(s, "phi", beta=beta).passed


def test_omega_weight_condition_enforced():
    s = build_sphere(2)
    omega = np.zeros(s.dim, dtype=complex)
    omega[s.index(0, 0)] = 1.0             # all weight at l=0
    with pytest.raises(ValueError, match="per-l defect"):
        verify_identity_resolution_sphere(s, "omega", omega=omega)
    with pytest.raises(ValueError):
        verify_identity_resolution_sphere(s, "nope")


def test_minimizer_circle():
    for lam in (1, 3, 6, 12):
        c = build_circle(lam)
        chi, var = minimize_dispersion(c)
        assert var < 3.5 / (lam + 1) ** 2
        assert minimizer_certificate(c, chi) <= 1e-10
        d = dispersion(c, chi)
        assert d.x_mean[1] == pytest.approx(0.0, abs=1e-10)   # along e1
        assert d.x_mean[0] > 0


def test_minimizer_sphere():
    for lam in (1, 3, 6):
        s = build_sphere(lam)
        chi, var = minimize_dispersion(s)
        assert var < 11 / (lam + 1) ** 2
        assert minimizer_certificate(s, chi) <= 1e-10
        d = dispersion(s, chi)
        # <x> along e3, and the minimizer sits in the L3 = 0 slice
        assert np.hypot(d.x_mean[0], d.x_mean[1]) <= 1e-10
        assert d.x_mean[2] > 0
        assert np.linalg.norm(s.L3 @ chi.coeffs) <= 1e-10


def _scf_minimum(space):
    """Oracle: dense complex self-consistent field chi <- ground vector of
    x^2 - 2<x>.x from the top eigenvector of the reference coordinate and
    five seeded random starts; the least dispersion reached."""
    xs = list(space.x_ops)
    x2 = space.x_squared
    x_ref = xs[0] if len(xs) == 2 else xs[2]
    rng = np.random.default_rng(0)
    starts = [np.linalg.eigh(x_ref)[1][:, -1]]
    starts += [rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
               for _ in range(5)]
    best = np.inf
    for start in starts:
        chi = start / np.linalg.norm(start)
        prev_var = np.inf
        for _ in range(500):
            b = np.array([np.real(chi.conj() @ (x @ chi)) for x in xs])
            h = x2 - 2.0 * sum(bi * xi for bi, xi in zip(b, xs))
            var = float(np.real(chi.conj() @ (x2 @ chi)) - b @ b)
            hchi = h @ chi
            energy = float(np.real(chi.conj() @ hchi))
            stat = np.linalg.norm(hchi - energy * chi)
            if abs(var - prev_var) < 1e-13 and stat <= 1e-12 * (1.0 + abs(energy)):
                break
            prev_var = var
            vals, vecs = np.linalg.eigh(h)
            # break ground-eigenspace ties toward the previous iterate
            deg = np.nonzero(vals - vals[0] <= 1e-12 * (1.0 + abs(vals[0])))[0]
            if deg.size > 1:
                sub = vecs[:, deg]
                proj = sub @ (sub.conj().T @ chi)
                nrm = np.linalg.norm(proj)
                chi = proj / nrm if nrm > 1e-8 else vecs[:, 0]
            else:
                chi = vecs[:, 0]
        best = min(best, var)
    return best


@pytest.mark.parametrize("d", [1, 2])
def test_minimizer_matches_scf_oracle(d):
    build = build_circle if d == 1 else build_sphere
    for lam in range(1, 13):
        space = build(lam)
        _, var = minimize_dispersion(space)
        assert abs(var - _scf_minimum(space)) <= 1e-13


def _reference_axis(space):
    return space.x_ops[0 if len(space.x_ops) == 2 else 2]


def _certified_lower_bound(space, npoints=101):
    """Lower bound on min (Delta x)^2 from dense ground energies alone.

    The minimum is min over 0 <= beta <= alpha_1 of beta^2 + E_0(beta),
    E_0 the ground energy of x^2 - 2 beta x_ref (the minimizing beta is
    |<x>|, at most the top eigenvalue alpha_1 of x_ref).  E_0 is a minimum
    of affine functions of beta, hence concave and above each chord, so
    beta^2 + chord is below the objective on each grid interval."""
    x_ref = _reference_axis(space)
    x2 = space.x_squared
    betas = np.linspace(0.0, np.linalg.eigvalsh(x_ref)[-1], npoints)
    e0 = np.array([np.linalg.eigvalsh(x2 - 2.0 * b * x_ref)[0] for b in betas])
    slopes = np.diff(e0) / np.diff(betas)
    # the convex quadratic beta^2 + chord is least at -slope/2, clipped
    best = np.clip(-slopes / 2.0, betas[:-1], betas[1:])
    return float(np.min(best ** 2 + e0[:-1] + slopes * (best - betas[:-1])))


@pytest.mark.parametrize("space", [build_circle(40), build_sphere(12)],
                         ids=["circle-40", "sphere-12"])
def test_minimum_meets_certified_lower_bound(space):
    _, var = minimize_dispersion(space)
    bound = _certified_lower_bound(space)
    assert bound - 1e-12 <= var <= bound * (1.0 + 1e-5)


@pytest.mark.parametrize("lam", [2, 5, 9])
def test_certificate_rejects_wrong_states(lam):
    # the top x_ref eigenvector (on both spaces) and the ground vector of the
    # runner-up L3 sector (sphere) are not stationary; at lam = 1 that sector
    # is the single psi_1^{-1}, which has <x> = 0 and is a ground state of
    # x^2, so stationary, hence lam >= 2
    for space in (build_circle(lam), build_sphere(lam)):
        x_ref = _reference_axis(space)
        wrong = [np.linalg.eigh(x_ref)[1][:, -1]]
        if len(space.x_ops) == 3:
            chi, _ = minimize_dispersion(space)
            h = space.x_squared - 2.0 * dispersion(space, chi).x_mean[2] * x_ref
            grounds = []
            for m in range(-lam, lam + 1):
                idx = np.flatnonzero(space.m_of == m)
                vals, vecs = np.linalg.eigh(h[np.ix_(idx, idx)])
                grounds.append((vals[0], m, idx, vecs[:, 0]))
            grounds.sort(key=lambda g: g[0])
            assert grounds[0][1] == 0 and grounds[1][0] > grounds[0][0]
            v = np.zeros(space.dim, dtype=complex)
            v[grounds[1][2]] = grounds[1][3]
            wrong.append(v)
        for v in wrong:
            assert minimizer_certificate(space, State.normalized(v)) > 1e-10


def _sector_rule_spaces():
    for lam in range(1, 21):
        yield build_sphere(lam)
        yield build_sphere(lam, np.inf)
    for l in (0.5, 1.0, 1.5, 2.0, 3.0):
        yield build_madore(l)


def test_top_sector_is_lowest_for_every_searched_beta():
    # the rule minimize_dispersion rests on, from dense eigvalsh alone: for
    # 0 <= beta <= alpha_1, no L3 sector of x^2 - 2 beta x3 has a lower
    # ground energy than the sector holding x3's top eigenvalue, which is
    # m = 0 on the fuzzy sphere and m = l on the Madore sphere
    for space in _sector_rule_spaces():
        m = np.real(np.diag(space.L3))
        ms = np.unique(m)
        sectors = [np.flatnonzero(m == v) for v in ms]
        x2, x3 = np.real(space.x_squared), np.real(space.x3)
        tops = [np.linalg.eigvalsh(x3[np.ix_(i, i)])[-1] for i in sectors]
        top = int(np.argmax(tops))
        assert ms[top] == getattr(space, "l", 0.0), space
        betas = np.linspace(0.0, tops[top], 21)[:, None, None]
        grounds = np.array([np.linalg.eigvalsh(
            x2[np.ix_(i, i)] - 2.0 * betas * x3[np.ix_(i, i)])[:, 0]
            for i in sectors])
        assert np.all(grounds >= grounds[top] - 1e-12), space


def test_minimizer_diagonalizes_only_the_top_sector(monkeypatch):
    # every step solves the m = 0 block, of size lam+1, and nothing else
    spaces = [build_sphere(lam) for lam in range(1, 13)]
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    for s in spaces:
        shapes.clear()
        minimize_dispersion(s)
        assert shapes and set(shapes) == {(s.lam + 1, s.lam + 1)}, s.lam


def test_minimizer_scaling_slope():
    lams = np.array([4, 8, 16])
    mins = np.array([minimize_dispersion(build_circle(int(l)))[1]
                     for l in lams])
    assert np.all(np.diff(mins) < 0)
    slope = np.polyfit(np.log(lams + 1.0), np.log(mins), 1)[0]
    assert -2.3 < slope < -1.7


def test_minimizer_close_to_top_x_eigenvector():
    # the minimizer converges toward the top eigenvector of x3
    deficits = []
    for lam in (3, 9):
        s = build_sphere(lam)
        chi, _ = minimize_dispersion(s)
        vals, vecs = np.linalg.eigh(s.x3)
        deficits.append(1.0 - abs(np.vdot(vecs[:, -1], chi.coeffs)) ** 2)
    assert deficits[1] < deficits[0] < 0.5


def test_madore_min_matches_closed_form():
    for l in (0.5, 1.0, 3.5, 8.0):
        got = minimize_dispersion(build_madore(l))[1]
        assert got == pytest.approx(1 / (l + 1), abs=1e-9)


def test_weak_orbit_circle():
    c = build_circle(4)
    chi, _ = minimize_dispersion(c)
    grid = np.linspace(0, 2 * np.pi, 7, endpoint=False)
    assert verify_weak_orbit(c, chi, grid).passed
    members = weak_scs_orbit(c, chi, grid)
    assert len(members) == 7 and all(isinstance(m, State) for m in members)


def test_weak_orbit_sphere():
    s = build_sphere(3)
    chi, _ = minimize_dispersion(s)
    rng = np.random.default_rng(9)
    grid = [EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                        rng.uniform(0, 2 * np.pi)) for _ in range(6)]
    assert verify_weak_orbit(s, chi, grid).passed


def test_dispersion_rotation_invariant():
    s = build_sphere(2)
    rng = np.random.default_rng(21)
    from fuzzysphere.lierep import rotation_operator
    for _ in range(10):
        chi = State.normalized(rng.normal(size=s.dim)
                               + 1j * rng.normal(size=s.dim))
        g = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                        rng.uniform(0, 2 * np.pi))
        rot = State(rotation_operator(s, g) @ chi.coeffs)
        assert dispersion(s, rot).x_var == pytest.approx(
            dispersion(s, chi).x_var, abs=1e-11)
