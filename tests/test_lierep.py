"""su(2)/so(4) reconstructions, squeeze factors, rotations."""

import dataclasses
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzysphere.circle import build_circle
from dense_oracle import so4_parts
from fuzzysphere.lierep import (EulerAngles, classical_rotation,
                                classical_rotation_2d, g_weight,
                                rotation_operator, rotation_operator_circle,
                                squeeze_factor_circle,
                                verify_so4_reconstruction,
                                verify_su2_reconstruction)
from fuzzysphere.linop import expm_hermitian_generator
from fuzzysphere.sphere import FuzzySphere, build_madore, build_sphere


def test_euler_angle_ranges():
    g = EulerAngles(2 * np.pi + 0.5, 1.0, -0.5)
    assert g.phi == pytest.approx(0.5)
    assert g.psi == pytest.approx(2 * np.pi - 0.5)
    with pytest.raises(ValueError):
        EulerAngles(0.0, 3.5, 0.0)


def test_squeeze_factor_values():
    assert squeeze_factor_circle(1, 1, 4.0) == pytest.approx(1 / np.sqrt(2))
    assert squeeze_factor_circle(0, 1, 4.0) == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(ValueError):
        squeeze_factor_circle(-1, 1, 4.0)   # s(s-1) = 2 = lam(lam+1)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 20), st.integers(-18, 20))
def test_squeeze_factor_reflection(lam, s):
    # s(s-1) is invariant under s -> 1-s
    if abs(s) > lam or abs(1 - s) > lam:
        return
    k = float(lam * lam * (lam + 1) ** 2)
    assert squeeze_factor_circle(s, lam, k) == pytest.approx(
        squeeze_factor_circle(1 - s, lam, k))


def test_su2_ladder_action_small():
    # lam=1, k=4: x_+ psi_0 = psi_1 and f_+(1) = 1/sqrt(2), so E_+ psi_0 = psi_1
    c = build_circle(1, 4.0)
    ep = np.array(c.x_plus)
    ep[:-1] /= np.sqrt(2.0) * squeeze_factor_circle(c.labels[:-1], 1, 4.0)[:, None]
    out = ep[:, c.index(0)]
    assert out[c.index(1)] == pytest.approx(1.0)
    # the Casimir E_+ E_- + E_0^2 + E_- E_+ is lam(lam+1) = 2
    cas = ep @ ep.conj().T + c.l2 + ep.conj().T @ ep
    assert np.real(np.trace(cas)) / c.dim == pytest.approx(2.0)


@pytest.mark.parametrize("lam", [1, 2, 4, 9])
def test_su2_reconstruction(lam):
    rep = verify_su2_reconstruction(build_circle(lam))
    assert rep.passed
    assert max(c.residual for c in rep.checks) <= 1e-12


def test_su2_adjoint_catches_tampered_x_minus():
    # E_- is reconstructed from x_- with its own factor f_-, so a 0.1% error
    # in one weight of x_- breaks su2rel/adjoint
    c = build_circle(4)
    xm = np.array(c.x_minus)
    xm[c.index(0), c.index(1)] *= 1.001
    rep = verify_su2_reconstruction(dataclasses.replace(c, x_minus=xm))
    adjoint = next(r for r in rep.checks if r.tag == "su2rel/adjoint")
    assert not adjoint.passed


def test_g_weight_values():
    assert g_weight(0, 5, 900.0) == pytest.approx(1 / np.sqrt(6))
    assert g_weight(1, 1, 4.0) == pytest.approx(np.sqrt(5 / 6))
    with pytest.raises(ValueError):
        g_weight(3, 2, 100.0)
    for lam in (2, 7, 15):
        k = float(lam * lam * (lam + 1) ** 2)
        for l in range(lam + 1):
            assert 0.0 < g_weight(l, lam, k) < np.inf


@pytest.mark.parametrize("lam", [1, 2, 4, 7])
def test_so4_reconstruction(lam):
    rep = verify_so4_reconstruction(build_sphere(lam))
    assert rep.passed
    assert max(c.residual for c in rep.checks) <= 1e-12


def test_so4_casimir_values():
    s = build_sphere(1, 4.0)
    _, _, cas, cas_prime, _ = so4_parts(s)
    assert np.real(np.trace(cas)) / s.dim == pytest.approx(3.0)
    assert np.linalg.norm(cas_prime) == pytest.approx(0.0, abs=1e-12)


def _tampered_sphere(lam, seed):
    """A sphere whose coordinate term weights carry a random complex 1%
    perturbation, so its reconstructed generators obey no so(4) relation."""
    s = build_sphere(lam)
    rng = np.random.default_rng(seed)
    terms = np.array(s.terms)
    coords = [j for j, key in enumerate(s.term_keys)
              if key[0] in ("x_plus", "x_minus", "x3")]
    shape = (len(coords), s.dim)
    terms[coords] *= 1.0 + 1e-2 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return dataclasses.replace(s, terms=terms)


@pytest.mark.parametrize("lam", [2, 4])
def test_so4_casimir_prime_matches_levi_civita_sum(lam):
    # the 3-pairing form against eps_{HIJK} L_HI L_JK over all 24
    # permutations, on generators that do not commute across disjoint
    # pairs: the dense oracle's matrix and the term suite's norm of it
    s = _tampered_sphere(lam, 5)
    _, full, _, cas_prime, _ = so4_parts(s)
    assert np.linalg.norm(full[(1, 4)] @ full[(2, 3)]
                          - full[(2, 3)] @ full[(1, 4)]) > 1e-3
    ref = np.zeros_like(cas_prime)
    for p in permutations((1, 2, 3, 4)):
        sign = (-1) ** sum(p[a] > p[b] for a in range(4) for b in range(a + 1, 4))
        ref += sign * (full[p[:2]] @ full[p[2:]])
    assert np.linalg.norm(cas_prime - ref) <= 1e-12 * (1 + np.linalg.norm(ref))
    rec = next(c for c in verify_so4_reconstruction(s).checks
               if c.tag == "isomD3/casimir-prime")
    assert abs(rec.residual - np.linalg.norm(ref)) <= 1e-12 * (1 + np.linalg.norm(ref))


def test_so4_brackets_catch_perturbed_generator():
    rep = verify_so4_reconstruction(_tampered_sphere(3, 6))
    bracket = next(c for c in rep.checks if c.tag == "so4rel/brackets")
    assert not bracket.passed


def test_so4_disjoint_pairs_commute():
    gens = so4_parts(build_sphere(3))[0]
    a = gens[(1, 2)]
    b = gens[(3, 4)]
    assert np.linalg.norm(a @ b - b @ a) <= 1e-12


def _wigner_small_d(l: int, beta: float) -> np.ndarray:
    """Racah's closed sum for d^l_{m'm}(beta), rows m' and columns m
    ascending; independent of any eigendecomposition."""
    c, sn = np.cos(beta / 2), np.sin(beta / 2)
    d = np.zeros((2 * l + 1, 2 * l + 1))
    for i, mp in enumerate(range(-l, l + 1)):
        for j, m in enumerate(range(-l, l + 1)):
            pref = np.sqrt(float(factorial(l + mp) * factorial(l - mp)
                                 * factorial(l + m) * factorial(l - m)))
            for t in range(max(0, m - mp), min(l + m, l - mp) + 1):
                den = (factorial(l + m - t) * factorial(t)
                       * factorial(mp - m + t) * factorial(l - mp - t))
                d[i, j] += ((-1) ** (mp - m + t) * pref / den
                            * c ** (2 * l + m - mp - 2 * t)
                            * sn ** (mp - m + 2 * t))
    return d


@pytest.mark.parametrize("lam", range(1, 9))
def test_rotation_matches_wigner_small_d(lam):
    # exp(i theta L_2) on level l is d^l(-theta) in the ascending m basis
    s = build_sphere(lam)
    for theta in (0.0, 0.3, 1.1, np.pi / 2, 2.5, np.pi):
        u = rotation_operator(s, EulerAngles(0.0, theta, 0.0))
        want = np.zeros((s.dim, s.dim))
        for l in range(lam + 1):
            sl = slice(s.index(l, -l), s.index(l, l) + 1)
            want[sl, sl] = _wigner_small_d(l, -theta)
        assert np.abs(u - want).max() <= 1e-13


def test_rotation_identity_and_phases():
    s = build_sphere(2)
    assert np.allclose(rotation_operator(s, EulerAngles(0, 0, 0)),
                       np.eye(s.dim), atol=1e-14)
    g = EulerAngles(0.8, 0.0, 0.0)
    u = rotation_operator(s, g)
    m_of = np.concatenate([np.arange(-l, l + 1) for l in range(3)])
    assert np.allclose(u, np.diag(np.exp(1j * 0.8 * m_of)), atol=1e-13)


def _dense_rotation(space, g):
    """Oracle: the three exponentials as dense eigendecompositions."""
    return (expm_hermitian_generator(space.L3, g.phi)
            @ expm_hermitian_generator(space.L2, g.theta)
            @ expm_hermitian_generator(space.L3, g.psi))


@pytest.mark.parametrize("space", [build_sphere(lam) for lam in range(7)]
                         + [build_madore(l) for l in (0.5, 1.5, 2.0)],
                         ids=[f"sphere{lam}" for lam in range(7)]
                         + [f"madore{l}" for l in (0.5, 1.5, 2.0)])
def test_block_rotation_matches_dense_product(space):
    rng = np.random.default_rng(space.dim)
    for _ in range(5):
        g = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                        rng.uniform(0, 2 * np.pi))
        assert np.abs(rotation_operator(space, g)
                      - _dense_rotation(space, g)).max() <= 1e-13


def test_rotations_share_one_eigendecomposition(monkeypatch):
    from fuzzysphere.coherent import (spin_cs, strong_scs_sphere_phi,
                                      verify_identity_resolution_sphere,
                                      weak_scs_orbit)
    rng = np.random.default_rng(8)
    gs = [EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                      rng.uniform(0, 2 * np.pi)) for _ in range(4)]
    for space, levels in ((build_sphere(4), [2 * l + 1 for l in range(5)]),
                          (build_madore(1.5), [4])):
        # each rotation as it was built before the space kept its blocks:
        # every l block eigendecomposed afresh for the one call
        m = np.real(np.diag(space.L3))
        want = []
        for g in gs:
            u = np.zeros((space.dim, space.dim), dtype=complex)
            start = 0
            for n in levels:
                sl = slice(start, start + n)
                vals, vecs = np.linalg.eigh(space.L2[sl, sl])
                u[sl, sl] = (vecs * np.exp(1j * g.theta * vals)) @ vecs.conj().T
                start += n
            u *= np.exp(1j * g.phi * m)[:, None]
            u *= np.exp(1j * g.psi * m)
            want.append(u)

        sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: sizes.append(a.shape[0]) or eigh(a))
        for g, u in zip(gs, want):
            assert np.array_equal(rotation_operator(space, g), u)
        if isinstance(space, FuzzySphere):
            spin_cs(space, 2, gs[0])
            strong_scs_sphere_phi(space, np.zeros(space.lam + 1), gs[1])
            verify_identity_resolution_sphere(space, "spin")
        weak_scs_orbit(space, np.eye(space.dim)[:, 0], gs)
        assert sizes == levels          # one eigh per level, for all of them
        monkeypatch.undo()


def test_circle_rotation_matches_dense_exponential():
    c = build_circle(5)
    for alpha in (0.0, 1.3, -4.2):
        assert np.abs(rotation_operator_circle(c, alpha)
                      - expm_hermitian_generator(c.L, alpha)).max() <= 1e-14


def test_rotation_unitary_and_block_diagonal():
    s = build_sphere(3)
    g = EulerAngles(1.2, 0.7, 2.9)
    u = rotation_operator(s, g)
    assert np.allclose(u.conj().T @ u, np.eye(s.dim), atol=1e-12)
    assert np.linalg.norm(u @ s.l2 - s.l2 @ u) <= 1e-10


def _unit(v):
    return v / np.linalg.norm(v)


def _expect(op, psi):
    """<psi| op |psi>, real part."""
    return float(np.real(psi.conj() @ (op @ psi)))


@settings(max_examples=25, deadline=None)
@given(st.floats(0, 2 * np.pi), st.floats(0, np.pi), st.floats(0, 2 * np.pi),
       st.integers(0, 2 ** 31 - 1))
def test_expectation_transforms_classically(phi, theta, psi, seed):
    s = build_sphere(2)
    g = EulerAngles(phi, theta, psi)
    rng = np.random.default_rng(seed)
    chi = _unit(rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim))
    rotated = rotation_operator(s, g) @ chi
    before = np.array([_expect(op, chi) for op in s.x_ops])
    after = np.array([_expect(op, rotated) for op in s.x_ops])
    assert np.allclose(classical_rotation(g) @ before, after, atol=1e-10)


def test_circle_expectation_transforms_classically():
    c = build_circle(3)
    rng = np.random.default_rng(5)
    chi = _unit(rng.normal(size=c.dim) + 1j * rng.normal(size=c.dim))
    alpha = 1.23
    rotated = rotation_operator_circle(c, alpha) @ chi
    before = np.array([_expect(op, chi) for op in c.x_ops])
    after = np.array([_expect(op, rotated) for op in c.x_ops])
    assert np.allclose(classical_rotation_2d(alpha) @ before, after, atol=1e-12)


def test_classical_rotation_orbit_direction():
    g = EulerAngles(0.6, 1.1, 2.0)
    u = classical_rotation(g) @ np.array([0.0, 0.0, 1.0])
    st_, ct = np.sin(g.theta), np.cos(g.theta)
    expected = np.array([-st_ * np.cos(g.phi), st_ * np.sin(g.phi), ct])
    assert np.allclose(u, expected)


def test_rotation_homomorphism_numerically():
    s = build_sphere(2)
    g1 = EulerAngles(0.3, 0.9, 1.4)
    g2 = EulerAngles(2.2, 0.4, 5.1)
    u = rotation_operator(s, g1) @ rotation_operator(s, g2)
    # the product is unitary and still commutes with L^2
    assert np.allclose(u.conj().T @ u, np.eye(s.dim), atol=1e-12)
    assert np.linalg.norm(u @ s.l2 - s.l2 @ u) <= 1e-10
