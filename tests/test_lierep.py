"""su(2)/so(4) reconstructions, squeeze factors, rotations."""

import dataclasses
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzysphere.circle import build_circle
from fuzzysphere.lierep import (EulerAngles, _so4_parts, classical_rotation,
                                classical_rotation_2d, g_weight,
                                reconstruct_so4, reconstruct_su2,
                                rotation_operator, rotation_operator_circle,
                                squeeze_factor_circle,
                                verify_so4_reconstruction,
                                verify_su2_reconstruction)
from fuzzysphere.linop import State, expect, expm_hermitian_generator
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
    gen = reconstruct_su2(c)
    out = gen.generators["E+"] @ State.basis(c.dim, c.index(0)).coeffs
    assert out[c.index(1)] == pytest.approx(1.0)
    assert gen.casimir["C"] == pytest.approx(2.0)


@pytest.mark.parametrize("lam", [1, 2, 4, 9])
def test_su2_reconstruction(lam):
    rep = verify_su2_reconstruction(build_circle(lam))
    assert rep.passed
    assert max(c.residual for c in rep.checks) <= 1e-12


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
    gen = reconstruct_so4(build_sphere(1, 4.0))
    assert gen.casimir["C"] == pytest.approx(3.0)
    assert gen.casimir["C'"] == pytest.approx(0.0, abs=1e-12)


def _tampered_sphere(lam, seed):
    """A sphere whose coordinates carry a random hermitian perturbation, so
    its reconstructed generators obey no so(4) relation."""
    s = build_sphere(lam)
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))
    return dataclasses.replace(s, x1=s.x1 + 1e-2 * (noise + noise.conj().T))


@pytest.mark.parametrize("lam", [2, 4])
def test_so4_casimir_prime_matches_levi_civita_sum(lam):
    # the 3-pairing form against eps_{HIJK} L_HI L_JK over all 24
    # permutations, on generators that do not commute across disjoint pairs
    s = _tampered_sphere(lam, 5)
    _, full, _, cas_prime = _so4_parts(s)
    assert np.linalg.norm(full[(1, 4)] @ full[(2, 3)]
                          - full[(2, 3)] @ full[(1, 4)]) > 1e-3
    ref = np.zeros_like(cas_prime)
    for p in permutations((1, 2, 3, 4)):
        sign = (-1) ** sum(p[a] > p[b] for a in range(4) for b in range(a + 1, 4))
        ref += sign * (full[p[:2]] @ full[p[2:]])
    assert np.linalg.norm(cas_prime - ref) <= 1e-12 * (1 + np.linalg.norm(ref))


def test_so4_brackets_catch_perturbed_generator():
    rep = verify_so4_reconstruction(_tampered_sphere(3, 6))
    bracket = next(c for c in rep.checks if c.tag == "so4rel/brackets")
    assert not bracket.passed


def test_so4_disjoint_pairs_commute():
    gen = reconstruct_so4(build_sphere(3))
    a = gen.generators[(1, 2)]
    b = gen.generators[(3, 4)]
    assert np.linalg.norm(a @ b - b @ a) <= 1e-12


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
        weak_scs_orbit(space, State.basis(space.dim, 0), gs)
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


@settings(max_examples=25, deadline=None)
@given(st.floats(0, 2 * np.pi), st.floats(0, np.pi), st.floats(0, 2 * np.pi),
       st.integers(0, 2 ** 31 - 1))
def test_expectation_transforms_classically(phi, theta, psi, seed):
    s = build_sphere(2)
    g = EulerAngles(phi, theta, psi)
    rng = np.random.default_rng(seed)
    chi = State.normalized(rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim))
    rotated = State(rotation_operator(s, g) @ chi.coeffs)
    before = np.array([expect(op, chi).real for op in s.x_ops])
    after = np.array([expect(op, rotated).real for op in s.x_ops])
    assert np.allclose(classical_rotation(g) @ before, after, atol=1e-10)


def test_circle_expectation_transforms_classically():
    c = build_circle(3)
    rng = np.random.default_rng(5)
    chi = State.normalized(rng.normal(size=c.dim) + 1j * rng.normal(size=c.dim))
    alpha = 1.23
    rotated = State(rotation_operator_circle(c, alpha) @ chi.coeffs)
    before = np.array([expect(op, chi).real for op in c.x_ops])
    after = np.array([expect(op, rotated).real for op in c.x_ops])
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
