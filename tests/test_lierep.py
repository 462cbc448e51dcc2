"""su(2)/so(4) reconstructions, squeeze factors, rotations."""

import dataclasses
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (classical_rotation, classical_rotation_2d, dense,
                          expm_hermitian_generator, rotation_operator,
                          so4_parts, x_ops)
from fuzzysphere.circle import build_circle
from fuzzysphere.lierep import (EulerAngles, g_weight, rotate,
                                squeeze_factor_circle,
                                verify_so4_reconstruction,
                                verify_su2_reconstruction)
from fuzzysphere.sphere import FuzzySphere, build_sphere
from madore import build_madore


def test_euler_angle_ranges():
    g = EulerAngles(2 * np.pi + 0.5, 1.0, -0.5)
    assert g.phi == pytest.approx(0.5)
    assert g.psi == pytest.approx(2 * np.pi - 0.5)
    with pytest.raises(ValueError):
        EulerAngles(0.0, 3.5, 0.0)


@pytest.mark.parametrize("phi, psi", [(np.inf, 0.0), (0.3, -np.inf), (np.nan, 0.0),
                                      (0.0, np.nan)])
def test_euler_angles_reject_nonfinite_phi_and_psi(phi, psi):
    # a wrapped infinity is NaN, which rotate would spread over every state
    with pytest.raises(ValueError):
        EulerAngles(phi, 0.3, psi)


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
    ep = np.array(dense(c, "x_plus"))
    ep[:-1] /= np.sqrt(2.0) * squeeze_factor_circle(c.labels[:-1], 1, 4.0)[:, None]
    out = ep[:, c.index(0)]
    assert out[c.index(1)] == pytest.approx(1.0)
    # the Casimir E_+ E_- + E_0^2 + E_- E_+ is lam(lam+1) = 2
    cas = ep @ ep.conj().T + dense(c, "l2") + ep.conj().T @ ep
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
    terms = np.array(c.terms)
    terms[c.term_keys.index(("x_minus", 0, -1)), c.index(1)] *= 1.001  # psi_1 to psi_0
    rep = verify_su2_reconstruction(dataclasses.replace(c, terms=terms))
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


def _g_weight_products(l, lam, k):
    """g(l) with its numerator and denominator as separate products of up
    to lam + 1 factors, the form that overflows from lam 150 on."""
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


@pytest.mark.parametrize("k_of", [lambda lam: max(1.0, lam ** 2 * (lam + 1) ** 2),
                                  lambda lam: np.inf], ids=["kmin", "inf"])
def test_g_weight_ratio_form_matches_products(k_of):
    # the largest difference over every lam <= 140 is 1.88e-15, at (117, 93)
    for lam in list(range(0, 141, 10)) + [117, 130]:
        k = k_of(lam)
        for l in range(lam + 1):
            want = _g_weight_products(l, lam, k)
            assert abs(g_weight(l, lam, k) - want) <= 2e-15 * want, (lam, l)


def test_g_weight_finite_at_large_lambda():
    # the product form gives g(150) = 0.0 at lam 150 and inf from lam 155
    assert _g_weight_products(150, 150, 150.0 ** 2 * 151 ** 2) == 0.0
    for lam in (150, 155, 300):
        for k in (float(lam ** 2 * (lam + 1) ** 2), np.inf):
            g = [g_weight(l, lam, k) for l in range(lam + 1)]
            assert all(0.0 < x < np.inf for x in g), lam


def test_so4_records_finite_at_lambda_150():
    # with g finite every residual is finite; casimir-prime is left out,
    # since its absolute bound is crossed from lam 87 on by rounding alone
    rep = verify_so4_reconstruction(build_sphere(150), tol=1e-10)
    assert all(np.isfinite(c.residual) for c in rep.checks)
    assert all(c.passed for c in rep.checks if c.tag != "isomD3/casimir-prime")


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
        u = rotate(s, EulerAngles(0.0, theta, 0.0), np.eye(s.dim))
        want = np.zeros((s.dim, s.dim))
        for l in range(lam + 1):
            sl = slice(s.index(l, -l), s.index(l, l) + 1)
            want[sl, sl] = _wigner_small_d(l, -theta)
        assert np.abs(u - want).max() <= 1e-13


def test_rotation_identity_and_phases():
    s = build_sphere(2)
    assert np.allclose(rotate(s, EulerAngles(0, 0, 0), np.eye(s.dim)),
                       np.eye(s.dim), atol=1e-14)
    g = EulerAngles(0.8, 0.0, 0.0)
    u = rotate(s, g, np.eye(s.dim))
    m_of = np.concatenate([np.arange(-l, l + 1) for l in range(3)])
    assert np.allclose(u, np.diag(np.exp(1j * 0.8 * m_of)), atol=1e-13)


def _dense_rotation(space, g):
    """Oracle: the three exponentials as dense eigendecompositions."""
    return (expm_hermitian_generator(dense(space, "L3"), g.phi)
            @ expm_hermitian_generator(dense(space, "L2"), g.theta)
            @ expm_hermitian_generator(dense(space, "L3"), g.psi))


@pytest.mark.parametrize("space", [build_sphere(lam) for lam in range(7)]
                         + [build_madore(l) for l in (0.5, 1.5, 2.0)],
                         ids=[f"sphere{lam}" for lam in range(7)]
                         + [f"madore{l}" for l in (0.5, 1.5, 2.0)])
def test_block_rotation_matches_dense_product(space):
    # rotate applied to the identity and to a block of states, against the
    # three exponentials and against the dense pi(g) of the oracle
    rng = np.random.default_rng(space.dim)
    for _ in range(5):
        g = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                        rng.uniform(0, 2 * np.pi))
        u = _dense_rotation(space, g)
        assert np.abs(rotate(space, g, np.eye(space.dim)) - u).max() <= 1e-13
        assert np.abs(rotation_operator(space, g) - u).max() <= 1e-13


@pytest.mark.parametrize("k", [None, np.inf])
def test_rotate_matches_dense_rotation_operator(k):
    # a state, a block and their rotations up to lam = 12
    rng = np.random.default_rng(12)
    for lam in range(13):
        s = build_sphere(lam, k)
        block = rng.normal(size=(s.dim, 3)) + 1j * rng.normal(size=(s.dim, 3))
        g = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                        rng.uniform(0, 2 * np.pi))
        want = rotation_operator(s, g) @ block
        assert np.abs(rotate(s, g, block) - want).max() <= 1e-13
        assert np.abs(rotate(s, g, block[:, 1]) - want[:, 1]).max() <= 1e-13


@pytest.mark.parametrize("k", [None, np.inf])
def test_l2_eigh_matches_dense_l2_blocks(k):
    # each level's real basis V', read-only and orthonormal, gives the
    # block of the dense L_2 as D V' diag(nu) V'^T D^dag, D = diag(i^m),
    # and nu lies at the integers -l..l
    for lam in range(13):
        s = build_sphere(lam, k)
        l2 = dense(s, "L2")
        assert len(s.l2_eigh) == lam + 1
        for l, (sl, vals, vecs) in enumerate(s.l2_eigh):
            assert sl == slice(l * l, (l + 1) ** 2)
            assert vecs.dtype == float and vals.dtype == float
            assert not vecs.flags.writeable and not vals.flags.writeable
            assert np.abs(vecs.T @ vecs - np.eye(2 * l + 1)).max() <= 1e-14
            d = np.array([1, 1j, -1, -1j])[s.m_of[sl] % 4]
            got = (d[:, None] * vecs * vals) @ (vecs.T * d.conj())
            assert np.abs(got - l2[sl, sl]).max() <= 1e-13
            assert np.abs(vals - np.arange(-l, l + 1)).max() <= 1e-12


def test_rotations_share_one_eigendecomposition(monkeypatch):
    from fuzzysphere import coherent
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
        m = np.real(np.diag(dense(space, "L3")))
        l2 = dense(space, "L2")
        want = []
        for g in gs:
            u = np.zeros((space.dim, space.dim), dtype=complex)
            start = 0
            for n in levels:
                sl = slice(start, start + n)
                vals, vecs = np.linalg.eigh(l2[sl, sl])
                u[sl, sl] = (vecs * np.exp(1j * g.theta * vals)) @ vecs.conj().T
                start += n
            u *= np.exp(1j * g.phi * m)[:, None]
            u *= np.exp(1j * g.psi * m)
            want.append(u)

        # the polar rule of the identity check is cached per lambda and
        # takes an eigh of its own, so it is made before the count starts
        coherent._polar_nodes(4)
        sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: sizes.append(a.shape[0]) or eigh(a))
        for g, u in zip(gs, want):
            assert np.abs(rotate(space, g, np.eye(space.dim)) - u).max() <= 1e-14
        if isinstance(space, FuzzySphere):
            spin_cs(space, 2, gs[0])
            strong_scs_sphere_phi(space, np.zeros(space.lam + 1), gs[1])
            verify_identity_resolution_sphere(space, "spin")
        weak_scs_orbit(space, np.eye(space.dim)[:, 0], gs)
        assert sizes == levels          # one eigh per level, for all of them
        monkeypatch.undo()


@pytest.mark.parametrize("space", [build_sphere(4), build_madore(1.5)],
                         ids=["sphere4", "madore1.5"])
def test_block_of_rotations_matches_column_by_column(space):
    # one EulerAngles per column, each level's two products taken once for
    # the whole block
    rng = np.random.default_rng(40)
    gs = [EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                      rng.uniform(0, 2 * np.pi)) for _ in range(7)]
    block = rng.normal(size=(space.dim, 7)) + 1j * rng.normal(size=(space.dim, 7))
    block /= np.linalg.norm(block, axis=0)
    want = np.column_stack([rotate(space, g, v) for g, v in zip(gs, block.T)])
    assert np.abs(rotate(space, gs, block) - want).max() <= 1e-14
    for wrong in (gs[:6], gs + gs[:1]):
        with pytest.raises(ValueError, match="rotations for a block of 7"):
            rotate(space, wrong, block)


def test_circle_block_of_angles_is_bitwise_column_by_column():
    c = build_circle(5)
    rng = np.random.default_rng(41)
    chi = rng.normal(size=c.dim) + 1j * rng.normal(size=c.dim)
    chi /= np.linalg.norm(chi)
    alphas = np.array([0.0, 1.3, -4.2, 2.0])
    got = rotate(c, alphas, np.repeat(chi[:, None], 4, axis=1))
    assert np.array_equal(got, np.column_stack([rotate(c, a, chi) for a in alphas]))
    assert np.array_equal(got[:, 0], chi)
    with pytest.raises(ValueError, match="3 rotations for a block of 4"):
        rotate(c, alphas[:3], np.repeat(chi[:, None], 4, axis=1))


def test_sphere_rotation_must_be_euler_angles():
    s = build_sphere(2)
    chi = np.eye(s.dim)[:, 0]
    with pytest.raises(ValueError, match="sphere rotation is an EulerAngles"):
        rotate(s, 0.3, chi)
    # one wrong member of a sequence is enough
    with pytest.raises(ValueError, match="sphere rotation is an EulerAngles"):
        rotate(s, [EulerAngles(0, 0, 0), 0.3], np.column_stack([chi, chi]))


def test_circle_rotation_must_be_an_angle():
    c = build_circle(2)
    with pytest.raises(ValueError, match="circle rotation is an angle"):
        rotate(c, EulerAngles(0.1, 0.2, 0.3), np.eye(c.dim)[:, 0])


def test_circle_rotation_matches_dense_exponential():
    c = build_circle(5)
    for alpha in (0.0, 1.3, -4.2):
        assert (np.abs(rotate(c, alpha, np.eye(c.dim))
                       - expm_hermitian_generator(dense(c, "L"), alpha)).max()
                <= 1e-14)


def test_rotation_unitary_and_block_diagonal():
    s = build_sphere(3)
    g = EulerAngles(1.2, 0.7, 2.9)
    u = rotate(s, g, np.eye(s.dim))
    l2 = dense(s, "l2")
    assert np.allclose(u.conj().T @ u, np.eye(s.dim), atol=1e-12)
    assert np.linalg.norm(u @ l2 - l2 @ u) <= 1e-10


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
    rotated = rotate(s, g, chi)
    before = np.array([_expect(op, chi) for op in x_ops(s)])
    after = np.array([_expect(op, rotated) for op in x_ops(s)])
    assert np.allclose(classical_rotation(g) @ before, after, atol=1e-10)


def test_circle_expectation_transforms_classically():
    c = build_circle(3)
    rng = np.random.default_rng(5)
    chi = _unit(rng.normal(size=c.dim) + 1j * rng.normal(size=c.dim))
    alpha = 1.23
    rotated = rotate(c, alpha, chi)
    before = np.array([_expect(op, chi) for op in x_ops(c)])
    after = np.array([_expect(op, rotated) for op in x_ops(c)])
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
    u = rotate(s, g1, rotate(s, g2, np.eye(s.dim)))
    # the product is unitary and still commutes with L^2
    l2 = dense(s, "l2")
    assert np.allclose(u.conj().T @ u, np.eye(s.dim), atol=1e-12)
    assert np.linalg.norm(u @ l2 - l2 @ u) <= 1e-10
