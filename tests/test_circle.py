"""Fuzzy circle construction and relation suite."""

import dataclasses

import numpy as np
import pytest

from fuzzysphere.circle import (build_circle, coordinate_matrix,
                                ladder_coefficient, min_sharpness,
                                verify_circle_relations)
from fuzzysphere.spectral import eig_bisection


def test_build_validations():
    with pytest.raises(ValueError):
        build_circle(0)
    with pytest.raises(ValueError):
        build_circle(2, k=10.0)            # below 2^2 * 3^2 = 36
    # the coordinate matrix shares the build's default and validation of k
    for bad in (0, None), (2, 10.0), (2, float("nan")):
        with pytest.raises(ValueError):
            coordinate_matrix(*bad)
    assert np.array_equal(coordinate_matrix(3).offdiag,
                          coordinate_matrix(3, min_sharpness(3)).offdiag)


def test_default_sharpness_is_minimal():
    c = build_circle(3)
    assert c.k == min_sharpness(3) == 144.0


def test_basis_indexing():
    c = build_circle(2)
    assert c.index(2) == 0
    assert c.index(0) == 2
    assert c.index(-2) == 4
    with pytest.raises(ValueError):
        c.index(3)
    assert list(c.labels) == [2, 1, 0, -1, -2]


def test_ladder_action_small():
    # lam=1, k=4: x_+ psi_0 = psi_1 and x_+ psi_{-1} = psi_0 exactly,
    # since n(n+1) = 0 for both
    c = build_circle(1, 4.0)
    out = c.x_plus @ np.eye(c.dim)[:, c.index(0)]
    assert out[c.index(1)] == pytest.approx(1.0)
    assert ladder_coefficient(1, 4.0) == pytest.approx(np.sqrt(1.5))


def test_top_state_annihilated():
    c = build_circle(4)
    top = np.eye(c.dim)[:, c.index(4)]
    assert np.linalg.norm(c.x_plus @ top) == 0.0


def test_coordinates_hermitian():
    c = build_circle(3)
    for op in (c.x1, c.x2, c.x_squared):
        assert np.allclose(op, op.conj().T, rtol=0.0, atol=1e-12)
    assert np.allclose(c.x_minus, c.x_plus.conj().T)


@pytest.mark.parametrize("lam", [1, 2, 3, 5, 8, 13])
def test_relations_hold(lam):
    rep = verify_circle_relations(build_circle(lam))
    assert rep.passed
    assert max(c.residual for c in rep.checks) <= 1e-12


def test_relations_hold_for_larger_k():
    rep = verify_circle_relations(build_circle(4, k=1e6))
    assert rep.passed


def test_relations_catch_tampering():
    c = build_circle(2)
    mat = np.array(c.x_plus)
    mat[0, 1] *= 1.01
    bad = dataclasses.replace(c, x_plus=mat)
    rep = verify_circle_relations(bad)
    assert not rep.passed
    assert rep.first_failure() is not None


@pytest.mark.parametrize("field", ["x_plus", "x_minus", "x_squared"])
def test_r2_catches_perturbed_ladder_or_square(field):
    # x_squared is stored in closed form, so defR2D=2 must see a change on
    # either side of x^2 = (x_+ x_- + x_- x_+)/2
    c = build_circle(3)
    mat = np.array(getattr(c, field))
    row, col = np.argwhere(mat != 0)[0]
    mat[row, col] *= 1.01
    bad = dataclasses.replace(c, **{field: mat})
    rec = next(r for r in verify_circle_relations(bad).checks
               if r.tag == "defR2D=2")
    assert not rec.passed


def _with_diagonal_shift(c, index, delta):
    mat = np.array(c.L)
    mat[index, index] += delta
    return dataclasses.replace(c, L=mat)


@pytest.mark.parametrize("lam", [3, 100])
def test_l_poly_finite_and_catches_perturbed_diagonal(lam):
    # the dense product prod_n (L - n) overflowed to nan from lam ~ 90 on
    c = build_circle(lam)
    rep = verify_circle_relations(c)
    poly = next(r for r in rep.checks if r.tag == "commrelD=2/L-poly")
    assert poly.passed and poly.residual == 0.0
    for index in (0, lam):                      # edge and centre of the spectrum
        bad = verify_circle_relations(_with_diagonal_shift(c, index, 1e-8))
        poly = next(r for r in bad.checks if r.tag == "commrelD=2/L-poly")
        assert not poly.passed and np.isfinite(poly.residual)


def test_x_squared_edge_projection():
    # <x^2> on the top state is depressed by half the edge weight
    lam, k = 3, float(min_sharpness(3))
    c = build_circle(lam)
    top = np.eye(c.dim)[:, c.index(lam)]
    expected = 1 + lam ** 2 / k - (1 + lam * (lam + 1) / k) / 2
    assert np.real(top @ c.x_squared @ top) == pytest.approx(expected, abs=1e-14)


def test_coordinate_matrix_entries():
    c = build_circle(2, 36.0)
    t = coordinate_matrix(2, 36.0)
    assert t.n == 5
    # row i couples labels 2-i and 1-i
    expected = [0.5 * ladder_coefficient(n, 36.0) for n in (1, 0, -1, -2)]
    assert np.allclose(t.offdiag, expected)
    assert np.allclose(t.dense(), c.x1)


def test_coordinate_matrix_toeplitz_limit():
    # k = inf is the Toeplitz limit: every off-diagonal is exactly 1/2
    for lam in (1, 3, 50, 200):
        t = coordinate_matrix(lam, np.inf)
        assert np.array_equal(t.offdiag, np.full(2 * lam, 0.5))


def _loop_build(lam, k):
    """x_+ filled entry by entry, the reference for build_circle's array
    fill."""
    dim = 2 * lam + 1
    xp = np.zeros((dim, dim), dtype=complex)
    for n in range(-lam, lam):
        # psi_n sits at index lam-n, psi_{n+1} one row above
        xp[lam - n - 1, lam - n] = float(np.sqrt(1.0 + n * (n + 1) / k))
    return xp


@pytest.mark.parametrize("k", [None, np.inf])
def test_build_matches_entrywise_loop(k):
    for lam in range(1, 13):
        c = build_circle(lam, k)
        xp = _loop_build(lam, c.k)
        assert c.x_plus.tobytes() == xp.tobytes()
        assert c.x_minus.tobytes() == xp.conj().T.tobytes()
        t = coordinate_matrix(lam, k)
        assert t.offdiag.tobytes() == (0.5 * np.diag(xp, 1)).tobytes()


@pytest.mark.parametrize("k", [None, np.inf])
def test_coordinate_spectrum_matches_dense_x1(k):
    for lam in range(1, 13):
        got = np.sort(eig_bisection(coordinate_matrix(lam, k)).values)
        ref = np.linalg.eigvalsh(build_circle(lam, k).x1)
        assert np.abs(got - ref).max() <= 1e-12
