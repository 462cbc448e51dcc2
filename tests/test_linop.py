"""Operator/state core: algebra, hermiticity, eigensolvers, exponentials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzysphere.linop import (DimensionMismatchError, NotHermitianError,
                               Operator, State, commutator, diag_annihilator,
                               expm_hermitian_generator, frobenius_residual,
                               hermitian_eig)


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_operator_requires_square():
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Operator(np.zeros(4))


def test_operator_immutable():
    op = Operator(np.eye(2))
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0


def test_dag_and_hermiticity():
    a = Operator([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
    assert a.is_hermitian()
    assert np.allclose(a.dag().mat, a.mat)
    b = Operator([[0.0, 1.0], [0.0, 0.0]])
    assert not b.is_hermitian()


def test_arithmetic():
    a = Operator(np.diag([1.0, 2.0]))
    b = Operator(np.diag([3.0, 4.0]))
    assert np.allclose((a + b).mat, np.diag([4.0, 6.0]))
    assert np.allclose((a - 1.0).mat, np.diag([0.0, 1.0]))
    assert np.allclose((2.0 * a).mat, np.diag([2.0, 4.0]))
    assert np.allclose((a / 2.0).mat, np.diag([0.5, 1.0]))
    assert np.allclose((-a).mat, np.diag([-1.0, -2.0]))
    assert np.allclose((a @ b).mat, np.diag([3.0, 8.0]))


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        Operator(np.eye(2)) @ Operator(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        Operator(np.eye(2)) @ State.basis(3, 0)


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        State(np.array([1.0, 1.0]))
    s = State.normalized([1.0, 1.0])
    assert abs(np.linalg.norm(s.coeffs) - 1.0) < 1e-15


def test_basis_state_and_overlap():
    e0 = State.basis(3, 0)
    e1 = State.basis(3, 1)
    assert e0.overlap(e1) == 0
    assert e0.overlap(e0) == 1


def test_commutators():
    rng = np.random.default_rng(0)
    a = Operator(random_matrix(rng, 4))
    b = Operator(random_matrix(rng, 4))
    assert np.allclose(commutator(a, b).mat, a.mat @ b.mat - b.mat @ a.mat)


def test_hermitian_eig_descending_and_orthonormal():
    rng = np.random.default_rng(1)
    m = random_matrix(rng, 6)
    h = Operator((m + m.conj().T) / 2)
    vals, vecs = hermitian_eig(h)
    assert np.all(np.diff(vals) <= 0)
    assert np.allclose(vecs.conj().T @ vecs, np.eye(6), atol=1e-12)
    assert np.allclose(h.mat @ vecs, vecs * vals, atol=1e-12)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(Operator([[0.0, 1.0], [0.0, 0.0]]))


def test_expm_unitary():
    rng = np.random.default_rng(2)
    m = random_matrix(rng, 5)
    h = Operator((m + m.conj().T) / 2)
    u = expm_hermitian_generator(h, 0.7)
    assert np.allclose(u.mat @ u.mat.conj().T, np.eye(5), atol=1e-12)
    # diagonal generator: plain phases
    d = Operator(np.diag([1.0, -2.0]))
    u2 = expm_hermitian_generator(d, np.pi)
    assert np.allclose(np.diag(u2.mat), [np.exp(1j * np.pi), np.exp(-2j * np.pi)])


def test_frobenius_residual():
    a = np.eye(3)
    assert frobenius_residual(a, a) == 0.0
    assert frobenius_residual(2 * a, a) == pytest.approx(np.sqrt(3) / (1 + np.sqrt(3)))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def test_expect_matches_quadratic_form(n, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, n)
    op = Operator(m)
    psi = State.normalized(rng.normal(size=n) + 1j * rng.normal(size=n))
    direct = psi.coeffs.conj() @ m @ psi.coeffs
    assert op.expect(psi) == pytest.approx(direct)


def test_diag_annihilator():
    roots = [0.0, 2.0, 6.0, 12.0]
    assert np.array_equal(diag_annihilator(np.array(roots), roots), np.zeros(4))
    # an entry off its nearest root by delta gives about delta
    got = diag_annihilator(np.array([2.0 + 1e-6, 7.0]), roots)
    assert got[0] == pytest.approx(1e-6, rel=1e-5)
    assert got[1] == pytest.approx(7 * 5 * 1 * -5 / (6 * 4 * -6))
    # 401 unit-spaced roots: the raw product would overflow
    roots = np.arange(-200.0, 201.0)
    assert np.abs(diag_annihilator(roots, roots)).max() == 0.0
    assert diag_annihilator(np.array([0.5]), roots)[0] == pytest.approx(
        np.prod((0.5 - roots) / np.where(roots == 0, 1.0, -roots)))
