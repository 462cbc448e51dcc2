"""Fuzzy sphere construction, relation suite, coordinate blocks, Madore
comparator."""

import dataclasses

import numpy as np
import pytest

from fuzzysphere.coherent import minimize_dispersion
from fuzzysphere.linop import State, expect
from fuzzysphere.sphere import (build_madore, build_sphere, clebsch_a,
                                coordinate_blocks, verify_sphere_relations)
from fuzzysphere.spectral import eig_bisection


def test_build_validations():
    with pytest.raises(ValueError):
        build_sphere(-1)
    with pytest.raises(ValueError):
        build_sphere(2, k=30.0)
    # the coordinate blocks share the build's default and validation of k
    for bad in (-1, 2), (2, 30.0), (2, float("nan")):
        with pytest.raises(ValueError):
            coordinate_blocks(*bad)


def test_degenerate_point():
    s = build_sphere(0)
    assert s.dim == 1
    for op in s.x_ops:
        assert np.all(op == 0)
    assert verify_sphere_relations(s).passed


def test_basis_indexing():
    s = build_sphere(2)
    assert s.index(0, 0) == 0
    assert s.index(1, -1) == 1
    assert s.index(1, 1) == 3
    assert s.index(2, -2) == 4
    assert s.index(2, 2) == 8
    with pytest.raises(ValueError):
        s.index(1, 2)
    with pytest.raises(ValueError):
        s.index(3, 0)
    for l in range(3):
        for m in range(-l, l + 1):
            assert (s.l_of[s.index(l, m)], s.m_of[s.index(l, m)]) == (l, m)
    with pytest.raises(ValueError):
        s.l_of[0] = 1                      # the labels are read-only


def test_diagonal_operators():
    s = build_sphere(3)
    psi = State.basis(s.dim, s.index(2, -1))
    assert expect(s.l2, psi).real == pytest.approx(6.0)
    assert expect(s.L3, psi).real == pytest.approx(-1.0)


def test_ladder_edges():
    s = build_sphere(3)
    for l in range(4):
        top = State.basis(s.dim, s.index(l, l))
        assert np.linalg.norm(s.L_plus @ top.coeffs) == 0.0


def test_coordinate_action_example():
    # lam=1, k=4: x_0 psi_0^0 = sqrt(5/12) psi_1^0
    s = build_sphere(1, 4.0)
    out = s.x3 @ State.basis(s.dim, s.index(0, 0)).coeffs
    assert out[s.index(1, 0)] == pytest.approx(np.sqrt(5 / 12))
    assert np.linalg.norm(out) == pytest.approx(np.sqrt(5 / 12))


def test_clebsch_sign_convention():
    # the raising/lowering weights carry opposite signs
    assert clebsch_a(2, 1, 0) > 0
    assert clebsch_a(2, -1, 0) < 0
    assert clebsch_a(1, 0, 1) == 0.0      # target out of range
    with pytest.raises(ValueError):
        clebsch_a(2, 2, 0)


@pytest.mark.parametrize("lam,k", [(1, 4.0), (1, None), (2, None), (4, None),
                                   (6, None)])
def test_relations_hold(lam, k):
    rep = verify_sphere_relations(build_sphere(lam, k))
    assert rep.passed
    assert max(c.residual for c in rep.checks) <= 1e-12


def test_relations_catch_tampering():
    s = build_sphere(2)
    mat = np.array(s.x3)
    mat[s.index(1, 0), s.index(0, 0)] *= 1.01
    bad = dataclasses.replace(s, x3=mat)
    rep = verify_sphere_relations(bad)
    assert not rep.passed


@pytest.mark.parametrize("op, tag", [("l2", "rf3D3/L2-poly"),
                                     ("L3", "rf3D3/L3-poly")])
def test_annihilator_polynomials_catch_perturbed_diagonal(op, tag):
    s = build_sphere(6)
    mat = np.array(getattr(s, op))
    i = s.index(3, 1)
    mat[i, i] += 1e-8
    bad = dataclasses.replace(s, **{op: mat})
    rec = next(c for c in verify_sphere_relations(bad).checks if c.tag == tag)
    assert not rec.passed and np.isfinite(rec.residual)


@pytest.mark.parametrize("field", ["x_plus", "x_minus", "x3", "x_squared"])
def test_r2_catches_perturbed_coordinate_or_square(field):
    # x_squared is stored in closed form, so xx/r2 must see a change on
    # either side of x^2 = x_0^2 + (x_+ x_- + x_- x_+)/2
    s = build_sphere(3)
    mat = np.array(getattr(s, field))
    row, col = np.argwhere(mat != 0)[0]
    mat[row, col] *= 1.01
    bad = dataclasses.replace(s, **{field: mat})
    rec = next(c for c in verify_sphere_relations(bad).checks
               if c.tag == "xx/r2")
    assert not rec.passed


def test_x_squared_is_function_of_l():
    lam = 5
    s = build_sphere(lam)
    d = np.real(np.diag(s.x_squared))
    assert np.abs(s.x_squared - np.diag(np.diag(s.x_squared))).max() < 1e-14
    for l in range(lam):
        sl = slice(l * l, (l + 1) ** 2)
        assert np.allclose(d[sl], 1 + (l * (l + 1) + 1) / s.k)


def test_x0_commutes_with_l3():
    s = build_sphere(4)
    comm = s.x3 @ s.L3 - s.L3 @ s.x3            # x_3 is the a = 0 component x_0
    assert np.linalg.norm(comm) <= 1e-12


def test_coordinate_blocks():
    blocks = coordinate_blocks(1, 4.0)
    assert set(blocks) == {0, 1}
    assert blocks[1].n == 1
    assert blocks[0].n == 2
    assert blocks[0].offdiag[0] == pytest.approx(np.sqrt(5 / 12))
    vals = eig_bisection(blocks[0]).values
    assert np.allclose(vals, [np.sqrt(5 / 12), -np.sqrt(5 / 12)])


def test_blocks_match_dense_x3_for_both_signs_of_m():
    s = build_sphere(3)
    blocks = coordinate_blocks(3)
    for m in range(-3, 4):
        idx = [s.index(l, m) for l in range(abs(m), 4)]
        sub = s.x3[np.ix_(idx, idx)]
        assert np.allclose(sub, blocks[abs(m)].dense())


def test_madore_build():
    with pytest.raises(ValueError):
        build_madore(0.3)
    with pytest.raises(ValueError):
        build_madore(0.0)
    ms = build_madore(0.5)
    vals = np.sort(np.linalg.eigvalsh(ms.x3))
    assert np.allclose(vals, [-1 / np.sqrt(3), 1 / np.sqrt(3)])
    assert np.allclose(ms.x_squared, np.eye(2))


def test_madore_spin1_spectrum():
    ms = build_madore(1.0)
    vals = np.sort(np.linalg.eigvalsh(ms.x3))
    assert np.allclose(vals, [-1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)], atol=1e-14)


def test_madore_bracket():
    ms = build_madore(1.5)
    scale = 1 / np.sqrt(1.5 * 2.5)
    comm = ms.x1 @ ms.x2 - ms.x2 @ ms.x1
    assert np.allclose(comm, 1j * scale * ms.x3, atol=1e-14)


@pytest.mark.parametrize("l,expected", [(0.5, 2 / 3), (1.0, 0.5), (10.0, 1 / 11)])
def test_madore_min_dispersion(l, expected):
    assert minimize_dispersion(build_madore(l))[1] == pytest.approx(expected,
                                                                    abs=1e-8)


def test_madore_top_eigenvalue_below_one():
    for l in (0.5, 1.0, 2.5, 7.0):
        ms = build_madore(l)
        top = np.linalg.eigvalsh(ms.x3).max()
        assert top == pytest.approx(l / np.sqrt(l * (l + 1)))
        assert top < 1.0


def _loop_clebsch(l, a, m):
    if l < 1 or abs(m + a) > l - 1:
        return 0.0
    den = (2 * l - 1) * (2 * l + 1)
    if a == 0:
        return float(np.sqrt((l + m) * (l - m) / den))
    if a == 1:
        return float(np.sqrt((l - m) * (l - m - 1) / den))
    return -float(np.sqrt((l + m) * (l + m - 1) / den))


def _loop_build(lam, k):
    """L_+ and x_a (a = 0, +1, -1) filled entry by entry, the reference for
    build_sphere's array fill."""
    dim = (lam + 1) ** 2
    idx = lambda l, m: l * l + l + m
    weight = lambda l: float(np.sqrt(1.0 + l * l / k)) if 1 <= l <= lam else 0.0
    Lp = np.zeros((dim, dim), dtype=complex)
    for l in range(lam + 1):
        for m in range(-l, l):
            Lp[idx(l, m + 1), idx(l, m)] = np.sqrt((l - m) * (l + m + 1))
    xs = {}
    for a in (0, 1, -1):
        xa = np.zeros((dim, dim), dtype=complex)
        for l in range(lam + 1):
            cl, cl1 = weight(l), weight(l + 1)
            for m in range(-l, l + 1):
                down = _loop_clebsch(l, a, m)
                if cl != 0.0 and down != 0.0:
                    xa[idx(l - 1, m + a), idx(l, m)] = cl * down
                if cl1 != 0.0 and abs(m + a) <= l + 1:
                    up = _loop_clebsch(l + 1, -a, m + a)  # B_l^{a,m}
                    if up != 0.0:
                        xa[idx(l + 1, m + a), idx(l, m)] = cl1 * up
        xs[a] = xa
    return Lp, xs


@pytest.mark.parametrize("k", [None, np.inf])
def test_build_matches_entrywise_loop(k):
    for lam in range(13):
        s = build_sphere(lam, k)
        Lp, xs = _loop_build(lam, s.k)
        for got, ref in ((s.L_plus, Lp), (s.x3, xs[0]), (s.x_plus, xs[1]),
                         (s.x_minus, xs[-1])):
            assert got.tobytes() == ref.tobytes()
        for m, t in coordinate_blocks(lam, k).items():
            idx = [s.index(l, m) for l in range(m, lam + 1)]
            ref = np.diag(xs[0][np.ix_(idx, idx)], -1)
            assert t.offdiag.tobytes() == ref.tobytes()


@pytest.mark.parametrize("k", [None, np.inf])
def test_block_spectra_match_dense_x3(k):
    for lam in range(1, 11):
        vals = []
        for m, t in coordinate_blocks(lam, k).items():
            vals += list(eig_bisection(t).values) * (2 if m > 0 else 1)
        ref = np.linalg.eigvalsh(build_sphere(lam, k).x3)
        assert np.abs(np.sort(vals) - ref).max() <= 1e-12
