"""Fuzzy sphere construction, relation suite, coordinate blocks, Madore
comparator."""

import dataclasses

import numpy as np
import pytest

from dense_oracle import dense, x_ops
from fuzzysphere import cli, sphere
from fuzzysphere.coherent import minimize_dispersion
from fuzzysphere.sphere import (build_sphere, clebsch_a, coordinate_blocks,
                                verify_sphere_relations)
from fuzzysphere.spectral import eig_bisection, sphere_diag_report
from madore import build_madore


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
    for op in x_ops(s):
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
    psi = np.eye(s.dim)[:, s.index(2, -1)]
    assert np.real(psi @ dense(s, "l2") @ psi) == pytest.approx(6.0)
    assert np.real(psi @ dense(s, "L3") @ psi) == pytest.approx(-1.0)


def test_ladder_edges():
    s = build_sphere(3)
    for l in range(4):
        top = np.eye(s.dim)[:, s.index(l, l)]
        assert np.linalg.norm(dense(s, "L_plus") @ top) == 0.0


def test_coordinate_action_example():
    # lam=1, k=4: x_0 psi_0^0 = sqrt(5/12) psi_1^0
    s = build_sphere(1, 4.0)
    out = dense(s, "x3") @ np.eye(s.dim)[:, s.index(0, 0)]
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
    # the x_3 entry from psi_0^0 to psi_1^0, stored as a term weight
    s = build_sphere(2)
    terms = np.array(s.terms)
    terms[s.term_keys.index(("x3", 1, 0)), s.index(0, 0)] *= 1.01
    bad = dataclasses.replace(s, terms=terms)
    rep = verify_sphere_relations(bad)
    assert not rep.passed


@pytest.mark.parametrize("op, tag", [("l2", "rf3D3/L2-poly"),
                                     ("L3", "rf3D3/L3-poly")])
def test_annihilator_polynomials_catch_perturbed_diagonal(op, tag):
    s = build_sphere(6)
    terms = np.array(s.terms)
    terms[s.term_keys.index((op, 0, 0)), s.index(3, 1)] += 1e-8
    bad = dataclasses.replace(s, terms=terms)
    rec = next(c for c in verify_sphere_relations(bad).checks if c.tag == tag)
    # the record is the entry's distance from its eigenvalue, 12 or 1
    assert not rec.passed and rec.residual == pytest.approx(1e-8, rel=1e-2)


@pytest.mark.parametrize("op, value, want", [
    ("l2", -0.5, 0.5), ("l2", 4.5, 1.5), ("l2", 8.0, 2.0), ("l2", 13.0, 1.0),
    ("l2", np.nan, np.nan), ("L3", 2.4, 0.4), ("L3", -3.0, 1.0), ("L3", 1.5, 0.5)])
def test_annihilator_records_are_distances_to_allowed_eigenvalues(op, value, want):
    # one entry at level 2 of lam 3 moved off the spectrum: below the
    # lowest, between two and above the highest of 0, 2, 6, 12 for L^2,
    # outside -2..2 or between two of them for L_3; a NaN entry is the
    # record's residual
    s = build_sphere(3)
    terms = np.array(s.terms)
    terms[s.term_keys.index((op, 0, 0)), s.index(2, 1)] = value
    bad = dataclasses.replace(s, terms=terms)
    tag = {"l2": "rf3D3/L2-poly", "L3": "rf3D3/L3-poly"}[op]
    rec = next(c for c in verify_sphere_relations(bad).checks if c.tag == tag)
    assert not rec.passed
    assert rec.residual == pytest.approx(want, rel=1e-12, nan_ok=True)


def test_l3_poly_fails_on_a_nan_entry():
    # a NaN on one level's L_3 diagonal must fail the record, not drop out
    # of the maximum over the levels
    s = build_sphere(4)
    terms = np.array(s.terms)
    terms[s.term_keys.index(("L3", 0, 0)), s.index(2, 1)] = np.nan
    bad = dataclasses.replace(s, terms=terms)
    rec = next(c for c in verify_sphere_relations(bad).checks
               if c.tag == "rf3D3/L3-poly")
    assert not rec.passed and np.isnan(rec.residual)


@pytest.mark.parametrize("field", ["x_plus", "x_minus", "x3", "x_squared"])
def test_r2_catches_perturbed_coordinate_or_square(field):
    # x_squared is stored in closed form, so xx/r2 must see a change on
    # either side of x^2 = x_0^2 + (x_+ x_- + x_- x_+)/2
    s = build_sphere(3)
    terms = np.array(s.terms)
    j = next(j for j, key in enumerate(s.term_keys) if key[0] == field)
    terms[j, np.flatnonzero(terms[j])[0]] *= 1.01
    bad = dataclasses.replace(s, terms=terms)
    rec = next(c for c in verify_sphere_relations(bad).checks
               if c.tag == "xx/r2")
    assert not rec.passed


def test_x_squared_is_function_of_l():
    lam = 5
    s = build_sphere(lam)
    x2 = dense(s, "x_squared")
    d = np.real(np.diag(x2))
    assert np.abs(x2 - np.diag(np.diag(x2))).max() < 1e-14
    for l in range(lam):
        sl = slice(l * l, (l + 1) ** 2)
        assert np.allclose(d[sl], 1 + (l * (l + 1) + 1) / s.k)


def test_x0_commutes_with_l3():
    s = build_sphere(4)
    x3, L3 = dense(s, "x3"), dense(s, "L3")
    comm = x3 @ L3 - L3 @ x3                    # x_3 is the a = 0 component x_0
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
        sub = dense(s, "x3")[np.ix_(idx, idx)]
        assert np.allclose(sub, blocks[abs(m)].dense())


@pytest.mark.parametrize("k", [None, np.inf])
def test_sectors_are_the_dense_cuts(k):
    # the minimizer's sector blocks are bitwise the real parts of the dense
    # x^2 and x_3 of the same sphere cut to psi_l^m, l = m..lam, and sector
    # -m has them too: a sphere whose x_3 terms are scaled gets its own
    # blocks, and coordinate_blocks gives the blocks of the build
    for lam in range(13):
        built = build_sphere(lam, k)
        terms = np.array(built.terms)
        for key in (("x3", -1, 0), ("x3", 1, 0)):
            terms[built.term_keys.index(key)] *= 1.5
        scaled = dataclasses.replace(built, terms=terms)
        for s in (built, scaled):
            x2, x3 = dense(s, "x_squared"), dense(s, "x3")
            sectors = list(s.sectors())
            assert len(sectors) == lam + 1
            for m, (idx, w, q, xr) in enumerate(sectors):
                assert list(idx) == [s.index(l, m) for l in range(m, lam + 1)]
                assert np.array_equal(w, np.ones(idx.size))
                for sign in (1, -1):
                    cut = [s.index(l, sign * m) for l in range(m, lam + 1)]
                    assert np.array_equal(q, np.real(x2[np.ix_(cut, cut)]))
                    assert np.array_equal(xr, np.real(x3[np.ix_(cut, cut)]))
        blocks = coordinate_blocks(lam, k)
        assert sorted(blocks) == list(range(lam + 1))
        for m, (_, _, _, xr) in enumerate(built.sectors()):
            assert np.array_equal(np.real(blocks[m].dense()), xr)
            assert np.array_equal(list(scaled.sectors())[m][3], 1.5 * xr)


@pytest.mark.parametrize("k", [None, np.inf, 2e4])
def test_coordinate_blocks_are_the_builds_bitwise(k):
    for lam in range(14):
        if k is not None and k < sphere.min_sharpness(lam):
            continue
        built = build_sphere(lam, k).x3_blocks()
        blocks = coordinate_blocks(lam, k)
        assert sorted(blocks) == sorted(built)
        for m, t in blocks.items():
            assert t.offdiag.dtype == built[m].offdiag.dtype
            assert t.offdiag.tobytes() == built[m].offdiag.tobytes()


def test_spectra_of_the_blocks_build_no_sphere(monkeypatch, tmp_path):
    calls = []
    build = sphere.build_sphere
    monkeypatch.setattr(sphere, "build_sphere",
                        lambda *args: calls.append(args) or build(*args))
    assert sphere_diag_report(1, 9).passed
    assert cli.write_spectra_csv(2, range(1, 6), None, str(tmp_path / "s.csv"))
    assert calls == []
    # the patch is seen where a build is made
    coordinate_blocks(2)
    sphere.build_sphere(2)
    assert calls == [(2,)]


def test_targets_match_label_loop():
    # dense() scatters through targets, so it cannot see a fault there:
    # every key of a box well outside the space, label by label
    for lam in range(7):
        s = build_sphere(lam)
        labels = [(l, m) for l in range(lam + 1) for m in range(-l, l + 1)]
        keys = [(dl, dm) for dl in range(-2 * lam - 3, 2 * lam + 4)
                for dm in range(-4 * lam - 3, 4 * lam + 4)]
        want = np.full((len(keys), s.dim), s.dim)
        for j, (dl, dm) in enumerate(keys):
            for i, (l, m) in enumerate(labels):
                if 0 <= l + dl <= lam and abs(m + dm) <= l + dl:
                    want[j, i] = (l + dl) ** 2 + (l + dl) + m + dm
        assert np.array_equal(s.targets(keys), want)


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
        for name, ref in (("L_plus", Lp), ("x3", xs[0]), ("x_plus", xs[1]),
                          ("x_minus", xs[-1])):
            assert dense(s, name).tobytes() == ref.tobytes()
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
        ref = np.linalg.eigvalsh(dense(build_sphere(lam, k), "x3"))
        assert np.abs(np.sort(vals) - ref).max() <= 1e-12
