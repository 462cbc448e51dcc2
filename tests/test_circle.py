"""Fuzzy circle construction and relation suite."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import dense_oracle
from dense_oracle import dense
from fuzzysphere import shift
from fuzzysphere.circle import (build_circle, coordinate_matrix,
                                ladder_coefficient, min_sharpness,
                                verify_circle_relations)
from fuzzysphere.coherent import check_heisenberg_circle
from fuzzysphere.lierep import verify_su2_reconstruction
from fuzzysphere.linop import random_states
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
    with pytest.raises(ValueError, match="not a number"):
        build_circle(2, float("nan"))
    with pytest.raises(ValueError, match="below the admissible minimum 36"):
        build_circle(2, 10.0)
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
    out = dense(c, "x_plus") @ np.eye(c.dim)[:, c.index(0)]
    assert out[c.index(1)] == pytest.approx(1.0)
    assert ladder_coefficient(1, 4.0) == pytest.approx(np.sqrt(1.5))


def test_top_state_annihilated():
    c = build_circle(4)
    top = np.eye(c.dim)[:, c.index(4)]
    assert np.linalg.norm(dense(c, "x_plus") @ top) == 0.0


def test_coordinates_hermitian():
    c = build_circle(3)
    for op in (dense(c, n) for n in ("x1", "x2", "x_squared")):
        assert np.allclose(op, op.conj().T, rtol=0.0, atol=1e-12)
    assert np.allclose(dense(c, "x_minus"), dense(c, "x_plus").conj().T)


@pytest.mark.parametrize("lam", [1, 2, 3, 5, 8, 13])
def test_relations_hold(lam):
    rep = verify_circle_relations(build_circle(lam))
    assert rep.passed
    assert max(c.residual for c in rep.checks) <= 1e-12


def test_relations_hold_for_larger_k():
    rep = verify_circle_relations(build_circle(4, k=1e6))
    assert rep.passed


def _scaled_term(c, key, source, factor):
    """c with the weight of term `key` at basis index `source` scaled."""
    terms = np.array(c.terms)
    terms[c.term_keys.index(key), source] *= factor
    return dataclasses.replace(c, terms=terms)


def test_relations_catch_tampering():
    # x_+ psi_1 = c psi_2: the entry [0, 1] of the dense x_+
    c = build_circle(2)
    bad = _scaled_term(c, ("x_plus", 0, 1), c.index(1), 1.01)
    rep = verify_circle_relations(bad)
    assert not rep.passed
    assert rep.first_failure() is not None


@pytest.mark.parametrize("field", ["x_plus", "x_minus", "x_squared"])
def test_r2_catches_perturbed_ladder_or_square(field):
    # x_squared is stored in closed form, so defR2D=2 must see a change on
    # either side of x^2 = (x_+ x_- + x_- x_+)/2
    c = build_circle(3)
    key = next(key for key in c.term_keys if key[0] == field)
    source = np.flatnonzero(c.terms[c.term_keys.index(key)])[0]
    bad = _scaled_term(c, key, source, 1.01)
    rec = next(r for r in verify_circle_relations(bad).checks
               if r.tag == "defR2D=2")
    assert not rec.passed


def _with_diagonal_shift(c, index, delta):
    terms = np.array(c.terms)
    terms[c.term_keys.index(("L", 0, 0)), index] += delta
    return dataclasses.replace(c, terms=terms)


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
        assert not poly.passed and poly.residual == pytest.approx(1e-8, rel=1e-2)


@pytest.mark.parametrize("delta, want", [(-0.7, 0.3), (0.7, 0.7), (np.nan, np.nan)])
def test_l_poly_is_the_distance_to_the_nearest_label(delta, want):
    # psi_lam's L moved from 3 to 2.3 (nearest label 2), to 3.7 (above the
    # top label 3) or to NaN, which fails the record as its residual
    c = build_circle(3)
    rep = verify_circle_relations(_with_diagonal_shift(c, 0, delta))
    poly = next(r for r in rep.checks if r.tag == "commrelD=2/L-poly")
    assert not poly.passed
    assert poly.residual == pytest.approx(want, rel=1e-12, nan_ok=True)


def test_x_squared_edge_projection():
    # <x^2> on the top state is depressed by half the edge weight
    lam, k = 3, float(min_sharpness(3))
    c = build_circle(lam)
    top = np.eye(c.dim)[:, c.index(lam)]
    expected = 1 + lam ** 2 / k - (1 + lam * (lam + 1) / k) / 2
    assert np.real(top @ dense(c, "x_squared") @ top) == pytest.approx(expected,
                                                                   abs=1e-14)


def test_coordinate_matrix_entries():
    c = build_circle(2, 36.0)
    t = coordinate_matrix(2, 36.0)
    assert t.n == 5
    # row i couples labels 2-i and 1-i
    expected = [0.5 * ladder_coefficient(n, 36.0) for n in (1, 0, -1, -2)]
    assert np.allclose(t.offdiag, expected)
    assert np.allclose(t.dense(), dense(c, "x1"))


def test_coordinate_matrix_toeplitz_limit():
    # k = inf is the Toeplitz limit: every off-diagonal is exactly 1/2
    for lam in (1, 3, 50, 200):
        t = coordinate_matrix(lam, np.inf)
        assert np.array_equal(t.offdiag, np.full(2 * lam, 0.5))


def _loop_build(lam, k):
    """x_+ filled entry by entry, the reference for build_circle's array
    fill, as a dense matrix and as the weight at each source."""
    dim = 2 * lam + 1
    xp = np.zeros((dim, dim), dtype=complex)
    weights = np.zeros(dim, dtype=complex)
    for n in range(-lam, lam):
        # psi_n sits at index lam-n, psi_{n+1} one row above
        xp[lam - n - 1, lam - n] = weights[lam - n] = float(
            np.sqrt(1.0 + n * (n + 1) / k))
    return xp, weights


@pytest.mark.parametrize("k", [None, np.inf])
def test_build_matches_entrywise_loop(k):
    for lam in range(1, 13):
        c = build_circle(lam, k)
        xp, weights = _loop_build(lam, c.k)
        assert c.terms[c.term_keys.index(("x_plus", 0, 1))].tobytes() == weights.tobytes()
        # x_- psi_n = c(n-1) psi_{n-1}: the weight x_+ has at psi_{n-1}
        down = np.append(weights[1:], 0.0)
        assert c.terms[c.term_keys.index(("x_minus", 0, -1))].tobytes() == down.tobytes()
        assert dense(c, "x_plus").tobytes() == xp.tobytes()
        assert np.array_equal(dense(c, "x_minus"), xp.conj().T)
        t = coordinate_matrix(lam, k)
        assert t.offdiag.tobytes() == (0.5 * np.diag(xp, 1)).tobytes()


@pytest.mark.parametrize("k", [None, np.inf])
def test_coordinate_spectrum_matches_dense_x1(k):
    for lam in range(1, 13):
        got = np.sort(eig_bisection(coordinate_matrix(lam, k)).values)
        ref = np.linalg.eigvalsh(dense(build_circle(lam, k), "x1"))
        assert np.abs(got - ref).max() <= 1e-12


@pytest.mark.parametrize("k", [None, np.inf])
def test_suites_match_dense_oracle(k):
    # the relation and su(2) suites on shift terms against the same checks
    # as dense products, record by record
    suites = [(verify_circle_relations, dense_oracle.verify_circle_relations),
              (verify_su2_reconstruction, dense_oracle.verify_su2_reconstruction)]
    for lam in range(1, 13):
        c = build_circle(lam, k)
        for terms_suite, dense_suite in suites:
            got, want = terms_suite(c).checks, dense_suite(c).checks
            assert [(r.tag, r.passed) for r in got] == \
                [(r.tag, r.passed) for r in want]
            for a, b in zip(got, want):
                assert abs(a.residual - b.residual) <= 1e-15, (lam, a.tag)


def test_targets_and_can_shift_match_label_loop():
    # every key of a box well outside the space, label by label, with
    # dl != 0 among them
    for lam in range(1, 7):
        c = build_circle(lam)
        keys = [(dl, dn) for dl in (-1, 0, 2) for dn in range(-2 * lam - 3, 2 * lam + 4)]
        want = np.full((len(keys), c.dim), c.dim)
        for j, (dl, dn) in enumerate(keys):
            for i, n in enumerate(range(lam, -lam - 1, -1)):
                if dl == 0 and abs(n + dn) <= lam:
                    want[j, i] = lam - (n + dn)
        assert np.array_equal(c.targets(keys), want)
        lo = np.array([(a, b) for a in (-1, 0, 1) for b in range(-2 * lam - 2, 2 * lam + 3)])
        for width in ((0, 0), (0, 3), (1, 0), (2, 1)):
            hi = lo + width
            want = [any(dl == 0 and abs(n + dn) <= lam for n in range(-lam, lam + 1)
                        for dl in range(a, c_ + 1) for dn in range(b, d + 1))
                    for (a, b), (c_, d) in zip(lo, hi)]
            assert list(c.can_shift(lo, hi)) == want


def test_nilpotency_decided_before_any_product(monkeypatch):
    # the one x_+ key moves n by one, so the grading alone shows that
    # x_+^(2 lam + 1) vanishes: the power is pruned before its first
    # target lookup, which every step makes before its products
    calls, lookups = [], []
    power_norm = shift.power_norm

    def counted(space, name, n):
        calls.append((name, n))
        spy = SimpleNamespace(terms=space.terms, term_keys=space.term_keys,
                              dim=space.dim, can_shift=space.can_shift,
                              targets=lambda keys: lookups.append(keys)
                              or space.targets(keys))
        return power_norm(spy, name, n)

    monkeypatch.setattr(shift, "power_norm", counted)
    for k in (None, np.inf):
        rep = verify_circle_relations(build_circle(200, k))
        rec = next(r for r in rep.checks if r.tag == "commrelD=2/nilpotent")
        assert rec.passed and rec.residual == 0.0
    assert calls == [("x_plus", 401)] * 2
    assert lookups == []


def test_suites_at_lambda_200():
    c = build_circle(200)
    reps = [verify_circle_relations(c), verify_su2_reconstruction(c)]
    for rep in reps:
        assert rep.passed, rep.first_failure()
        assert all(np.isfinite(r.residual) for r in rep.checks)


def test_circle_checks_form_no_dense_array():
    # at lam 200 one dense operator takes 2.6 MB: the relation and su(2)
    # suites and the uncertainty check on a few states peak below half that
    c = build_circle(200)
    states = random_states(np.random.default_rng(5), c.dim, 4)
    checks = [lambda: verify_circle_relations(c), lambda: verify_su2_reconstruction(c),
              lambda: check_heisenberg_circle(c, states)]
    for check in checks:
        check()                 # the shift import and the tables, once
    dense_bytes = c.dim ** 2 * np.dtype(complex).itemsize
    for check in checks:
        tracemalloc.start()
        try:
            assert check().passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 2, (check, peak)
    arrays = [getattr(c, f.name) for f in dataclasses.fields(c)] + list(c._gather)
    assert max(np.size(a) for a in arrays) < c.dim ** 2
