"""Coherent-state families, uncertainty relations, dispersion minimizer."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
from dense_oracle import L_ops, dense, identity_sum_sphere, x_ops
from fuzzysphere.lierep import EulerAngles, rotate
from fuzzysphere.linop import Stream, random_states
from fuzzysphere.sphere import FuzzySphere, build_sphere
from madore import build_madore


def test_basis_states_saturate_circle_hur():
    # on psi_n both sides of every inequality vanish: <x> = 0 and Delta L = 0
    c = build_circle(4)
    for n in range(-4, 5):
        psi = np.eye(c.dim)[:, c.index(n)]
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
        chi = rng.normal(size=c.dim) + 1j * rng.normal(size=c.dim)
        assert check_heisenberg_circle(c, chi / np.linalg.norm(chi)).passed


def _block_spaces():
    yield from (build_circle(lam) for lam in range(1, 17))
    yield from (build_sphere(lam, k) for lam in range(1, 13)
                for k in (None, np.inf))
    yield from (build_madore(twol / 2) for twol in range(1, 7))


def _expect(op, psi):
    """<psi| op |psi>, real part: the per-state oracle for the block moments."""
    return float(np.real(psi.conj() @ (op @ psi)))


def test_block_moments_match_per_column_expect():
    # the sphere's moments are term gathers; the oracle is the dense product
    rng = np.random.default_rng(21)
    for space in _block_spaces():
        block = random_states(rng, space.dim, 7)
        d = dispersion(space, block)
        for j in range(block.shape[1]):
            psi = block[:, j]
            want = {"x_mean": [_expect(op, psi) for op in x_ops(space)],
                    "x2_mean": _expect(dense(space, "x_squared"), psi),
                    "L_mean": [_expect(op, psi) for op in L_ops(space)],
                    "l2_mean": _expect(dense(space, "l2"), psi)}
            for name, ref in want.items():
                got = getattr(d, name)[..., j]
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(got - ref)) <= 1e-14 * scale, (space, name)
            # the variances are the means' own combination, column by column
            assert d.x_var[j] == d.x2_mean[j] - np.sum(d.x_mean[:, j] ** 2)
            assert d.L_var[j] == d.l2_mean[j] - np.sum(d.L_mean[:, j] ** 2)


def test_angular_moments_are_bitwise_those_of_moments():
    # the L moments alone, as the LUR3''/random record reads them, are the
    # same numbers as the full moments pass gives
    rng = np.random.default_rng(12)
    for lam in (1, 4, 9):
        s = build_sphere(lam)
        block = random_states(rng, s.dim, 100)
        L_mean, l2_mean = s.angular_moments(block)
        full = s.moments(block)
        assert L_mean.tobytes() == full[2].tobytes()
        assert l2_mean.tobytes() == full[3].tobytes()


def test_block_of_one_is_bitwise_the_state():
    rng = np.random.default_rng(4)
    for space in (build_circle(6), build_sphere(4), build_madore(1.5)):
        v = random_states(rng, space.dim, 1)
        single, block = dispersion(space, v[:, 0]), dispersion(space, v)
        for name in ("x_mean", "x2_mean", "x_var", "L_mean", "l2_mean", "L_var"):
            assert np.array_equal(getattr(single, name),
                                  getattr(block, name)[..., 0]), name
        assert isinstance(single.x_var, float)
    c = build_circle(6)
    v = random_states(rng, c.dim, 1)
    assert (check_heisenberg_circle(c, v[:, 0]).checks
            == check_heisenberg_circle(c, v).checks)


def test_block_rejects_non_unit_column():
    c = build_circle(3)
    block = np.array(random_states(np.random.default_rng(0), c.dim, 4))
    block[:, 2] *= 1.5
    with pytest.raises(ValueError, match="column 2"):
        dispersion(c, block)
    with pytest.raises(ValueError, match="column 0"):
        check_heisenberg_circle(c, block[:, 2])       # 1-d: a block of one
    with pytest.raises(ValueError, match="2-d"):
        check_heisenberg_circle(c, block[None])       # 3-d: not a block


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_circle_hur_block_catches_one_offending_state(where):
    # with L and L^2 zeroed the left-hand sides vanish, so a state with
    # <x> != 0 breaks HURS^1; the basis states around it, with <x> = 0,
    # still pass, and the block must fail whichever column holds it
    c = build_circle(4)
    terms = np.array(c.terms)
    terms[[c.term_keys.index(("L", 0, 0)), c.term_keys.index(("l2", 0, 0))]] = 0.0
    broken = dataclasses.replace(c, terms=terms)
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


def test_slack_record_keeps_a_nan():
    nan = coherent._slack_record("t", np.array([1.0, np.nan]), np.zeros(2), 3)
    assert not nan.passed and np.isnan(nan.residual)
    # a met bound records +0.0, also at a slack of -0.0; a missed one the
    # shortfall
    for lhs, rhs in ((2.0, 1.0), (1.0, 1.0), (-0.0, 0.0)):
        rec = coherent._slack_record("t", np.array([lhs]), np.array([rhs]), 3)
        assert rec.passed and str(rec.residual) == "0.0"
    rec = coherent._slack_record("t", np.array([1.0]), np.array([1.5]), 3)
    assert not rec.passed and rec.residual == 0.5


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


def _three_point_rule(lam):
    return 3


def test_circle_resolution_needs_enough_points(monkeypatch):
    # 3 points alias every label difference divisible by 3, so the sum keeps
    # those off-diagonal entries; the residual is that of the sum of the
    # projectors of the strong states taken point by point
    monkeypatch.setattr(coherent, "_azimuthal_size", _three_point_rule)
    for lam in (2, 4, 8, 16, 30):
        c = build_circle(lam)
        beta = np.random.default_rng(lam).uniform(0, 2 * np.pi, c.dim)
        rep = verify_identity_resolution_circle(c, beta)
        states = [strong_scs_circle(c, beta, a)
                  for a in coherent.TWO_PI * np.arange(3) / 3]
        want = np.linalg.norm(c.dim / 3 * sum(np.outer(w, w.conj()) for w in states)
                              - np.eye(c.dim))
        assert not rep.passed and rep.checks[0].residual >= 0.7
        assert abs(rep.checks[0].residual - want) <= 1e-12 * want


def test_strong_circle_beta_length_checked():
    c = build_circle(2)
    with pytest.raises(ValueError):
        strong_scs_circle(c, np.zeros(3), 0.0)
    # dim entries in a column are not a beta indexed like the basis
    with pytest.raises(ValueError):
        strong_scs_circle(c, np.zeros((c.dim, 1)), 0.0)


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


def _omega_level_by_level(s, rng):
    """random_omega_weights as it was written first: two normal draws per
    level, its real parts and then its imaginary parts."""
    v = np.zeros(s.dim, dtype=complex)
    for l in range(s.lam + 1):
        block = rng.normal(size=2 * l + 1) + 1j * rng.normal(size=2 * l + 1)
        block *= np.sqrt(2 * l + 1) / ((s.lam + 1) * np.linalg.norm(block))
        v[s.index(l, -l):s.index(l, l) + 1] = block
    return v


@pytest.mark.parametrize("make_rng",
                         [np.random.default_rng, lambda seed: Stream(seed, 3)])
def test_omega_weights_are_the_level_by_level_draws(make_rng):
    # one block draw reads the same normals as the per-level draws, and
    # leaves the generator at the same place
    for lam in range(0, 30):
        s = build_sphere(lam)
        one, each = make_rng(lam), make_rng(lam)
        got = random_omega_weights(s, one)
        assert got.tobytes() == _omega_level_by_level(s, each).tobytes()
        assert one.random() == each.random()


def _brute_identity_sum(s, family, omega=None, beta=None):
    """Oracle: the quadrature sum point by point.  Each polar node's
    exp(i theta L_2) comes from one dense eigensolve of the whole L_2 and
    is applied to every seed (the m = l states for spin, the omega seed at
    each psi node, the phi seed), whose projectors are summed with the
    node's weight; then the phases of each azimuthal node are applied to
    that sum, node by node."""
    lam = s.lam
    n_az = coherent._azimuthal_size(lam)    # read at call time: tests patch it
    az = 2 * np.pi * np.arange(n_az) / n_az
    m = s.m_of
    if family == "spin":
        seeds = np.column_stack([np.sqrt(2 * l + 1) * np.eye(s.dim)[:, s.index(l, l)]
                                 for l in range(lam + 1)])
        norm = 2 * np.pi / n_az / (4 * np.pi)
    elif family == "omega":
        seeds = np.column_stack([np.exp(1j * psi * m) * omega for psi in az])
        norm = (lam + 1) ** 2 * (2 * np.pi / n_az) ** 2 / (8 * np.pi ** 2)
    else:
        v = np.zeros((s.dim, 1), dtype=complex)
        for l in range(lam + 1):
            v[s.index(l, 0)] = np.exp(1j * beta[l]) * np.sqrt(2 * l + 1) / (lam + 1)
        seeds = v
        norm = (lam + 1) ** 2 * (2 * np.pi / n_az) / (4 * np.pi)
    vals, vecs = np.linalg.eigh(dense(s, "L2"))
    polar = np.zeros((s.dim, s.dim), dtype=complex)
    thetas, weights = coherent._polar_nodes(lam)
    for theta, wt in zip(thetas, weights):
        y = (vecs * np.exp(1j * theta * vals)) @ (vecs.conj().T @ seeds)
        polar += wt * (y @ y.conj().T)
    total = np.zeros((s.dim, s.dim), dtype=complex)
    for phi in az:
        d = np.exp(1j * phi * m)
        total += d[:, None] * polar * d.conj()
    return norm * total


def test_polar_rule_computed_once_per_lambda():
    thetas, weights = coherent._polar_nodes(3)
    assert coherent._polar_nodes(3)[0] is thetas
    assert thetas.size == weights.size == 16
    for a in (thetas, weights):
        with pytest.raises(ValueError):
            a[0] = 0.0


def _legendre(x, n):
    """P_0 .. P_{n-1} at the points x, one row each, by Bonnet's recurrence."""
    p = np.zeros((n, x.size))
    p[0] = 1.0
    p[1] = x
    for j in range(1, n - 1):
        p[j + 1] = ((2 * j + 1) * x * p[j] - j * p[j - 1]) / (j + 1)
    return p


@pytest.mark.parametrize("n", [8, 40, 164, 404])
def test_golub_welsch_rule_is_gauss_legendre(n):
    # n = 4 lam + 4 for lam 1, 9, 40 and 100.  n nodes integrate every
    # P_j P_k, j, k < n, exactly: the Gram matrix is diag(2 / (2j + 1))
    nodes, weights = coherent._gauss_legendre(n)
    p = _legendre(nodes, n)
    gram = (p * weights) @ p.T
    assert np.abs(gram - np.diag(2.0 / (2 * np.arange(n) + 1))).max() <= 1e-14
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert np.abs(nodes - ref_nodes).max() <= 1e-15
    assert np.abs(weights - ref_weights).max() <= 1e-13


def test_sphere_suites_load_numpy_polynomial_only_with_numpy():
    # numpy 2 loads numpy.polynomial on first use and numpy 1 with numpy
    # itself; the sphere suites never use it, so after them it is loaded
    # exactly when `import numpy` alone loaded it
    code = ("import contextlib, io, sys\n"
            "import numpy\n"
            "eager = 'numpy.polynomial' in sys.modules\n"
            "from fuzzysphere.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['verify', '--d', '2', '--lambda', '1..3',"
            " '--suite', 'all'])\n"
            "print(code, ('numpy.polynomial' in sys.modules) == eager)\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "True"]


def _two_node_rule(lam):
    nodes, weights = coherent._gauss_legendre(2)
    return np.arccos(nodes), weights


@pytest.mark.parametrize("coarse", [False, True])
@pytest.mark.parametrize("lam", range(1, 13))
def test_identity_sum_matches_brute_force(lam, coarse, monkeypatch):
    # the blockwise residual is ||S - I||_F of the per-point sum S for any
    # polar rule, including one too coarse to give the identity, and so is
    # the dense reassociated sum of the test oracle
    if coarse:
        monkeypatch.setattr(coherent, "_polar_nodes", _two_node_rule)
    for k in (None, np.inf):
        s = build_sphere(lam, k)
        rng = np.random.default_rng(100 + lam)
        args = {"spin": {}, "omega": {"omega": random_omega_weights(s, rng)},
                "phi": {"beta": rng.uniform(0, 2 * np.pi, lam + 1)}}
        for family, kw in args.items():
            want = _brute_identity_sum(s, family, **kw)
            assert np.abs(identity_sum_sphere(s, family, **kw) - want).max() <= 1e-12
            got = coherent._identity_residual_sphere(s, family, **kw)
            assert abs(got - np.linalg.norm(want - np.eye(s.dim))) <= 1e-12, \
                (family, k)


@pytest.mark.parametrize("coarse", [False, True])
@pytest.mark.parametrize("chunk", [1, 1 << 30])
def test_identity_residual_independent_of_chunks(chunk, coarse, monkeypatch):
    # one level per chunk, or the whole sum as one chunk, against the dense
    # oracle at a truncation that the default size cuts into several chunks;
    # with the two-node rule S - I is O(1) in every block, so a chunk that
    # is dropped or misplaced shows.  Only the omega sum is chunked
    if coarse:
        monkeypatch.setattr(coherent, "_polar_nodes", _two_node_rule)
    s = build_sphere(16)
    assert len(list(coherent._level_chunks(s.lam))) > 1
    monkeypatch.setattr(coherent, "_CHUNK_ENTRIES", chunk)
    rows = [(r.start, r.stop) for r in coherent._level_chunks(s.lam)]
    assert rows[0][0] == 0 and rows[-1][1] == s.dim
    assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))
    assert len(rows) == (s.lam + 1 if chunk == 1 else 1)
    omega = random_omega_weights(s, np.random.default_rng(5))
    want = np.linalg.norm(identity_sum_sphere(s, "omega", omega=omega) - np.eye(s.dim))
    got = coherent._identity_residual_sphere(s, "omega", omega=omega)
    assert abs(got - want) <= 1e-12 * max(1.0, want)
    assert (want > 1.0) == coarse


def test_identity_checks_stay_below_one_dense_array():
    # at lam 30 one dense dim x dim complex array is 14.8 MB; each check
    # forms its sum block by block, so none peaks at that
    s = build_sphere(30)
    rng = np.random.default_rng(6)
    args = {"spin": {}, "omega": {"omega": random_omega_weights(s, rng)},
            "phi": {"beta": rng.uniform(0, 2 * np.pi, s.lam + 1)}}
    dense_bytes = s.dim ** 2 * np.dtype(complex).itemsize
    for family, kw in args.items():
        tracemalloc.start()
        try:
            assert verify_identity_resolution_sphere(s, family, **kw).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes, (family, peak)


def _oracle_sector_terms(s, family, total):
    """The entries of total - I at the offsets d = m_i - m_j that the
    azimuthal rule keeps, in the order and layout of
    coherent._sector_terms, read from the dense sum by their labels."""
    lam = s.lam
    n_az = coherent._azimuthal_size(lam)
    offsets = [d for d in range(-2 * lam, 2 * lam + 1) if d % n_az == 0]
    t = total - np.eye(s.dim)
    at = {(int(l), int(m)): i for i, (l, m) in enumerate(zip(s.l_of, s.m_of))}
    if family == "spin":
        for d in offsets:
            yield np.array([t[i, at[l, m - d]] for (l, m), i in at.items()
                            if abs(m - d) <= l])
    elif family == "phi":
        for d in offsets:
            ms = [m for m in range(-lam, lam + 1) if abs(m - d) <= lam]
            y = np.zeros((len(ms), lam + 1, lam + 1), dtype=complex)
            for a, m in enumerate(ms):
                for l in range(abs(m), lam + 1):
                    for k in range(abs(m - d), lam + 1):
                        y[a, l, k] = t[at[l, m], at[k, m - d]]
            yield y
    else:
        for l in range(lam + 1):
            for d in offsets:
                ms = [m for m in range(-l, l + 1) if abs(m - d) <= lam]
                if ms:
                    y = np.zeros((len(ms), lam + 1), dtype=complex)
                    for a, m in enumerate(ms):
                        for k in range(abs(m - d), lam + 1):
                            y[a, k] = t[at[l, m], at[k, m - d]]
                    yield y


@pytest.mark.parametrize("rule", ["exact", "two-node polar", "three-point azimuthal"])
@pytest.mark.parametrize("lam", [1, 2, 5, 9, 16])
def test_sector_terms_match_dense_oracle_entrywise(lam, rule, monkeypatch):
    # every entry the sector form keeps, against the dense oracle's entry
    # at the same labels: the exact rule keeps the m-sectors alone, the
    # 3-point rule its off-sector offsets too, and the two-node rule makes
    # S - I O(1) in every block, so a dropped, misplaced or misordered
    # block or chunk shows
    if rule == "two-node polar":
        monkeypatch.setattr(coherent, "_polar_nodes", _two_node_rule)
    elif rule == "three-point azimuthal":
        monkeypatch.setattr(coherent, "_azimuthal_size", _three_point_rule)
    s = build_sphere(lam)
    rng = np.random.default_rng(40 + lam)
    args = {"spin": {}, "omega": {"omega": random_omega_weights(s, rng)},
            "phi": {"beta": rng.uniform(0, 2 * np.pi, lam + 1)}}
    for family, kw in args.items():
        got = list(coherent._sector_terms(s, family, **kw))
        want = list(_oracle_sector_terms(s, family,
                                         identity_sum_sphere(s, family, **kw)))
        assert [g.shape for g in got] == [w.shape for w in want], family
        for g, w in zip(got, want):
            assert np.abs(g - w).max(initial=0.0) <= 1e-12, (family, rule)


@pytest.mark.parametrize("where", ["eigenvalue", "eigenvector"])
def test_nan_in_the_l2_eigensystem_fails_every_family(where):
    # a NaN put where a sum reads it: one L_2 eigenvalue (the polar weave)
    # or one eigenvector entry of one level; the sector form must carry it
    # into the residual, which is NaN, and fail the record
    s = build_sphere(5)
    eigs = [list(e) for e in s.l2_eigh]
    vals, vecs = eigs[3][1].copy(), eigs[3][2].copy()
    if where == "eigenvalue":
        vals[2] = np.nan
    else:
        vecs[4, 1] = np.nan
    eigs[3][1:] = vals, vecs
    bad = dataclasses.replace(s)
    vars(bad)["l2_eigh"] = tuple(tuple(e) for e in eigs)
    rng = np.random.default_rng(8)
    args = {"spin": {}, "omega": {"omega": random_omega_weights(s, rng)},
            "phi": {"beta": rng.uniform(0, 2 * np.pi, s.lam + 1)}}
    for family, kw in args.items():
        assert verify_identity_resolution_sphere(s, family, **kw).passed
        rec = verify_identity_resolution_sphere(bad, family, **kw).checks[0]
        assert np.isnan(rec.residual) and not rec.passed, family


def test_l_plus_weight_not_a_finite_real_fails_records_and_rotation():
    # each of the 12 L_+ weights that the level blocks of lam 3 read set to
    # NaN in turn, and one given an imaginary part of 1e-3: that level gets
    # NaN eigenpairs, with no eigh to raise, so every family records a NaN
    # residual and fails, and rotate is NaN on that level and on no other
    s = build_sphere(3)
    row = s.term_keys.index(("L_plus", 0, 1))
    interior = [s.index(l, m) for l in range(1, 4) for m in range(-l, l)]
    assert len(interior) == 12
    cases = [(i, np.nan) for i in interior]
    cases.append((s.index(2, 0), s.terms[row, s.index(2, 0)] + 1e-3j))
    rng = np.random.default_rng(84)
    args = {"spin": {}, "omega": {"omega": random_omega_weights(s, rng)},
            "phi": {"beta": rng.uniform(0, 2 * np.pi, s.lam + 1)}}
    g = EulerAngles(0.4, 1.2, 2.2)
    for i, weight in cases:
        terms = s.terms.copy()
        terms[row, i] = weight
        bad = dataclasses.replace(s, terms=terms)
        for family, kw in args.items():
            rec = verify_identity_resolution_sphere(bad, family, **kw).checks[0]
            assert np.isnan(rec.residual) and not rec.passed, (i, family)
        level = s.l_of == s.l_of[i]
        out = rotate(bad, g, np.eye(s.dim))
        assert np.isnan(out[level]).all() and np.isfinite(out[~level]).all(), i


def test_omega_seed_shape_and_nan_weight_rejected():
    s = build_sphere(3)
    omega = random_omega_weights(s, np.random.default_rng(9))
    for wrong in (omega[:-1], np.append(omega, 0.0), omega[:, None]):
        with pytest.raises(ValueError, match=r"omega must have shape \(16,\)"):
            verify_identity_resolution_sphere(s, "omega", omega=wrong)
    # a NaN weight leaves its level's defect NaN, which the condition rejects
    nan = omega.copy()
    nan[s.index(2, 1)] = np.nan
    with pytest.raises(ValueError, match=r"per-l defect: \{2: nan\}"):
        verify_identity_resolution_sphere(s, "omega", omega=nan)


def test_sphere_resolution_needs_enough_polar_nodes(monkeypatch):
    s = build_sphere(3)
    omega = random_omega_weights(s, np.random.default_rng(2))
    beta = np.random.default_rng(3).uniform(0, 2 * np.pi, 4)
    monkeypatch.setattr(coherent, "_polar_nodes", _two_node_rule)
    assert not verify_identity_resolution_sphere(s, "spin").passed
    assert not verify_identity_resolution_sphere(s, "omega", omega=omega).passed
    assert not verify_identity_resolution_sphere(s, "phi", beta=beta).passed


def test_sphere_resolution_needs_enough_azimuthal_points(monkeypatch):
    # the psi and phi sums share the 3-point rule: every family fails, with
    # the residual of the point-by-point sum where that is cheap to form
    monkeypatch.setattr(coherent, "_azimuthal_size", _three_point_rule)
    for lam in (2, 4, 8, 16, 30):
        s = build_sphere(lam)
        rng = np.random.default_rng(lam)
        args = {"spin": {}, "omega": {"omega": random_omega_weights(s, rng)},
                "phi": {"beta": rng.uniform(0, 2 * np.pi, lam + 1)}}
        for family, kw in args.items():
            rep = verify_identity_resolution_sphere(s, family, **kw)
            assert not rep.passed and rep.checks[0].residual >= 0.7, (lam, family)
            if lam <= 16:
                want = np.linalg.norm(_brute_identity_sum(s, family, **kw)
                                      - np.eye(s.dim))
                assert abs(rep.checks[0].residual - want) <= 1e-12 * want


@pytest.mark.parametrize("lam", [3, 8, 16])
def test_polar_weave_catches_a_wrong_l2_spectrum(lam):
    # L_+ scaled by 1.001 scales the L_2 eigenvalues off the integers; the
    # polar weave is formed from those exact eigenvalues, so every family
    # fails (a weave read from a table of rounded eigenvalues would pass)
    s = build_sphere(lam)
    terms = s.terms.copy()
    terms[s.term_keys.index(("L_plus", 0, 1))] *= 1.001
    bad = dataclasses.replace(s, terms=terms)
    rng = np.random.default_rng(lam)
    args = {"spin": {}, "omega": {"omega": random_omega_weights(bad, rng)},
            "phi": {"beta": rng.uniform(0, 2 * np.pi, lam + 1)}}
    for family, kw in args.items():
        assert verify_identity_resolution_sphere(s, family, **kw).passed
        rep = verify_identity_resolution_sphere(bad, family, **kw)
        assert not rep.passed and rep.checks[0].residual > 1e-8, family


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
        assert np.linalg.norm(dense(s, "L3") @ chi) <= 1e-10


def _scf_minimum(space):
    """Oracle: dense complex self-consistent field chi <- ground vector of
    x^2 - 2<x>.x from the top eigenvector of the reference coordinate and
    five seeded random starts; the least dispersion reached."""
    xs = list(x_ops(space))
    x2 = dense(space, "x_squared")
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
    return x_ops(space)[-1 if isinstance(space, FuzzySphere) else 0]


def _certified_lower_bound(space, npoints=101):
    """Lower bound on min (Delta x)^2 from dense ground energies alone.

    The minimum is min over 0 <= beta <= alpha_1 of beta^2 + E_0(beta),
    E_0 the ground energy of x^2 - 2 beta x_ref (the minimizing beta is
    |<x>|, at most the top eigenvalue alpha_1 of x_ref).  E_0 is a minimum
    of affine functions of beta, hence concave and above each chord, so
    beta^2 + chord is below the objective on each grid interval."""
    x_ref = _reference_axis(space)
    x2 = dense(space, "x_squared")
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
        if isinstance(space, FuzzySphere):
            chi, _ = minimize_dispersion(space)
            h = (dense(space, "x_squared")
                 - 2.0 * dispersion(space, chi).x_mean[2] * x_ref)
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
            assert minimizer_certificate(space, v / np.linalg.norm(v)) > 1e-10


def _check_certificate_against_dense(space, rng):
    """minimizer_certificate of three random unit v against the dense
    ||H(b) v - E_0 v||, b the dense <x> of v, H(b) = x^2 - 2 b.x and E_0
    its eigvalsh; v leans by a random amount toward the top eigenvector of
    x along a random axis, so |b| runs from about 0 to about alpha_1."""
    x2, xs = dense(space, "x_squared"), x_ops(space)
    for _ in range(3):
        axis = sum(ni * xi for ni, xi in zip(rng.normal(size=len(xs)), xs))
        v = (random_states(rng, space.dim, 1)[:, 0]
             + rng.uniform(0.0, 4.0) * np.linalg.eigh(axis)[1][:, -1])
        v /= np.linalg.norm(v)
        b = np.array([_expect(xi, v) for xi in xs])
        h = x2 - 2.0 * sum(bi * xi for bi, xi in zip(b, xs))
        e0 = np.linalg.eigvalsh(h)[0]
        want = np.linalg.norm(h @ v - e0 * v)
        got = minimizer_certificate(space, v)
        assert abs(got - want) <= 1e-13 * (1.0 + abs(e0)), (space.lam, b)


@pytest.mark.parametrize("k", [None, np.inf])
def test_sector_ground_energy_matches_dense_h_eff(k):
    # the certificate takes E_0 of H(b) as the lowest over the L_3 sectors
    # of x^2 - 2|b| x_3, and H(b) v from the terms; the oracle is the dense
    # H(b), its eigvalsh and its product
    rng = np.random.default_rng(31)
    for lam in range(1, 13):
        _check_certificate_against_dense(build_sphere(lam, k), rng)


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
        m = np.real(np.diag(dense(space, "L3")))
        ms = np.unique(m)
        sectors = [np.flatnonzero(m == v) for v in ms]
        x2, x3 = (np.real(dense(space, n)) for n in ("x_squared", "x3"))
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


@pytest.mark.parametrize("k", [None, np.inf])
def test_circle_fold_matches_dense_h(k):
    # the even half against the whole space: alpha_1 is the top eigenvalue
    # of the dense x_1, and for beta in [0, alpha_1] the half's lowest
    # eigenvalue of x^2 - 2 beta x_1 is the dense one, its ground vector
    # embedded an eigenvector of the dense matrix
    for lam in range(1, 41):
        c = build_circle(lam, k)
        (sector,) = c.sectors()
        idx, w, q, xr = sector
        assert idx.shape == (2, lam + 1) and w.shape == (lam + 1,)
        assert q.shape == xr.shape == (lam + 1, lam + 1)
        x2, x1 = (np.real(dense(c, n)) for n in ("x_squared", "x1"))
        alpha = np.linalg.eigvalsh(x1)[-1]
        top = np.linalg.eigvalsh(xr)[-1]
        assert abs(top - alpha) <= 1e-13 * abs(alpha), lam
        for beta in np.linspace(0.0, alpha, 6):
            h = x2 - 2.0 * beta * x1
            want = np.linalg.eigvalsh(h)[0]
            vals, vecs = np.linalg.eigh(q - 2.0 * beta * xr)
            assert abs(vals[0] - want) <= 1e-13 * abs(want), (lam, beta)
            chi = np.zeros(c.dim)
            chi[idx] = w * vecs[:, 0]
            assert abs(np.linalg.norm(chi) - 1.0) <= 1e-14, (lam, beta)
            resid = np.linalg.norm(h @ chi - vals[0] * chi)
            assert resid <= 1e-13, (lam, beta)


@pytest.mark.parametrize("k", [None, np.inf])
def test_circle_sector_ground_energy_matches_dense_h_eff(k):
    # the circle's certificate takes E_0 of H(b) from its even half alone
    # and H(b) v from the terms; the oracle is the dense H(b)
    rng = np.random.default_rng(37)
    for lam in range(1, 13):
        _check_certificate_against_dense(build_circle(lam, k), rng)


def test_circle_minimizer_diagonalizes_only_the_half(monkeypatch):
    # every eigh and eigvalsh of the circle's minimizer and of its
    # certificate is on the even half, of size lam+1
    circles = [build_circle(lam) for lam in range(1, 13)]
    shapes = []
    for name in ("eigh", "eigvalsh"):
        def recording(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    for c in circles:
        shapes.clear()
        chi, _ = minimize_dispersion(c)
        minimizer_certificate(c, chi)
        assert len(shapes) >= 3, c.lam
        assert set(shapes) == {(c.lam + 1, c.lam + 1)}, c.lam


def test_fold_without_sqrt2_fails_stationarity(monkeypatch):
    # the coupling of psi_+-1 to psi_0 taken as on the whole space, without
    # its sqrt 2: the certificate's H(b) chi comes from the terms, so the
    # embedded minimizer is not stationary
    from fuzzysphere.circle import FuzzyCircle
    from fuzzysphere.cli import _minimize_records

    folded = FuzzyCircle.sectors

    def unfolded(self):
        ((idx, w, q, xr),) = folded(self)
        xr = np.array(xr)
        xr[self.lam - 1, self.lam] = xr[self.lam, self.lam - 1] = (
            xr[self.lam - 1, self.lam] / np.sqrt(2.0))
        return ((idx, w, q, xr),)

    monkeypatch.setattr(FuzzyCircle, "sectors", unfolded)
    for lam in range(1, 17):
        records = _minimize_records(build_circle(lam), 1, Stream(7, 1, lam, 2))
        (stat,) = [r for r in records if r.tag == "Deltax2qminS^1_L/stationarity"]
        assert not stat.passed, lam


def test_minimizer_loop_is_bounded(monkeypatch):
    # the coupling of psi_+-1 to psi_0 halved at lam 1: the largest fixed
    # point is beta = 0, which the loop nears only as 1/sqrt(n) steps, so it
    # stops at its bound with a NaN minimum, and the minimum's record fails
    from fuzzysphere.circle import FuzzyCircle
    from fuzzysphere.cli import _minimize_records

    folded = FuzzyCircle.sectors

    def halved(self):
        ((idx, w, q, xr),) = folded(self)
        xr[self.lam - 1, self.lam] /= 2.0
        xr[self.lam, self.lam - 1] /= 2.0
        yield idx, w, q, xr

    monkeypatch.setattr(FuzzyCircle, "sectors", halved)
    c = build_circle(1)
    assert np.isnan(minimize_dispersion(c)[1])
    records = _minimize_records(c, 1, Stream(7, 1, 1, 2))
    (rec,) = [r for r in records if r.tag == "Deltax2qminS^1_L"]
    assert not rec.passed


@pytest.mark.parametrize("lam", [2, 5, 8])
def test_sector_listed_first_must_hold_the_top(monkeypatch, lam):
    # a sphere that lists m = 1 before m = 0: the minimizer takes the first
    # sector as given, and the certificate, which takes E_0 over every
    # sector, and the L_3 record both fail
    from fuzzysphere.cli import _minimize_records

    listed = FuzzySphere.sectors

    def reordered(self):
        first, second, *rest = listed(self)
        yield from (second, first, *rest)

    monkeypatch.setattr(FuzzySphere, "sectors", reordered)
    records = _minimize_records(build_sphere(lam), 2, Stream(7, 2, lam, 2))
    failed = {r.tag for r in records if not r.passed}
    assert {"Deltax2qminS^2_L/stationarity", "Deltax2qminS^2_L/L3"} <= failed


def test_minimizer_keeps_no_dense_blocks():
    # the sectors are cut when used: after the minimizer and its certificate
    # the sphere holds less than four dim-length real vectors more than
    # before (chi itself is one complex one), not its lam + 1 dense blocks
    lam = 80
    s = build_sphere(lam)
    dispersion(s, np.eye(s.dim, 1))              # builds the gather tables
    tracemalloc.start()
    try:
        chi, _ = minimize_dispersion(s)
        minimizer_certificate(s, chi)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 4 * (lam + 1) ** 2 * 8, held


def _whole_space_minimum(c):
    """The minimizer's fixed point on the whole space, with no fold: the
    (2 lam + 1)^2 blocks of x^2 and x_1 cut from the terms; (chi, minimum)."""
    x2, up, down = (np.real(c.terms[c.term_keys.index(key)]) for key in
                    (("x_squared", 0, 0), ("x_plus", 0, 1), ("x_minus", 0, -1)))
    q, xr = np.diag(x2), (np.diag(up[1:], 1) + np.diag(down[:-1], -1)) / 2.0
    beta = np.linalg.eigvalsh(xr)[-1]
    while True:
        v = np.linalg.eigh(q - 2.0 * beta * xr)[1][:, 0]
        mean = float(v @ xr @ v)
        if not mean < beta:
            break
        beta = mean
    return v.astype(complex), float(v @ q @ v - mean * mean)


@pytest.mark.parametrize("lam", [100, 200])
def test_folded_minimum_matches_whole_space_at_large_lambda(lam):
    c = build_circle(lam)
    chi, var = minimize_dispersion(c)
    chi_full, var_full = _whole_space_minimum(c)
    assert abs(var - var_full) <= 1e-14
    stat, stat_full = (minimizer_certificate(c, v) for v in (chi, chi_full))
    assert stat <= 1e-14 and abs(stat - stat_full) <= 1e-14
    assert abs(abs(np.vdot(chi_full, chi)) - 1.0) <= 1e-12


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
        vals, vecs = np.linalg.eigh(dense(s, "x3"))
        deficits.append(1.0 - abs(np.vdot(vecs[:, -1], chi)) ** 2)
    assert deficits[1] < deficits[0] < 0.5


def test_madore_min_matches_closed_form():
    for l in (0.5, 1.0, 3.5, 8.0):
        space = build_madore(l)
        chi, got = minimize_dispersion(space)
        assert got == pytest.approx(1 / (l + 1), abs=1e-9)
        assert minimizer_certificate(space, chi) <= 1e-10
    # the certificate runs on the Madore sphere's 1x1 sectors and dense
    # apply: psi_l^{l-1} is no minimizer, and its certificate has the
    # closed form 2 (l - 1) / (l (l + 1))
    for l in (1.5, 3.5, 8.0):
        space = build_madore(l)
        psi = np.eye(space.dim)[:, 1]            # m = l - 1, after m = l
        assert minimizer_certificate(space, psi) == pytest.approx(
            2 * (l - 1) / (l * (l + 1)), rel=1e-12)


def test_weak_orbit_circle():
    c = build_circle(4)
    chi, _ = minimize_dispersion(c)
    grid = np.linspace(0, 2 * np.pi, 7, endpoint=False)
    assert verify_weak_orbit(c, chi, grid).passed
    members = weak_scs_orbit(c, chi, grid)
    assert members.shape == (c.dim, 7)
    assert np.allclose(np.linalg.norm(members, axis=0), 1.0, rtol=0, atol=1e-12)
    assert np.array_equal(members[:, 0], chi)         # grid[0] is alpha = 0


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
    for _ in range(10):
        chi = rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim)
        chi /= np.linalg.norm(chi)
        g = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                        rng.uniform(0, 2 * np.pi))
        rot = rotate(s, g, chi)
        assert dispersion(s, rot).x_var == pytest.approx(
            dispersion(s, chi).x_var, abs=1e-11)


def test_minimize_suite_at_lambda_60():
    # the whole minimize suite, with no dim x dim operator, at a size where
    # one dense field would be 221 MB
    from fuzzysphere.cli import _minimize_records
    s = build_sphere(60)
    records = _minimize_records(s, 2, np.random.default_rng(7))
    assert [r.tag for r in records][:3] == [
        "Deltax2qminS^2_L", "Deltax2qminS^2_L/stationarity",
        "Deltax2qminS^2_L/L3"]
    assert all(r.passed for r in records), [r for r in records if not r.passed]


def _arrays(obj, seen):
    """Every numpy array reachable from obj through attributes, dicts,
    lists and tuples."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v, seen)
    elif hasattr(obj, "__dict__"):
        yield from _arrays(vars(obj), seen)


def test_sphere_keeps_no_dense_operator():
    # after the minimize suite and the scs suite's rotations and moments,
    # nothing reachable from the sphere has dim^2 entries
    from fuzzysphere.cli import _minimize_records, _random_euler
    s = build_sphere(8)
    rng = np.random.default_rng(3)
    _minimize_records(s, 2, rng)
    spins = np.column_stack([spin_cs(s, l, _random_euler(rng))
                             for l in range(s.lam + 1)])
    dispersion(s, spins)
    dispersion(s, random_states(rng, s.dim, 100))
    dispersion(s, strong_scs_sphere_phi(s, np.zeros(s.lam + 1),
                                        _random_euler(rng)))
    arrays = list(_arrays(s, set()))
    assert "l2_eigh" in vars(s) and len(arrays) > s.lam
    assert max(a.size for a in arrays) < s.dim ** 2
