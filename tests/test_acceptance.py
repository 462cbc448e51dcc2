"""Acceptance gate: one test per criterion, one printed verdict line each.

The verdict lines bypass pytest's capture so they show up in plain
`pytest -v` output.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fuzzysphere.circle import build_circle, verify_circle_relations
from fuzzysphere.coherent import (check_heisenberg_circle, dispersion,
                                  minimize_dispersion, random_omega_weights,
                                  spin_cs, strong_scs_circle,
                                  strong_scs_sphere_phi,
                                  verify_identity_resolution_circle,
                                  verify_identity_resolution_sphere)
from fuzzysphere.lierep import (EulerAngles, verify_so4_reconstruction,
                                verify_su2_reconstruction)
from fuzzysphere.linop import random_states
from fuzzysphere.spectral import (TridiagSpec, agrees_with_dense,
                                  check_interlacing, circle_diag_report,
                                  eig_bisection, eig_bisection_many,
                                  random_rephasing, sphere_diag_report,
                                  toeplitz_spectrum)
from fuzzysphere.sphere import build_sphere, verify_sphere_relations
from madore import build_madore


@contextmanager
def criterion(capsys, number, label):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"criterion {number:2d} [{label}]: {verdict}")


def test_criterion_01_relation_suites(capsys):
    with criterion(capsys, 1, "relation suites"):
        start = time.perf_counter()
        for lam in range(1, 41):
            rep = verify_circle_relations(build_circle(lam), tol=1e-10)
            assert rep.passed, rep.first_failure()
        for lam in range(1, 21):
            rep = verify_sphere_relations(build_sphere(lam), tol=1e-10)
            assert rep.passed, rep.first_failure()
        assert time.perf_counter() - start < 60.0


def test_criterion_02_toeplitz_oracle(capsys):
    with criterion(capsys, 2, "Toeplitz oracle"):
        for n in (1, 2, 3, 10, 50, 101, 201):
            t = TridiagSpec(np.full(n - 1, 0.5))
            got = eig_bisection(t).values
            assert np.abs(got - toeplitz_spectrum(n)).max() <= 1e-10


def test_criterion_03_circle_diag_theorem(capsys):
    with criterion(capsys, 3, "circle diagonalization theorem"):
        rep = circle_diag_report(1, 40)
        assert rep.passed, rep.first_failure()
        tags = [c.tag for c in rep.checks]
        for needed in ("diag-circle/symmetry", "diag-circle/interlacing",
                       "diag-circle/alpha1-bound"):
            assert tags.count(needed) == 40


def test_criterion_04_sphere_diag_theorem(capsys):
    with criterion(capsys, 4, "sphere diagonalization theorem"):
        rep = sphere_diag_report(1, 20)
        assert rep.passed, rep.first_failure()
        bounds = [c for c in rep.checks if c.tag == "diag-sphere/alpha1-bound"]
        assert [c.lam for c in bounds] == list(range(2, 21))


def test_criterion_05_random_tridiagonal_proposition(capsys):
    with criterion(capsys, 5, "random tridiagonal proposition"):
        # each matrix is drawn as n, a, then the phases of its rephasing
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(1000):
            n = int(rng.integers(2, 16))
            t = TridiagSpec(rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
            cases.append((t, random_rephasing(t, rng)))
        # one kernel call for the matrices and one for their leading blocks;
        # each spectrum is bitwise what eig_bisection gives it alone
        outers = eig_bisection_many([t for t, _ in cases])
        inners = eig_bisection_many([TridiagSpec(t.offdiag[:-1]) for t, _ in cases])
        strict = total = 0
        for (t, rephased), outer, inner in zip(cases, outers, inners):
            # spectrum_invariance_under_phases(t, rng, tol=1e-10): both dense
            # oracles, against the bisection spectrum at 1e-12
            assert agrees_with_dense(outer.values, (t, rephased), 1e-10)
            if np.abs(t.offdiag).min() > 0:
                # interlacing is strict in exact arithmetic, but the gaps
                # shrink exponentially along the chain; certify them at the
                # solver precision
                assert np.all(outer.values[:-1] >= inner.values - 1e-10)
                assert np.all(inner.values >= outer.values[1:] - 1e-10)
                strict += check_interlacing(inner, outer)
                total += 1
        assert strict >= 0.9 * total          # almost all gaps are resolved


def test_criterion_06_lie_reconstructions(capsys):
    with criterion(capsys, 6, "Lie algebra reconstructions"):
        for lam in range(1, 41):
            rep = verify_su2_reconstruction(build_circle(lam), tol=1e-10)
            assert rep.passed, rep.first_failure()
        for lam in range(1, 21):
            rep = verify_so4_reconstruction(build_sphere(lam), tol=1e-9)
            assert rep.passed, rep.first_failure()


def test_criterion_07_identity_resolutions(capsys):
    with criterion(capsys, 7, "identity resolutions"):
        rng = np.random.default_rng(1)
        for lam in range(1, 31):
            c = build_circle(lam)
            beta = rng.uniform(0, 2 * np.pi, c.dim)
            rep = verify_identity_resolution_circle(c, beta, tol=1e-10)
            assert rep.passed, rep.first_failure()
        for lam in range(1, 21):
            s = build_sphere(lam)
            assert verify_identity_resolution_sphere(s, "spin", tol=1e-8).passed
            omega = random_omega_weights(s, rng)
            assert verify_identity_resolution_sphere(
                s, "omega", omega=omega, tol=1e-8).passed
            beta = rng.uniform(0, 2 * np.pi, lam + 1)
            assert verify_identity_resolution_sphere(
                s, "phi", beta=beta, tol=1e-8).passed


def test_criterion_08_uncertainty_relations(capsys):
    with criterion(capsys, 8, "uncertainty relations"):
        rng = np.random.default_rng(8)
        for lam in range(1, 11):
            c = build_circle(lam)
            for n in range(-lam, lam + 1):
                rep = check_heisenberg_circle(c, np.eye(c.dim)[:, c.index(n)])
                assert all(abs(r.value) <= 1e-12 for r in rep.checks)
            w = strong_scs_circle(c, rng.uniform(0, 2 * np.pi, c.dim),
                                  float(rng.uniform(0, 2 * np.pi)))
            d = dispersion(c, w)
            assert abs(d.L_mean[0]) <= 1e-12
            assert abs(d.L_var - lam * (lam + 1) / 3) <= 1e-12
            # 500 random states as one block: each of the three records
            # holds the worst state, so the block passes iff every state does
            block = random_states(rng, c.dim, 500)
            assert check_heisenberg_circle(c, block).passed
        for lam in range(1, 11):
            s = build_sphere(lam)
            g = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                            rng.uniform(0, 2 * np.pi))
            pb = strong_scs_sphere_phi(s, rng.uniform(0, 2 * np.pi, lam + 1), g)
            assert abs(dispersion(s, pb).L_var - lam * (lam + 2) / 2) <= 1e-10
            for l in range(lam + 1):
                d = dispersion(s, spin_cs(s, l, g))
                assert abs(d.L_var - np.linalg.norm(d.L_mean)) <= 1e-9
            d = dispersion(s, random_states(rng, s.dim, 500))
            lmean = np.linalg.norm(d.L_mean, axis=0)
            assert np.all(d.l2_mean - lmean * (lmean + 1.0) >= -1e-10)


def test_criterion_09_dispersion_bounds(capsys):
    with criterion(capsys, 9, "dispersion bounds"):
        for lam in range(1, 31):
            c = build_circle(lam)
            chi, val = minimize_dispersion(c)
            assert 0.0 < val < 3.5 / (lam + 1) ** 2
            phi = strong_scs_circle(c, np.zeros(c.dim), 0.3)
            assert dispersion(c, phi).x_var < (0.5 + 1 / (3 * lam)) / (lam + 1)
        for lam in range(1, 21):
            s = build_sphere(lam)
            chi, val = minimize_dispersion(s)
            assert 0.0 < val < 11.0 / (lam + 1) ** 2
            assert np.linalg.norm(s.m_of * chi) <= 1e-10
            p0 = strong_scs_sphere_phi(s, np.zeros(lam + 1),
                                       EulerAngles(0.0, 0.0, 0.0))
            assert dispersion(s, p0).x_var < 1.0 / (lam + 1)
        for twol in range(1, 31):
            l = twol / 2.0
            got = minimize_dispersion(build_madore(l))[1]
            assert abs(got - 1.0 / (l + 1.0)) <= 1e-8


def test_criterion_10_determinism(capsys, tmp_path):
    with criterion(capsys, 10, "deterministic reports"):
        import json

        import fuzzysphere
        src = os.path.dirname(os.path.dirname(fuzzysphere.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        records = []
        for run in ("a", "b"):
            path = tmp_path / f"{run}.json"
            cmd = [sys.executable, "-m", "fuzzysphere.cli", "verify",
                   "--d", "2", "--lambda", "1..3", "--suite", "all",
                   "--seed", "7", "--json", str(path)]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            records.append(json.loads(path.read_text())["checks"])
        assert records[0] == records[1]
