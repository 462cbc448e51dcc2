"""Tridiagonal spectral toolkit: Sturm counts, bisection, symmetry,
interlacing, phase invariance."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzysphere import _sturm
from fuzzysphere.circle import coordinate_matrix
from fuzzysphere.spectral import (Spectrum, TridiagSpec, check_interlacing,
                                  check_spectrum_symmetry, circle_diag_report,
                                  eig_bisection, eig_bisection_many,
                                  sphere_diag_report,
                                  spectrum_invariance_under_phases,
                                  toeplitz_spectrum)
from fuzzysphere.sphere import coordinate_blocks


def count(t: TridiagSpec, alpha: float) -> int:
    """The kernel's number of eigenvalues of t that are >= alpha."""
    return int(_sturm._counts(t.abs2()[None, :], np.array([t.n]),
                              np.array([[alpha]]))[0, 0])


def test_charpoly_trivial_sizes():
    t1 = TridiagSpec(np.zeros(0))          # the 1x1 zero matrix
    assert [count(t1, a) for a in (0.5, 0.0, -0.5)] == [0, 1, 1]

    t2 = TridiagSpec([1.0])                # eigenvalues +-1
    assert [count(t2, a) for a in (2.0, 1.0, 0.0, -1.0, -2.0)] == [0, 1, 1, 2, 2]


def test_charpoly_matches_toeplitz_roots():
    # n=3, a = (1/2, 1/2): p_3(a) = a^3 - a/2 with roots 0, +-1/sqrt(2);
    # the count drops by one across the floats next to each rounded root,
    # and right above the exact root 0
    t = TridiagSpec([0.5, 0.5])
    for root in (0.0, 1 / np.sqrt(2), -1 / np.sqrt(2)):
        below, above = np.nextafter(root, -np.inf), np.nextafter(root, np.inf)
        assert count(t, below) - count(t, above) == 1
    assert count(t, 0.0) - count(t, np.nextafter(0.0, np.inf)) == 1


def test_sturm_count_bounds():
    t = TridiagSpec([0.5, 0.5, 0.5])
    big = t.gershgorin_radius() + 1.0
    assert count(t, big) == 0
    assert count(t, -big) == t.n


@pytest.mark.parametrize("offdiag, alpha, expected", [
    ([1.0], 1.0, 1),                    # an exact eigenvalue is counted
    ([0.5, 0.5], 0.0, 2),
    (np.full(2000, 10.0), 3.0, 905),    # 2000 steps through huge pivots
])
def test_sturm_count_includes_alpha(offdiag, alpha, expected):
    assert count(TridiagSpec(offdiag), alpha) == expected


@pytest.mark.parametrize("mutated", [False, True])
def test_zero_pivot_counts_as_positive(mutated, monkeypatch):
    # a zero pivot stands for the pivot at a shift just below an exact
    # eigenvalue, which is positive, so it must be set to +tiny; with -tiny
    # the zero eigenvalue of every odd zero-diagonal block drops out of the
    # count at 0 and out of its bisection bracket
    if mutated:
        monkeypatch.setattr(_sturm, "TINY", -np.finfo(float).tiny)
    right = not mutated
    for n in (1, 3, 5, 21):
        got = count(TridiagSpec(np.full(n - 1, 0.5)), 0.0)
        assert (got == (n + 1) // 2) == right
    tol = 1e-12
    for lam, m in ((1, 1), (4, 0), (9, 3), (20, 2)):
        t = coordinate_blocks(lam)[m]
        assert t.n % 2 == 1
        values = _sturm.bisect_all(t.abs2(), t.gershgorin_radius() + tol, tol)
        zero = values[t.n // 2]
        assert abs(zero) <= tol
        assert (0.0 <= zero) == right


@pytest.mark.parametrize("n", [1, 2, 3, 7, 51, 201])
def test_toeplitz_oracle(n):
    t = TridiagSpec(np.full(n - 1, 0.5))
    got = eig_bisection(t).values
    assert np.abs(got - toeplitz_spectrum(n)).max() <= 1e-10


def test_bisection_agrees_with_dense_solver():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        t = TridiagSpec(rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
        dense_vals = np.sort(np.linalg.eigvalsh(t.dense()))[::-1]
        assert np.abs(eig_bisection(t).values - dense_vals).max() <= 1e-10


def test_bisection_ends_below_float_spacing():
    # tol = 1e-30 is far below the spacing of the eigenvalues; the bracket
    # stops shrinking there, so the loop must end on its own.  A child
    # process carries the timeout, since a hang cannot be interrupted here.
    import fuzzysphere
    src = os.path.dirname(os.path.dirname(fuzzysphere.__file__))
    code = (
        "import numpy as np\n"
        "from fuzzysphere import _sturm\n"
        "from fuzzysphere.spectral import TridiagSpec\n"
        "rng = np.random.default_rng(4)\n"
        "worst = 0.0\n"
        "for n in (2, 5, 15):\n"
        "    t = TridiagSpec(rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))\n"
        "    got = _sturm.bisect_all(t.abs2(), t.gershgorin_radius() + 1e-30, 1e-30)\n"
        "    ref = np.linalg.eigvalsh(t.dense())[::-1]\n"
        "    worst = max(worst, float(np.abs(got - ref).max()))\n"
        "ts = [TridiagSpec(rng.normal(size=n - 1)) for n in (1, 3, 9)]\n"
        "for t, got in zip(ts, _sturm.bisect_many(\n"
        "        [t.abs2() for t in ts],\n"
        "        [t.gershgorin_radius() + 1e-30 for t in ts], 1e-30)):\n"
        "    ref = np.linalg.eigvalsh(t.dense())[::-1]\n"
        "    worst = max(worst, float(np.abs(got - ref).max()))\n"
        "print(worst)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True)
    assert float(out.stdout) <= 1e-12


def test_bisection_tolerance_validated():
    with pytest.raises(ValueError):
        eig_bisection(TridiagSpec([1.0]), tol=0.0)
    with pytest.raises(ValueError):
        eig_bisection_many([TridiagSpec([1.0])], tol=0.0)


def _random_specs(rng, sizes):
    return [TridiagSpec(rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1))
            for n in sizes]


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
def test_ragged_batch_is_bitwise_per_matrix(tol):
    # sizes 1..15 (n = 1 is the empty absa2) in a scrambled order, a repeat,
    # and a decoupled matrix whose padding-free steps see |a_k|^2 = 0
    rng = np.random.default_rng(11)
    specs = _random_specs(rng, [9, 1, 15, 4, 2, 12, 7, 1, 3, 14, 5, 10, 6,
                                13, 8, 11])
    specs += [specs[2], TridiagSpec([1.0, 0.0, 2.0])]
    many = eig_bisection_many(specs, tol)
    assert [s.n for s in many] == [t.n for t in specs]
    for t, got in zip(specs, many):
        alone = eig_bisection(t, tol)
        assert np.array_equal(got.values, alone.values)
    radii = [t.gershgorin_radius() + tol for t in specs]
    raw = _sturm.bisect_many([t.abs2() for t in specs], radii, tol)
    for t, r, got in zip(specs, radii, raw):
        assert np.array_equal(got, _sturm.bisect_all(t.abs2(), r, tol))
    assert eig_bisection_many([]) == []


def test_batch_agrees_with_dense_solver():
    rng = np.random.default_rng(2024)
    specs = _random_specs(rng, rng.integers(1, 16, size=1000))
    for t, got in zip(specs, eig_bisection_many(specs)):
        dense_vals = np.linalg.eigvalsh(t.dense())[::-1]
        assert np.abs(got.values - dense_vals).max() <= 1e-10


def test_diag_reports_bisect_in_one_call(monkeypatch):
    calls = []
    bisect_many = _sturm.bisect_many
    monkeypatch.setattr(_sturm, "bisect_many",
                        lambda *args: calls.append(len(args[0])) or bisect_many(*args))
    assert sphere_diag_report(1, 5).passed
    assert calls == [2 + 3 + 4 + 5 + 6 + 7]     # every m block of lambda 1..6
    assert circle_diag_report(1, 5).passed
    assert calls[1:] == [6]                     # lambda 1..6


def test_symmetry_check():
    assert check_spectrum_symmetry(Spectrum.from_values([1.0, 0.0, -1.0]))
    assert not check_spectrum_symmetry(Spectrum.from_values([1.0, 0.5]))


def test_interlacing_check():
    inner = Spectrum.from_values([0.0])
    outer = Spectrum.from_values([1.0, -1.0])
    assert check_interlacing(inner, outer)
    assert not check_interlacing(Spectrum.from_values([0.5]),
                                 Spectrum.from_values([1.0, 0.6]))
    with pytest.raises(ValueError):
        check_interlacing(inner, Spectrum.from_values([1.0, 0.0, -1.0]))


def test_leading_block_interlaces():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(3, 12))
        a = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
        a[np.abs(a) < 1e-3] = 1e-3        # keep the matrix irreducible
        outer = eig_bisection(TridiagSpec(a))
        inner = eig_bisection(TridiagSpec(a[:-1]))
        assert check_interlacing(inner, outer)


def test_phase_invariance_simple():
    assert spectrum_invariance_under_phases(TridiagSpec([1j]))
    # a vanishing entry splits the matrix into blocks; still invariant
    assert spectrum_invariance_under_phases(TridiagSpec([1.0, 0.0, 2.0]))


def test_phase_invariance_catches_wrong_bisection(monkeypatch):
    bisect_all = _sturm.bisect_all
    monkeypatch.setattr(_sturm, "bisect_all",
                        lambda *args: bisect_all(*args) + 1e-6)
    assert not spectrum_invariance_under_phases(TridiagSpec([1.0, 2j, 0.5]))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 15), st.integers(0, 2 ** 31 - 1))
def test_phase_invariance_random(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    assert spectrum_invariance_under_phases(TridiagSpec(a), rng)


def test_diag_theorem_reports():
    rep = circle_diag_report(1, 6)
    rep.extend(sphere_diag_report(1, 6))
    assert rep.passed
    tags = {c.tag for c in rep.checks}
    assert "diag-circle/alpha1-bound" in tags
    assert "diag-sphere/alpha1-monotone" in tags


def test_circle_diag_bound_example():
    # lam = 3: top eigenvalue exceeds 1 - pi^2/128
    rep = circle_diag_report(3, 3)
    rec = next(c for c in rep.checks if c.tag == "diag-circle/alpha1-bound")
    assert rec.bound == pytest.approx(1 - np.pi ** 2 / 128)
    assert rec.value >= rec.bound


def test_sphere_diag_bound_example():
    rep = sphere_diag_report(2, 2)
    rec = next(c for c in rep.checks if c.tag == "diag-sphere/alpha1-bound")
    assert rec.bound == pytest.approx(1 - np.pi ** 2 / 32)
    assert rec.value >= rec.bound


def test_arccos_gap_shrinks():
    # eigenvalues become uniformly dense in [-1,1] under arccos
    gaps = []
    for lam in (10, 20, 40):
        vals = eig_bisection(coordinate_matrix(lam)).values
        gaps.append(np.max(np.diff(np.arccos(np.clip(vals, -1, 1)))))
    assert gaps[0] > gaps[1] > gaps[2]


def test_spectrum_type_validations():
    with pytest.raises(ValueError):
        Spectrum(np.array([0.0, 1.0]))  # ascending
    s = Spectrum.from_values([3.0, 3.0 + 1e-15, 1.0])
    assert list(s.values) == [3.0 + 1e-15, 3.0, 1.0]
