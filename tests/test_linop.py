"""Array/state core: read-only operator arrays, states, expectations,
exponentials; and the package's public names."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzysphere
from fuzzysphere.circle import build_circle
from fuzzysphere.lierep import reconstruct_so4, reconstruct_su2
from fuzzysphere.linop import (State, diag_annihilator, expect,
                               expm_hermitian_generator, frobenius_residual,
                               normalized_columns, random_states, unit_columns)
from fuzzysphere.sphere import build_madore, build_sphere


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _matrices(obj):
    """(name, array) for every 2-d array field of a space, or every
    generator of a GeneratorSet."""
    if hasattr(obj, "generators"):
        return list(obj.generators.items())
    return [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)
            if np.ndim(getattr(obj, f.name)) == 2]


def test_operator_immutable():
    # every matrix field of the three spaces and every reconstructed
    # generator is a complex array that refuses writes
    for obj in (build_circle(2), build_sphere(2), build_madore(1.5),
                reconstruct_su2(build_circle(2)), reconstruct_so4(build_sphere(2))):
        mats = _matrices(obj)
        assert len(mats) >= 3
        for name, a in mats:
            assert a.dtype == complex, name
            with pytest.raises(ValueError):
                a[0, 0] = 5.0


def test_matmul_dimension_mismatch():
    # expect does not broadcast a state over an operator of another size
    with pytest.raises(ValueError):
        expect(np.eye(2), State.basis(3, 0))


def test_public_names_resolve():
    # perfbench's span tracer wraps what __all__ names and skips a stale
    # name without a word, so every listed name must exist
    mods = [fuzzysphere] + [importlib.import_module(f"fuzzysphere.{m.name}")
                            for m in pkgutil.iter_modules(fuzzysphere.__path__)]
    for mod in mods:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        State(np.array([1.0, 1.0]))
    s = State.normalized([1.0, 1.0])
    assert abs(np.linalg.norm(s.coeffs) - 1.0) < 1e-15


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0],
                                 [0.0, 0.0], [1.0, 1e-3]])
def test_state_rejects_nan_inf_zero_and_non_unit(bad):
    # a NaN norm must fail the check, not slip past a `> 1e-12` comparison
    with pytest.raises(ValueError):
        State(np.array(bad))
    if bad[1] != 1e-3:
        with pytest.raises(ValueError):
            State.normalized(np.array(bad))


def test_normalized_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        State.normalized(np.zeros(3))
    with pytest.raises(ValueError, match="zero vector"):
        normalized_columns(np.array([[1.0, 0.0], [0.0, 0.0]]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unit_columns_checks_every_column():
    good = random_states(np.random.default_rng(3), 4, 5)
    assert unit_columns(good) is good
    for j in (0, 2, 4):
        for value in (np.nan, np.inf, 0.0, 2.0):
            block = np.array(good)
            block[:, j] = value
            with pytest.raises(ValueError, match=f"column {j}"):
                unit_columns(block)
    with pytest.raises(ValueError):
        unit_columns(good[:, 0])                    # a 1-d vector is not a block


def test_random_states_draw_order():
    # state j is dim real parts then dim imaginary parts, in draw order
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    block = random_states(rng, 3, 4)
    for j in range(4):
        v = ref.normal(size=3) + 1j * ref.normal(size=3)
        assert np.allclose(block[:, j], v / np.linalg.norm(v), rtol=0, atol=1e-15)
    assert rng.normal() == ref.normal()


def test_basis_state_and_overlap():
    e0 = State.basis(3, 0)
    e1 = State.basis(3, 1)
    assert e0.overlap(e1) == 0
    assert e0.overlap(e0) == 1


def test_expm_unitary():
    rng = np.random.default_rng(2)
    m = random_matrix(rng, 5)
    h = (m + m.conj().T) / 2
    u = expm_hermitian_generator(h, 0.7)
    assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-12)
    # diagonal generator: plain phases
    u2 = expm_hermitian_generator(np.diag([1.0, -2.0]), np.pi)
    assert np.allclose(np.diag(u2), [np.exp(1j * np.pi), np.exp(-2j * np.pi)])


def test_frobenius_residual():
    a = np.eye(3)
    assert frobenius_residual(a, a) == 0.0
    assert frobenius_residual(2 * a, a) == pytest.approx(np.sqrt(3) / (1 + np.sqrt(3)))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def test_expect_matches_quadratic_form(n, seed):
    rng = np.random.default_rng(seed)
    m = random_matrix(rng, n)
    psi = State.normalized(rng.normal(size=n) + 1j * rng.normal(size=n))
    direct = psi.coeffs.conj() @ m @ psi.coeffs
    assert expect(m, psi) == pytest.approx(direct)


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
