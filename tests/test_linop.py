"""Array/state core: read-only operator arrays, unit-vector states and
their checks at every entry point, exponentials; and the package's public
names."""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

import fuzzysphere
from fuzzysphere.circle import build_circle
from fuzzysphere.coherent import (check_heisenberg_circle, dispersion,
                                  minimizer_certificate, verify_weak_orbit,
                                  weak_scs_orbit)
from dense_oracle import expm_hermitian_generator, frobenius_residual
from fuzzysphere import linop
from fuzzysphere.linop import (Stream, normalized_columns, random_states,
                               unit_columns)
from fuzzysphere.sphere import FuzzySphere, build_sphere
from madore import build_madore
import splitmix_oracle


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _matrices(obj):
    """(name, array) for every 2-d array of a space: on the circle, its
    shift terms; on the sphere, those and the eigenvectors of its L_2 level
    blocks."""
    if isinstance(obj, FuzzySphere):
        return [("terms", obj.terms)] + [(f"l2_eigh[{l}]", vecs) for l, (_, _, vecs)
                                         in enumerate(obj.l2_eigh)]
    if hasattr(obj, "terms"):
        return [("terms", obj.terms)]
    return [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)
            if np.ndim(getattr(obj, f.name)) == 2]


def test_operator_immutable():
    # every matrix of the three spaces, the shift terms of the circle and
    # the sphere among them, refuses writes; each is complex but for the
    # sphere's real L_2 eigenvectors
    for obj in (build_circle(2), build_sphere(2), build_madore(1.5)):
        mats = _matrices(obj)
        assert len(mats) >= (1 if hasattr(obj, "labels") else 3)
        for name, a in mats:
            assert a.dtype == (float if name.startswith("l2_eigh") else complex), name
            with pytest.raises(ValueError):
                a[0, 0] = 5.0


def test_matmul_dimension_mismatch():
    # a state is not broadcast over operators of another size
    with pytest.raises(ValueError):
        dispersion(build_circle(1), np.eye(4)[:, 0])


def test_public_names_resolve():
    # perfbench's span tracer wraps what __all__ names and skips a stale
    # name without a word, so every listed name must exist
    mods = [fuzzysphere] + [importlib.import_module(f"fuzzysphere.{m.name}")
                            for m in pkgutil.iter_modules(fuzzysphere.__path__)]
    for mod in mods:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


def test_state_normalization_enforced():
    with pytest.raises(ValueError, match="deviates from 1"):
        dispersion(build_circle(1), np.array([1.0, 1.0, 0.0]))
    v = normalized_columns(np.array([[1.0], [1.0]]))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15


def _state_entry_points(c):
    """Every public function that takes a state, on the circle c."""
    return {"dispersion": lambda v: dispersion(c, v),
            "check_heisenberg_circle": lambda v: check_heisenberg_circle(c, v),
            "minimizer_certificate": lambda v: minimizer_certificate(c, v),
            "weak_scs_orbit": lambda v: weak_scs_orbit(c, v, [0.5]),
            "verify_weak_orbit": lambda v: verify_weak_orbit(c, v, [0.5])}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0],
                                 [0.0, 0.0], [1.0, 1e-3]])
def test_state_rejects_nan_inf_zero_and_non_unit(bad):
    # every entry point checks its state's norm; a NaN norm must fail the
    # check, not slip past a `> 1e-12` comparison
    c = build_circle(1)
    v = np.array(bad + [0.0])
    for entry in _state_entry_points(c).values():
        with pytest.raises(ValueError, match="deviates from 1"):
            entry(v)
    good = np.eye(c.dim)[:, 0]
    for entry in (dispersion, check_heisenberg_circle):
        with pytest.raises(ValueError, match="column 1"):
            entry(c, np.column_stack([good, v]))
    if bad[1] != 1e-3:
        with pytest.raises(ValueError):
            normalized_columns(v[:, None])


def test_single_state_entry_points_take_one_state():
    c = build_circle(1)
    for name in ("minimizer_certificate", "weak_scs_orbit", "verify_weak_orbit"):
        with pytest.raises(ValueError, match="one state"):
            _state_entry_points(c)[name](np.eye(c.dim)[:, :2])


def test_normalized_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        normalized_columns(np.zeros((3, 1)))
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
    # state j is dim real parts then dim imaginary parts, in draw order,
    # from the package's stream or a numpy Generator
    for make in (Stream, np.random.default_rng):
        rng, ref = make(9), make(9)
        block = random_states(rng, 3, 4)
        for j in range(4):
            v = ref.normal(size=3) + 1j * ref.normal(size=3)
            assert np.allclose(block[:, j], v / np.linalg.norm(v),
                               rtol=0, atol=1e-15)
        assert rng.normal() == ref.normal()


@pytest.mark.parametrize("seed", [[0], [7, 2, 9, 1], [2**64 - 1], [2**70]])
def test_stream_matches_python_oracle(seed, monkeypatch):
    want = splitmix_oracle.words(seed, 1000)
    assert Stream(*seed)._words(1000).tolist() == want
    # drawn in pieces, the stream goes on where it stopped
    pieces = Stream(*seed)
    got = [w for n in (1, 2, 997) for w in pieces._words(n).tolist()]
    assert got == want
    uniforms = [(w >> 11) * 2.0**-53 for w in want]
    assert Stream(*seed).random(1000).tolist() == uniforms
    # the buffer's block size changes no value
    monkeypatch.setattr(linop, "_BLOCK", 7)
    rng = Stream(*seed)
    assert [x for n in (3, 1, 9, 987) for x in rng.random(n).tolist()] == uniforms
    # normal j is the Box-Muller cosine of uniforms 2j and 2j + 1
    box_muller = [math.sqrt(-2.0 * math.log1p(-a)) * math.cos(2 * math.pi * b)
                  for a, b in zip(uniforms[0::2], uniforms[1::2])]
    assert np.allclose(Stream(*seed).normal(size=500), box_muller,
                       rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("draw", [
    lambda rng, size=None: rng.random(size),
    lambda rng, size=None: rng.uniform(-2.0, 3.0, size),
    lambda rng, size=None: rng.normal(size=size),
])
def test_stream_block_draw_equals_single_draws(draw):
    block = draw(Stream(3, 1), (4, 5))
    rng = Stream(3, 1)
    single = [draw(rng) for _ in range(20)]
    assert block.shape == (4, 5)
    assert all(type(x) is float for x in single)
    assert block.ravel().tolist() == single


def test_stream_integers_cover_their_range():
    rng = Stream(4)
    got = [rng.integers(2, 16) for _ in range(10**4)]
    assert set(got) == set(range(2, 16))
    assert {rng.integers(-1, 2) for _ in range(100)} == {-1, 0, 1}
    with pytest.raises(ValueError, match="empty range"):
        rng.integers(5, 5)


def test_stream_normal_moments():
    n = 10**5
    z = Stream(11).normal(size=n)
    # the sample mean has sd 1/sqrt(n), the sample variance about sqrt(2/n)
    assert abs(z.mean()) < 5 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 5 * np.sqrt(2 / n)


def test_stream_keys_tell_seed_words_apart():
    seeds = [[1, 2], [2, 1], [1, 2, 0], [2**70], [2**70 % 2**64], [0, 64],
             [2**64, 5], [0, 1 + 5 * 2**64]]
    firsts = [tuple(Stream(*s)._words(4).tolist()) for s in seeds]
    assert len(set(firsts)) == len(seeds)
    assert Stream(np.int64(7), 2)._words(3).tolist() == Stream(7, 2)._words(3).tolist()
    with pytest.raises(ValueError, match=">= 0"):
        Stream(3, -1)
    with pytest.raises(TypeError):
        Stream(1.5)


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
