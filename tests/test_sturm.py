"""The Sturm kernel against its sweep oracle: every eigenvalue bit for bit,
whatever the batch, the guesses or the round budget."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sturm_oracle
from fuzzysphere import _sturm
from fuzzysphere.circle import coordinate_matrix
from fuzzysphere.spectral import TridiagSpec, toeplitz_spectrum
from fuzzysphere.sphere import coordinate_blocks


def _batch(specs, tol):
    return [t.abs2() for t in specs], [t.gershgorin_radius() + tol for t in specs]


def _same_bits(got, want):
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _entries(rng, n, kind, decoupled):
    if kind == "integer":
        a = rng.integers(-3, 4, size=n - 1).astype(float)
    else:
        a = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
        a *= {"normal": 1.0, "tiny": 1e-8, "huge": 1e8}[kind]
    if decoupled and n > 1:
        a[rng.integers(0, n - 1, size=1 + n // 8)] = 0
    return TridiagSpec(a)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 40),
                          st.sampled_from(["normal", "integer", "tiny", "huge"]),
                          st.booleans()), min_size=1, max_size=6),
       st.sampled_from([1e-12, 1e-6, 1e-30]), st.integers(0, 2 ** 32 - 1))
def test_ragged_batch_matches_sweep_oracle(shapes, tol, seed):
    rng = np.random.default_rng(seed)
    absa2s, radii = _batch([_entries(rng, *shape) for shape in shapes], tol)
    assert _same_bits(_sturm.bisect_many(absa2s, radii, tol),
                      sturm_oracle.bisect_many(absa2s, radii, tol))


def _structured(k):
    """Circle matrices, sphere blocks, a Toeplitz and a decoupled matrix."""
    return ([coordinate_matrix(lam, k) for lam in (1, 2, 7, 20)]
            + list(coordinate_blocks(6, k).values())
            + [TridiagSpec(np.full(30, 0.5)), TridiagSpec([1.0, 0.0, 2.0, 0.0])])


@pytest.mark.parametrize("k", [None, np.inf])
def test_structured_matrices_match_sweep_oracle(k):
    absa2s, radii = _batch(_structured(k), 1e-12)
    got = _sturm.bisect_many(absa2s, radii, 1e-12)
    assert _same_bits(got, sturm_oracle.bisect_many(absa2s, radii, 1e-12))
    assert np.abs(got[-2] - toeplitz_spectrum(31)).max() <= 1e-12


def _bounded_rounds(monkeypatch, limit=64):
    """Count the kernel's passes, failing instead of hanging past limit."""
    shapes, below = [], _sturm._below

    def counted(cols, owner, sizes, shifts):
        shapes.append(shifts.shape)
        assert len(shapes) <= limit, "the rounds do not end"
        return below(cols, owner, sizes, shifts)
    monkeypatch.setattr(_sturm, "_below", counted)
    return shapes


@pytest.mark.parametrize("guess", ["zeros", "nan", "inf", "-inf", "reversed"])
def test_guesses_cannot_move_a_value(guess, monkeypatch):
    rng = np.random.default_rng(5)
    specs = _structured(None) + [_entries(rng, n, "normal", n % 3 == 0)
                                 for n in (1, 4, 9, 16)]
    dense = _sturm._dense_spectra
    fake = {"zeros": lambda a: np.zeros((len(a), a.shape[1] + 1)),
            "nan": lambda a: np.full((len(a), a.shape[1] + 1), np.nan),
            "inf": lambda a: np.full((len(a), a.shape[1] + 1), np.inf),
            "-inf": lambda a: np.full((len(a), a.shape[1] + 1), -np.inf),
            "reversed": lambda a: dense(a)[:, ::-1]}[guess]
    monkeypatch.setattr(_sturm, "_dense_spectra", fake)
    rounds = _bounded_rounds(monkeypatch)
    for tol in (1e-12, 1e-30):
        absa2s, radii = _batch(specs, tol)
        want = sturm_oracle.bisect_many(absa2s, radii, tol)
        rounds.clear()
        assert _same_bits(_sturm.bisect_many(absa2s, radii, tol), want)
        assert rounds
        for t, absa2, r, w in zip(specs, absa2s, radii, want):
            rounds.clear()
            assert _same_bits([_sturm.bisect_all(absa2, r, tol)], [w])
            assert rounds or t.n == 1


def test_round_budget_cannot_move_a_value(monkeypatch):
    rng = np.random.default_rng(8)
    t = _entries(rng, 13, "normal", False)
    r = t.gershgorin_radius() + 1e-12
    rounds = _bounded_rounds(monkeypatch)
    alone = _sturm.bisect_all(t.abs2(), r, 1e-12)
    # alone, the whole chain of about 11 levels goes into the first pass
    assert rounds[0][1] >= 10
    others = [_entries(rng, 12, "normal", False) for _ in range(100)]
    absa2s, radii = _batch(others, 1e-12)
    rounds.clear()
    wide = _sturm.bisect_many([t.abs2(), *absa2s], [r, *radii], 1e-12)
    # over 2^14 / 15 rows: one level per round
    assert t.n + 12 * len(others) > _sturm._ROUND_ENTRIES // (_sturm.SECTIONS - 1)
    assert rounds[0][1] == 1
    assert _same_bits(wide[:1], [alone])
    assert _same_bits(wide[1:], sturm_oracle.bisect_many(absa2s, radii, 1e-12))
