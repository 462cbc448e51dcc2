"""The Sturm kernel against its sweep oracle: every eigenvalue within the
tolerance, whatever the batch or the guesses; bit for bit where nothing can
be certified; and the suites' matrices certified in one pass of counts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sturm_oracle
from fuzzysphere import _sturm, cli
from fuzzysphere.circle import coordinate_matrix
from fuzzysphere.spectral import TridiagSpec, eig_bisection_many, toeplitz_spectrum
from fuzzysphere.sphere import coordinate_blocks


def _batch(specs, tol):
    return [t.abs2() for t in specs], [t.gershgorin_radius() + tol for t in specs]


def _same_bits(got, want):
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _within_tol(got, want, radii, tol):
    """Each value within max(tol, 4 spacings of its radius) of want's: both
    lie within half that of the same eigenvalue."""
    return len(got) == len(want) and all(
        g.shape == w.shape and np.all(np.abs(g - w) <= max(tol, 4 * np.spacing(r)))
        for g, w, r in zip(got, want, radii))


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
    assert _within_tol(_sturm.bisect_many(absa2s, radii, tol),
                       sturm_oracle.bisect_many(absa2s, radii, tol), radii, tol)


def _structured(k):
    """Circle matrices, sphere blocks, a Toeplitz and a decoupled matrix."""
    return ([coordinate_matrix(lam, k) for lam in (1, 2, 7, 20)]
            + list(coordinate_blocks(6, k).values())
            + [TridiagSpec(np.full(30, 0.5)), TridiagSpec([1.0, 0.0, 2.0, 0.0])])


@pytest.mark.parametrize("k", [None, np.inf])
def test_structured_matrices_match_sweep_oracle(k):
    absa2s, radii = _batch(_structured(k), 1e-12)
    got = _sturm.bisect_many(absa2s, radii, 1e-12)
    assert _within_tol(got, sturm_oracle.bisect_many(absa2s, radii, 1e-12),
                       radii, 1e-12)
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


# guesses that can certify nothing, so every value is the sweep's; guesses
# that certify some values; and guesses that certify every value
_NONE = ("nan", "inf", "-inf", "dense+0.6tol")
_ALL = ("dense+0.4tol",)


@pytest.mark.parametrize("guess", ["zeros", "nan", "inf", "-inf", "reversed",
                                   "dense+0.6tol", "dense+0.4tol"])
def test_guesses_cannot_move_a_value(guess, monkeypatch):
    rng = np.random.default_rng(5)
    specs = _structured(None) + [_entries(rng, n, "normal", n % 3 == 0)
                                 for n in (1, 4, 9, 16)]
    dense = _sturm._dense_spectra
    # the shifted guesses sit 0.6 tol and 0.4 tol off, which decides the
    # certificate only while tol is above the floor of 4 spacings
    tols = (1e-12,) if guess.startswith("dense") else (1e-12, 1e-30)
    rounds = _bounded_rounds(monkeypatch)
    for tol in tols:
        fake = {"zeros": lambda a: np.zeros((len(a), a.shape[1] + 1)),
                "nan": lambda a: np.full((len(a), a.shape[1] + 1), np.nan),
                "inf": lambda a: np.full((len(a), a.shape[1] + 1), np.inf),
                "-inf": lambda a: np.full((len(a), a.shape[1] + 1), -np.inf),
                "reversed": lambda a: dense(a)[:, ::-1],
                "dense+0.6tol": lambda a: dense(a) + 0.6 * tol,
                "dense+0.4tol": lambda a: dense(a) + 0.4 * tol}[guess]
        monkeypatch.setattr(_sturm, "_dense_spectra", fake)
        absa2s, radii = _batch(specs, tol)
        if guess.startswith("dense"):
            assert 4 * np.spacing(max(radii)) < tol
        want = sturm_oracle.bisect_many(absa2s, radii, tol)
        rows = list(zip(absa2s, radii, want))
        for batch in [rows] + [[row] for row in rows]:
            a, r, w = map(list, zip(*batch))
            rounds.clear()
            got = _sturm.bisect_many(a, r, tol)
            assert rounds
            assert _within_tol(got, w, r, tol)
            if guess in _NONE:
                assert _same_bits(got, w)
            if guess in _ALL:
                assert len(rounds) == 1


def _copies(block, count):
    """|a_k|^2 of count copies of the tridiagonal with off-diagonal block,
    joined by zeros: each eigenvalue repeated count times."""
    a = np.concatenate([np.append(block, 0.0)] * count)[:-1]
    return np.abs(a) ** 2


@pytest.mark.parametrize("tol", [1e-12, 1e-30])
@pytest.mark.parametrize("parity", [0, 1])
def test_values_descend_when_some_rows_are_bisected(tol, parity, monkeypatch):
    # every other guess 0.6 tol off: those rows are bisected, their
    # neighbours certified, and a bisected copy of a repeated eigenvalue
    # may land on either side of its certified twin
    rng = np.random.default_rng(1)
    absa2s = [_copies([0.5, 0.5], 2), _copies([1.0, 0.7, 0.3], 2),
              _copies(rng.normal(size=4), 3), _copies(np.full(5, 0.5), 2),
              _copies(rng.normal(size=6), 2)]
    radius = 8.0
    shift = 0.6 * max(tol, 4 * np.spacing(radius))
    dense = _sturm._dense_spectra

    def fake(a):
        guess = dense(a)
        guess[:, parity::2] += shift
        return guess
    monkeypatch.setattr(_sturm, "_dense_spectra", fake)
    rounds = _bounded_rounds(monkeypatch)
    got = _sturm.bisect_many(absa2s, [radius] * len(absa2s), tol)
    assert len(rounds) > 1
    for values in got:
        assert np.all(np.diff(values) <= 0.0)
    want = sturm_oracle.bisect_many(absa2s, [radius] * len(absa2s), tol)
    assert _within_tol(got, want, [radius] * len(absa2s), tol)


def test_round_budget_cannot_move_a_value(monkeypatch):
    # a matrix alone and among 100 of its size, in a batch of 1313 rows
    rng = np.random.default_rng(8)
    t = _entries(rng, 13, "normal", False)
    others = [_entries(rng, 13, "normal", False) for _ in range(100)]
    for tol in (1e-12, 1e-30):
        r = t.gershgorin_radius() + tol
        alone = _sturm.bisect_many([t.abs2()], [r], tol)[0]
        absa2s, radii = _batch(others, tol)
        wide = _sturm.bisect_many([t.abs2(), *absa2s], [r, *radii], tol)
        assert _same_bits(wide[:1], [alone])
        assert _within_tol(wide[1:], sturm_oracle.bisect_many(absa2s, radii, tol),
                           radii, tol)


def _passes_per_call(monkeypatch):
    """The number of count passes of each bisect_many call."""
    calls, passes = [], _bounded_rounds(monkeypatch)
    bisect_many = _sturm.bisect_many

    def counted(*args):
        passes.clear()
        out = bisect_many(*args)
        calls.append(len(passes))
        return out
    monkeypatch.setattr(_sturm, "bisect_many", counted)
    return calls


def test_suite_matrices_certify_in_one_pass(monkeypatch):
    # if the certificate broke, every row would fall back to the sweep and
    # every value would still be right; only the passes show it
    calls = _passes_per_call(monkeypatch)
    for k in (None, np.inf):
        eig_bisection_many([coordinate_matrix(lam, k) for lam in range(1, 41)])
        eig_bisection_many([coordinate_matrix(200, k)])
    eig_bisection_many([blk for lam in range(1, 22)
                        for blk in coordinate_blocks(lam).values()])
    assert calls == [1] * 5
    calls.clear()
    cli._spectra_records(cli.ScanConfig(d=1, lam_lo=1, lam_hi=40, seed=7))
    cli._spectra_records(cli.ScanConfig(d=2, lam_lo=1, lam_hi=20, seed=7))
    assert calls == [1] * 4


def test_counts_keep_a_few_numbers_per_row():
    # one pass over 40 400 rows with 2 shifts each: the pass holds a few
    # numbers per row and shift (the pivots, the shifts, the gathered
    # |a_k|^2 of one step, STEPS steps of signs), the call a few per row,
    # and the largest dense guess (n = 401, complex) is 2.6 MB.  A table of
    # every step's |a_k|^2 for every row would add 130 MB
    mats = [coordinate_matrix(lam) for lam in range(1, 201)]
    rows = sum(t.n for t in mats)
    assert rows == 40400
    tracemalloc.start()
    try:
        eig_bisection_many(mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * rows * 2 * 8
