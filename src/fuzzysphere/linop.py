"""Complex array core.

Both spaces hold their operators as shift terms, a complex weight table
held read-only (made so by :func:`readonly`), and apply them to states
through :class:`ShiftTerms`.  A state is a complex 1-d unit vector over
the basis, and several states travel together as the columns of a
(dim, n) block; :func:`unit_columns` checks every column's norm, and a
single state is checked as a block of one.  Random draws come from
:class:`Stream`, a SplitMix64 stream keyed by integer seed words, so they
follow from the seed alone, not from numpy's random module.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property

import numpy as np

__all__ = ["unit_columns", "normalized_columns", "random_states", "readonly",
           "ShiftTerms", "Stream"]


def readonly(a) -> np.ndarray:
    """a as a complex array that refuses writes.  A complex array is not
    copied: its own write flag is cleared, so build it fully first."""
    a = np.asarray(a, dtype=complex)
    a.setflags(write=False)
    return a


def unit_columns(v) -> np.ndarray:
    """v as a complex (dim, n) block, after checking that every column has
    norm 1 within 1e-12; the check is written so that a NaN or infinite
    norm fails it too."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.size < 1:
        raise ValueError("a block of states must be a nonempty 2-d array")
    nrm = np.linalg.norm(v, axis=0)
    unit = np.abs(nrm - 1.0) <= 1e-12
    if not unit.all():
        j = int(np.argmin(unit))
        raise ValueError(f"state norm {nrm[j]} of column {j} deviates from 1 "
                         "beyond 1e-12")
    return v


def normalized_columns(v) -> np.ndarray:
    """The columns of v scaled to unit norm; a zero column has no direction
    and is an error."""
    v = np.asarray(v, dtype=complex)
    nrm = np.linalg.norm(v, axis=0)
    if np.any(nrm == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return unit_columns(v / nrm)


def random_states(rng, dim: int, count: int) -> np.ndarray:
    """count random unit states as the columns of a (dim, count) block.
    They come from one rng.normal call, state by state, each as dim real
    parts followed by dim imaginary parts; rng is a :class:`Stream` or a
    numpy Generator."""
    z = rng.normal(size=(count, 2, dim))
    return normalized_columns((z[:, 0] + 1j * z[:, 1]).T)


class ShiftTerms:
    """Products with states for a space held as shift terms: row j of
    `terms` weighs, at each source index, the term of term_keys[j][0] that
    shifts the labels by term_keys[j][1:], sent where targets(keys) says."""

    @cached_property
    def _gather(self) -> tuple:
        """(src, w): term j moves basis vector src[j, i] onto i with weight
        w[j, i]; src is dim and w 0 where no basis vector moves onto i."""
        src = self.targets([(-dl, -dm) for _, dl, dm in self.term_keys])
        w = np.zeros((len(src), self.dim + 1), dtype=complex)
        w[:, :-1] = self.terms
        return src, np.take_along_axis(w, src, axis=1)

    def apply(self, rows: np.ndarray, ops) -> list:
        """Each operator in ops applied to each row of rows, a (n, dim)
        array of states: the sum of its terms, each one gather."""
        src, w = self._gather
        padded = np.zeros((rows.shape[0], self.dim + 1), dtype=complex)
        padded[:, :-1] = rows
        out = dict.fromkeys(ops, 0.0)
        for j, (name, _, _) in enumerate(self.term_keys):
            if name in out:
                out[name] = out[name] + w[j] * padded[:, src[j]]
        return [out[op] for op in ops]

    def _means(self, v: np.ndarray, ops) -> list:
        """Complex <A> of each column of the (dim, n) block v for each A in
        ops, each numpy's pairwise sum over a contiguous row."""
        rows = np.ascontiguousarray(v.T)
        conj = rows.conj()
        return [np.sum(conj * a, axis=1) for a in self.apply(rows, ops)]


# SplitMix64 (Steele, Lea & Flood 2014): the Weyl increment, the
# finalizer's multipliers and shifts, each a one-element uint64 array, so
# that every operation on words wraps modulo 2^64 the same way on numpy
# 1.x and 2.x and never warns of overflow
_GOLDEN, _M1, _M2, _S30, _S27, _S31, _S11 = (
    np.array([c], dtype=np.uint64) for c in (
        0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
        30, 27, 31, 11))
# words made at a time for the uniform buffer; no value depends on it
_BLOCK = 512


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of each word of the uint64 array z."""
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def _count(size) -> int:
    """The number of draws in a numpy size: None, an int or a shape."""
    return 1 if size is None else math.prod(size) if isinstance(size, tuple) else size


class Stream:
    """Random numbers from SplitMix64, keyed by non-negative integer words.

    The key's pieces are the number of seed words, then for each word its
    count of 64-bit pieces and the pieces, low first, so words of any size
    key distinct streams.  With G = 0x9E3779B97F4A7C15, the key is the XOR
    over j of the finalizer of piece j ^ (j + 1) G, and word i (from 0) of
    the stream is the finalizer of key + (i + 1) G, all mod 2^64.  Uniform
    i is the top 53 bits of word i times 2^-53.  Its four draws are called
    as a numpy Generator's are, and a block draw equals the same draws
    made one at a time."""

    def __init__(self, *words):
        pieces = [len(words)]
        for w in map(operator.index, words):
            if w < 0:
                raise ValueError(f"seed words must be >= 0, got {w}")
            part = [w >> s & (2**64 - 1)
                    for s in range(0, max(w.bit_length(), 1), 64)]
            pieces += [len(part)] + part
        t = np.array(pieces, dtype=np.uint64)
        j = np.arange(1, t.size + 1, dtype=np.uint64)
        self._key = np.bitwise_xor.reduce(_mix(t ^ j * _GOLDEN), keepdims=True)
        self._used, self._buf = 0, np.empty(0)

    def _words(self, n: int) -> np.ndarray:
        """The next n words, as a uint64 array."""
        i = np.arange(self._used + 1, self._used + n + 1, dtype=np.uint64)
        self._used += n
        return _mix(self._key + i * _GOLDEN)

    def _uniforms(self, n: int) -> np.ndarray:
        """The next n uniforms, from a buffer refilled _BLOCK words at a
        time."""
        if self._buf.size < n:
            fresh = (self._words(max(n, _BLOCK)) >> _S11).astype(float) * 2.0 ** -53
            self._buf = np.concatenate((self._buf, fresh))
        u, self._buf = self._buf[:n], self._buf[n:]
        return u

    def random(self, size=None):
        """Uniform floats in [0, 1)."""
        u = self._uniforms(_count(size))
        return float(u[0]) if size is None else u.reshape(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        """Uniform floats in [low, high)."""
        return low + (high - low) * self.random(size)

    def normal(self, size=None):
        """Standard normal floats, each the Box-Muller cosine
        sqrt(-2 ln(1 - u)) cos(2 pi v) of the next two uniforms u, v."""
        u = self._uniforms(2 * _count(size))
        z = np.sqrt(-2.0 * np.log1p(-u[0::2])) * np.cos(2 * np.pi * u[1::2])
        return float(z[0]) if size is None else z.reshape(size)

    def integers(self, low, high):
        """A uniform integer in [low, high): low plus the floor of the
        next uniform times high - low."""
        if high <= low:
            raise ValueError(f"empty range [{low}, {high})")
        return low + int(self._uniforms(1)[0] * (high - low))
