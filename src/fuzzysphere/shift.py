"""Operators as shift terms, and relation checks on them.

Every operator of both fuzzy spaces moves each basis label by a few keys,
(dl, dm) on the sphere's (l, m) and (0, dn) on the circle's n, with one
weight per source basis vector, so a product of two of them is again a
sum of shifts and costs O(dim) per key pair.  A target table T, row j for
key j, holds the basis index of the label that the key moves each source
to, or dim where that label does not exist; each space's targets computes
it from the labels alone.  Here every weight row carries one trailing
zero at index dim, and T one more source, dim, that maps to dim, so a
gather through T reads 0 off the space.  A term must weigh 0 wherever its
target does not exist, as a dense matrix has no entry there.

An atom (row, conj, off, key) weighs W[row, T[off][i]] at source i
(conjugated if conj) and moves i by key: a stored term has off = (0, 0),
and the adjoint of an atom reads its source through off - key and moves
by -key.  An `Op` is a linear combination of atoms and of products of two
atoms.  A suite is a rows function, ops -> [(tag, lhs, rhs), ...], where
ops = stored_ops(keys) names one `Op` per operator of the weight rows,
each row labelled by a key (name, dl, dm).  `check` runs a suite on a
space: the weight rows are the space's terms, then the extra blocks its
caller passes, each with its own keys, and that one place decides the
layout, so a suite asks for every row by name.  `compile_checks` turns the
rows `lhs - rhs` into flat index tables once per rows function and key
tuple, independent of lambda; `check_residuals` then evaluates every row
at one truncation with one gather, one multiply and one
`np.add.reduceat`, and no Python loop over terms or pairs.  `power_norm`
composes the powers of one operator of a space, held as {(dl, dm):
weights over the sources}, one factor at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from .report import Report

__all__ = ["Op", "cartesian", "stored_ops", "CheckTables", "compile_checks",
           "check_residuals", "check", "power_norm"]

ZERO = (0, 0)


def _plus(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _minus(a):
    return (-a[0], -a[1])


class Op:
    """A linear combination of monomials, {monomial: coefficient}; a
    monomial is one atom or a pair (outer, inner) of atoms, inner first."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    @classmethod
    def atom(cls, row: int, key) -> "Op":
        """The stored term in weight row `row` with shift `key`."""
        return cls({((row, False, ZERO, tuple(key)),): 1.0})

    def __add__(self, other: "Op") -> "Op":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0.0) + c
        return Op(out)

    def __rmul__(self, c) -> "Op":
        return Op({mono: c * v for mono, v in self.terms.items()})

    def __neg__(self) -> "Op":
        return -1.0 * self

    def __sub__(self, other: "Op") -> "Op":
        return self + (-other)

    @property
    def H(self) -> "Op":
        """Adjoint of a linear combination of atoms."""
        out = {}
        for ((row, conj, off, key),), c in self.terms.items():
            out[((row, not conj, _plus(off, _minus(key)), _minus(key)),)] = np.conj(c)
        return Op(out)

    def __matmul__(self, other: "Op") -> "Op":
        """The product self other of two linear combinations of atoms."""
        out = {}
        for (b,), cb in self.terms.items():
            for (a,), ca in other.terms.items():
                out[(b, a)] = out.get((b, a), 0.0) + cb * ca
        return Op(out)


def cartesian(plus: Op, minus: Op, zero: Op) -> tuple:
    """(c_1, c_2, c_3) = ((c_+ + c_-)/2, (c_+ - c_-)/2i, c_0)."""
    return 0.5 * (plus + minus), -0.5j * (plus - minus), zero


def stored_ops(keys) -> dict:
    """{name: Op} for the weight rows 0, 1, ... labelled by keys, each
    (name, dl, dm)."""
    ops = {}
    for j, (name, dl, dm) in enumerate(keys):
        ops[name] = ops.get(name, Op()) + Op.atom(j, (dl, dm))
    return ops


# a plain class: a dataclass would generate its methods at import, which
# every command pays in set-up time
class CheckTables:
    """Check rows compiled into flat index arrays.  Contribution p adds
    coef[p] * W[r1[p], T[k1[p]]] * W[r2[p], T[k2[p]]] to the group whose
    run starts at starts[g]; the groups of one (row, key) slot, lhs then
    rhs (its sign folded into coef), run from slot_starts[s].  `keys`
    holds the (dl, dm) of each row of T, `rhs` marks the rhs groups,
    group_row and slot_row give the check row of each group and slot, and
    the rows of tags[t] start at tag_starts[t]."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


@functools.cache
def compile_checks(rows, keys: tuple) -> CheckTables:
    """Compile rows(stored_ops(keys)), [(tag, lhs, rhs), ...] with the rows
    of one tag adjacent, against a weight table with one row per key; the
    evaluation appends their conjugates (rows len(keys)..2 len(keys) - 1)
    and one row of ones.  Cached: each rows function and key tuple is
    compiled once per process."""
    n = len(keys)
    one = 2 * n
    checks = rows(stored_ops(keys))
    contrib = []                    # (row, out key, side, coef, r1, k1, r2, k2)
    for ri, (_, lhs, rhs) in enumerate(checks):
        for side, op, sign in ((0, lhs, 1.0), (1, rhs, -1.0)):
            for mono, c in op.terms.items():
                if c == 0:
                    continue
                inner = mono[-1]
                r1 = inner[0] + n * inner[1]
                if len(mono) == 1:
                    r2, k2, out = one, ZERO, inner[3]
                else:
                    outer = mono[0]
                    r2 = outer[0] + n * outer[1]
                    k2 = _plus(outer[2], inner[3])
                    out = _plus(outer[3], inner[3])
                contrib.append((ri, out, side, sign * c, r1, inner[2], r2, k2))
    contrib.sort(key=lambda t: t[:3])
    shifts = sorted({t[5] for t in contrib} | {t[7] for t in contrib})
    kidx = {k: j for j, k in enumerate(shifts)}
    group = [t[:3] for t in contrib]
    new_group = [j == 0 or group[j] != group[j - 1] for j in range(len(group))]
    starts = np.flatnonzero(new_group)
    heads = [group[j] for j in starts]
    new_slot = [j == 0 or heads[j][:2] != heads[j - 1][:2] for j in range(len(heads))]
    slot_starts = np.flatnonzero(new_slot)
    tags = [t for t, _, _ in checks]
    tag_starts = [j for j in range(len(tags)) if j == 0 or tags[j] != tags[j - 1]]
    return CheckTables(
        tags=tuple(tags[j] for j in tag_starts),
        tag_starts=np.array(tag_starts), n_rows=len(checks),
        keys=np.array(shifts, dtype=int).reshape(-1, 2),
        coef=np.array([t[3] for t in contrib], dtype=complex),
        r1=np.array([t[4] for t in contrib]),
        k1=np.array([kidx[t[5]] for t in contrib]),
        r2=np.array([t[6] for t in contrib]),
        k2=np.array([kidx[t[7]] for t in contrib]),
        starts=starts, rhs=np.array([h[2] == 1 for h in heads], dtype=bool),
        group_row=np.array([h[0] for h in heads]),
        slot_starts=slot_starts,
        slot_row=np.array([heads[j][0] for j in slot_starts]))


def _sq_norms(v: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of a complex 2-d array."""
    return np.square(np.ascontiguousarray(v).view(float)).sum(axis=1)


def check_residuals(tab: CheckTables, weights: np.ndarray, targets) -> np.ndarray:
    """max over the rows of each tag of ||lhs - rhs||_F / (1 + ||rhs||_F),
    for weights of shape (len(keys), dim), one row per key the tables were
    compiled for, and targets(keys) the (K, dim) target table."""
    n, dim = weights.shape
    width = dim + 1
    table = np.zeros((2 * n + 1, width), dtype=complex)
    table[:n, :dim] = weights
    np.conjugate(table[:n], out=table[n:2 * n])
    table[2 * n, :dim] = 1.0
    flat = table.ravel()
    t = np.full((len(tab.keys), width), dim)
    t[:, :dim] = targets(tab.keys)
    v = flat[tab.r1[:, None] * width + t[tab.k1]]
    v *= flat[tab.r2[:, None] * width + t[tab.k2]]
    v *= tab.coef[:, None]
    sums = np.add.reduceat(v, tab.starts)
    diff = np.add.reduceat(sums, tab.slot_starts)
    d2 = np.bincount(tab.slot_row, _sq_norms(diff), minlength=tab.n_rows)
    r2 = np.bincount(tab.group_row[tab.rhs], _sq_norms(sums[tab.rhs]),
                     minlength=tab.n_rows)
    return np.maximum.reduceat(np.sqrt(d2) / (1.0 + np.sqrt(r2)), tab.tag_starts)


def check(space, rows, extra, tol: float) -> Report:
    """The records of the suite rows on space, one per tag, each passing
    iff its residual is <= tol.  The weight rows are the space's terms,
    labelled by its term_keys, then each extra block (keys, weights): a
    tuple of keys and one weight row over the basis per key."""
    keys = space.term_keys
    for block_keys, _ in extra:
        keys += block_keys
    tab = compile_checks(rows, keys)
    weights = np.concatenate([space.terms, *(w for _, w in extra)])
    return Report().add_residuals(tab.tags, check_residuals(tab, weights, space.targets),
                                  tol, space.lam)


def power_norm(space, name: str, n: int) -> float:
    """||A^n||_F, n >= 1, for the operator A = name of space: each of its
    terms whose key is (name, dl, dm) shifts by (dl, dm).  space.targets
    (keys) is the target table, and space.can_shift(lo, hi) tells, for
    each row, whether some shift between lo and hi moves some basis vector
    onto another.

    A^j = A A^{j-1} is formed one factor at a time, with one target row per
    key and step.  A key is dropped when its weights all vanish, and when
    the n - j factors still to come, whose shifts lie in the box of n - j
    times A's least and greatest key, cannot bring it onto a shift that
    moves anything: its part of A^n is exactly zero.  Pruning never reads
    a weight, so a NaN or infinite weight anywhere in A makes it NaN."""
    rows = [j for j, key in enumerate(space.term_keys) if key[0] == name]
    keys = [space.term_keys[j][1:] for j in rows]
    lo, hi = np.min(keys, axis=0), np.max(keys, axis=0)
    a = np.pad(space.terms[rows], ((0, 0), (0, 1)))
    if not np.isfinite(a).all():
        return float("nan")
    power = {ZERO: np.ones(space.dim, dtype=complex)}
    for rest in range(n, 0, -1):
        at = np.array(list(power))
        reach = space.can_shift(at + rest * lo, at + rest * hi)
        power = {key: w for (key, w), ok in zip(power.items(), reach) if ok}
        if not power:
            break
        nxt = {}
        for (key, w), t in zip(power.items(), space.targets(list(power))):
            for d, row in zip(keys, a):
                nxt[_plus(key, d)] = nxt.get(_plus(key, d), 0.0) + w * row[t]
        power = {key: w for key, w in nxt.items() if w.any()}
    return float(np.sqrt(sum(np.vdot(w, w).real for w in power.values())))
