"""Coherent states, uncertainty relations and dispersion minimization.

The strong families come with exact resolutions of the identity; because
every integrand built from the truncated representation is a trigonometric
polynomial of bounded degree, the uniform azimuthal rule and Gauss-Legendre
rules with 4*lam+4 nodes in cos(theta) integrate them exactly, so the
identity checks are rounding-level assertions rather than convergence
studies.  The azimuthal labels (n, m) are integers and the azimuthal rule
is the n uniform angles 2 pi t / n, so every azimuthal sum is read from
kappa(D) = sum_t e^{2 pi i t D / n}, which is n where n divides D and 0
elsewhere: kappa is integer arithmetic, with no angle and no exponential,
and the sums on the sphere are block-diagonal in m exactly.  The polar sum
on the sphere is a real Gram of Wigner d columns, formed from every
eigenpair of FuzzySphere.l2_eigh, with the exact float eigenvalues, so a
wrong L_2 spectrum shows; the families differ only in their seed table,
and each pair {m, mu} is formed once, for every family asked for in one
pass (_identity_blocks).  Both sums come from the rules' own sizes and
nodes (Gauss-Legendre by Golub-Welsch), so a rule too coarse shows too.

The weak families are orbits of the dispersion minimizer.  Its minimum is
min over beta of beta^2 + E_0(beta), with E_0 the ground energy of
x^2 - 2 beta x_ref along one reference axis; each step solves one small
real block, that of the space's first sector, which holds the top
eigenvalue of x_ref and is the lowest sector at every beta: the m = 0 L_3
sector of a sphere, and the even half of the circle, lam + 1 coordinates.
The fixed point beta <- <x_ref> starts at that eigenvalue and, E_0 being
concave, only goes down, so it ends without a tolerance or restarts.  The
minimum is read from that block too, <x^2> - <x_ref>^2 of its ground
vector, with no moments pass, and the vector is put into the basis by the
sector's own indices and weights.

A state is a complex 1-d unit vector and a family of states a (dim, n)
block of unit columns.  Every public function that takes states checks
them on entry: a 1-d vector is a block of one, and every column must have
norm 1.  Moments are taken over a whole block at once, and a block is
rotated in one call (spin_cs, strong_scs_sphere_phi, weak_scs_orbit).

Every function takes any space that answers moments(v) (<x>, <x^2>, <L>
and <L^2> of a block), sectors() and apply(rows, ops) (each named
operator, of x_squared, x_plus, x_minus and on a sphere x3, applied to
each row of an (n, dim) array of states).  sectors() is a generator of
the blocks that x^2 and x_ref leave invariant, the one holding the top
eigenvalue of x_ref first, each cut when reached, as (indices, weights,
x^2 block, x_ref block) on its own orthonormal coordinates: coordinate j
puts weights[j] on each basis vector that column j of indices names, so
chi[indices] = weights * v embeds a sector vector v; the L_3 sectors
m >= 0 of a sphere, with 1-d indices and weight 1, and the even half of
the circle, with indices of shape (2, lam + 1).  Both spaces answer from
their shift terms (linop.ShiftTerms), one dense real block per sector,
held only while it is used.  Rotations are lierep.rotate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._sturm import tridiagonals
from .lierep import EulerAngles, rotate
from .linop import unit_columns
from .report import CheckRecord, Report

__all__ = ["DispersionReport", "dispersion",
           "check_heisenberg_circle", "strong_scs_circle",
           "verify_identity_resolution_circle", "spin_cs",
           "strong_scs_sphere_phi", "random_omega_weights",
           "verify_identity_resolution_sphere", "minimize_dispersion",
           "weak_scs_orbit", "verify_weak_orbit"]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class DispersionReport:
    """Position and angular-momentum moments of a state; for a block of n
    states every field gains a last axis of length n, one entry per
    column."""

    x_mean: np.ndarray
    x2_mean: float | np.ndarray
    x_var: float | np.ndarray   # (Delta x)^2
    L_mean: np.ndarray
    l2_mean: float | np.ndarray
    L_var: float | np.ndarray   # (Delta L)^2


def _columns(psi) -> np.ndarray:
    """psi as a (dim, n) block of unit columns: a 1-d vector is a block of
    one."""
    v = np.asarray(psi, dtype=complex)
    return unit_columns(v[:, None] if v.ndim == 1 else v)


def _state(chi) -> np.ndarray:
    """chi, one state, as a checked 1-d unit vector."""
    v = _columns(chi)
    if v.shape[1] != 1:
        raise ValueError(f"expected one state, got a block of {v.shape[1]}")
    return v[:, 0]


def dispersion(space, psi) -> DispersionReport:
    """Moments of psi, a unit vector or a (dim, n) block of unit columns;
    the dispersions are the O(D)-invariant variances.  A vector's report
    holds plain numbers and length-D mean vectors, exactly the first column
    of its block-of-one report."""
    x_mean, x2, L_mean, l2 = space.moments(_columns(psi))
    fields = (x_mean, x2, x2 - np.sum(x_mean * x_mean, axis=0),
              L_mean, l2, l2 - np.sum(L_mean * L_mean, axis=0))
    if np.ndim(psi) == 1:
        fields = [f[:, 0] if f.ndim == 2 else float(f[0]) for f in fields]
    return DispersionReport(*fields)


def _slack_record(tag, lhs, rhs, lam) -> CheckRecord:
    """lhs >= rhs up to 1e-12; over a block, the record holds the worst
    column, and a NaN anywhere fails it and is its residual."""
    slack = float(np.min(lhs - rhs))
    return CheckRecord(tag=tag, lam=lam, value=slack, bound=0.0,
                       residual=0.0 if slack >= 0.0 else -slack,
                       passed=slack >= -1e-12)


def check_heisenberg_circle(c, psi) -> Report:
    """The three covariant uncertainty inequalities on the fuzzy circle, for
    a unit vector or for every column of a block of unit states.  For a block,
    each of the three records holds its worst column, so the report passes
    exactly when every state passes all three."""
    v = _columns(psi)
    d = dispersion(c, v)
    ex1, ex2 = d.x_mean
    dL = np.sqrt(np.maximum(d.L_var, 0.0))
    # x_1 and x_2 are hermitian, so <x_i^2> = ||x_i v||^2
    xp, xm = c.apply(np.ascontiguousarray(v.T), ("x_plus", "x_minus"))
    var1, var2 = (np.maximum(np.sum((a.conj() * a).real, axis=1) - e ** 2, 0.0)
                  for a, e in (((xp + xm) / 2.0, ex1), ((xp - xm) / 2.0j, ex2)))
    rep = Report()
    rep.add(_slack_record("HURS^1/Lx1", dL * np.sqrt(var1), np.abs(ex2) / 2.0,
                          c.lam))
    rep.add(_slack_record("HURS^1/Lx2", dL * np.sqrt(var2), np.abs(ex1) / 2.0,
                          c.lam))
    rep.add(_slack_record("HURS^1/product", d.L_var * d.x_var,
                          (ex1 ** 2 + ex2 ** 2) / 4.0, c.lam))
    return rep


def strong_scs_circle(c, beta: np.ndarray, alpha: float) -> np.ndarray:
    """omega_alpha^beta = sum_n e^{i(alpha n + beta_n)} psi_n / sqrt(2L+1);
    beta is indexed like the basis (n descending from lam to -lam)."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (c.dim,):
        raise ValueError(f"beta must have shape ({c.dim},), got {beta.shape}")
    return np.exp(1j * (c.labels * alpha + beta)) / np.sqrt(c.dim)


def _azimuthal_size(lam: int) -> int:
    """The number n = 4 lam + 3 of uniform angles 2 pi t / n of every
    azimuthal sum, exact for e^{i t D} with |D| <= 2 lam, the widest label
    difference."""
    return 4 * lam + 3


def _kappa(n: int, lam: int) -> np.ndarray:
    """kappa[D + 2 lam] = sum_t e^{2 pi i t D / n} for D = -2 lam..2 lam, in
    integers: n where n divides D, else 0."""
    return np.where(np.arange(-2 * lam, 2 * lam + 1) % n == 0, n, 0)


def verify_identity_resolution_circle(c, beta=None, tol: float = 1e-10) -> Report:
    """Quadrature check of (2L+1)/(2pi) int dalpha P_alpha^beta = id over the
    n-point azimuthal rule: the states are e^{i alpha L} u, u = omega_0^beta,
    so the sum is (2L+1)/n kappa(n_i - n_j) * u u^dag."""
    n = _azimuthal_size(c.lam)
    u = strong_scs_circle(c, np.zeros(c.dim) if beta is None else beta, 0.0)
    weave = _kappa(n, c.lam)[c.labels[:, None] - c.labels + 2 * c.lam]
    total = c.dim / n * (weave * np.outer(u, u.conj()))
    resid = float(np.linalg.norm(total - np.eye(c.dim)))
    rep = Report()
    rep.add_residual("IdResolS^1_L", resid, tol, lam=c.lam)
    return rep


def spin_cs(s, l, g) -> np.ndarray:
    """Rotated highest-weight state pi(g) psi_l^l; for a sequence of levels
    l, and a g for each or one for all, their (dim, n) block."""
    ls = np.atleast_1d(l)
    if np.any((ls < 0) | (ls > s.lam)):
        raise ValueError(f"l={l} out of range 0..{s.lam}")
    v = np.zeros((s.dim, ls.size), dtype=complex)
    v[ls * (ls + 2), np.arange(ls.size)] = 1.0      # psi_l^l is at l^2 + 2l
    out = rotate(s, g, v)
    return out if np.ndim(l) else out[:, 0]


def _phi_seed(s, beta) -> np.ndarray:
    """phi^beta = sum_l e^{i beta_l} sqrt(2l+1)/(lam+1) psi_l^0; for an
    (n, lam+1) beta, one seed per row as the columns of a block."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape[-1:] != (s.lam + 1,):
        raise ValueError(f"beta must have {s.lam + 1} entries, got shape {beta.shape}")
    v = np.zeros((s.dim,) + beta.shape[:-1], dtype=complex)
    l = np.arange(s.lam + 1)
    v[s.m_of == 0] = (np.exp(1j * beta) * np.sqrt(2 * l + 1) / (s.lam + 1)).T
    return v


def strong_scs_sphere_phi(s, beta: np.ndarray, g: EulerAngles) -> np.ndarray:
    """phi_g^beta: the m=0 superposition with sqrt(2l+1) weights, rotated;
    an (n, lam+1) beta gives the (dim, n) block of the n states."""
    return rotate(s, g, _phi_seed(s, beta))


def random_omega_weights(s, rng) -> np.ndarray:
    """Random seed vector omega with the per-level norms (2l+1)/(lam+1)^2
    required for a strong family."""
    v = np.zeros(s.dim, dtype=complex)
    # one draw for all levels: level l reads 2l + 1 real parts, then 2l + 1
    # imaginary parts, from 2 l^2 on
    z = rng.normal(size=2 * s.dim)
    for l in range(s.lam + 1):
        n, at = 2 * l + 1, 2 * l * l
        block = z[at:at + n] + 1j * z[at + n:at + 2 * n]
        block *= np.sqrt(n) / ((s.lam + 1) * np.linalg.norm(block))
        v[l * l:(l + 1) ** 2] = block
    return v


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] by
    Golub-Welsch (1969): the nodes are the eigenvalues of the Jacobi matrix
    of the Legendre recurrence, with off-diagonal k / sqrt(4k^2 - 1), and
    each weight is 2 v_0^2, v_0 the first entry of its unit eigenvector."""
    k = np.arange(1.0, n)
    nodes, vecs = np.linalg.eigh(tridiagonals(k / np.sqrt(4.0 * k * k - 1.0)))
    return nodes, 2.0 * vecs[0] ** 2


@functools.cache
def _polar_nodes(lam: int):
    """Gauss-Legendre nodes/weights in cos(theta), mapped to theta; computed
    once per lam and shared, read-only."""
    nodes, weights = _gauss_legendre(4 * lam + 4)
    thetas = np.arccos(nodes)
    thetas.setflags(write=False)
    weights.setflags(write=False)
    return thetas, weights


_SPHERE_RESOLUTION_TAGS = {"spin": "ResolIdS^2_L",
                           "omega": "ResolIdS^2_Lomegagen",
                           "phi": "ResolIdS^2_Lphi"}

# Re(i^k e^{ix}) is _QUARTER[k] cos x for even k and _QUARTER[k] sin x for odd
_QUARTER = np.array([1.0, -1.0, -1.0, 1.0])


def _family_seed(s, family: str, omega, beta):
    """(q, norm, psi): the seed table q[mu + lam, l] of one strong family
    (spin sqrt(2l+1) at mu = l, phi the phi seed at mu = 0, omega omega_lmu),
    the weight of each quadrature point, and psi[e + 2 lam], the weight of
    seed offset e: kappa(e) for omega's psi sum, 1 at e = 0 alone for spin
    and phi.  An omega must have shape (dim,) and the per-level weights, a
    phi beta shape (lam + 1,)."""
    lam = s.lam
    n = _azimuthal_size(lam)
    levels = np.arange(lam + 1)
    at_0 = (np.arange(-2 * lam, 2 * lam + 1) == 0).astype(int)
    if family == "spin":
        q = np.zeros((2 * lam + 1, lam + 1))
        q[levels + lam, levels] = np.sqrt(2.0 * levels + 1.0)
        return q, TWO_PI / n / (4.0 * np.pi), at_0
    q = np.zeros((2 * lam + 1, lam + 1), dtype=complex)
    if family == "omega":
        if omega is None:
            raise ValueError("the omega family needs a seed vector")
        seed = np.asarray(omega, dtype=complex)
        if seed.shape != (s.dim,):
            raise ValueError(f"omega must have shape ({s.dim},), got {seed.shape}")
        target = (2 * levels + 1) / (lam + 1) ** 2
        defect = np.abs(np.bincount(s.l_of, np.abs(seed) ** 2) - target)
        # written so that a NaN defect fails it too
        if not np.all(defect <= 1e-12):
            bad = {l: float(d) for l, d in enumerate(defect) if not d <= 1e-12}
            raise ValueError(f"weight condition violated, per-l defect: {bad}")
        q[s.m_of + lam, s.l_of] = seed
        return q, (lam + 1) ** 2 * (TWO_PI / n) ** 2 / (8.0 * np.pi ** 2), _kappa(n, lam)
    beta = np.zeros(lam + 1) if beta is None else np.asarray(beta, dtype=float)
    if beta.shape != (lam + 1,):
        raise ValueError(f"beta must have {lam + 1} entries: shape ({lam + 1},), "
                         f"got shape {beta.shape}")
    q[lam] = _phi_seed(s, beta)[s.m_of == 0]
    return q, (lam + 1) ** 2 * (TWO_PI / n) / (4.0 * np.pi), at_0


def _pairs(lam: int):
    """Every pair {m, mu} once, as the indices (a, b) = (m + lam, mu + lam)
    with |m| = max(|m|, |mu|) and m > 0 where mu = -m, by the group |m|, m -
    mu even first, m and mu; its group; and max(|m|, |mu|) for every two
    indices."""
    n = 2 * lam + 1
    a, b = np.divmod(np.arange(n * n), n)
    top = np.maximum(np.abs(a - lam), np.abs(b - lam))
    once = (np.abs(a - lam) == top) & ((np.abs(b - lam) < top) | (a >= b))
    order = np.lexsort((b[once], a[once], (a - b)[once] % 2, top[once]))
    return a[once][order], b[once][order], top[once][order], top.reshape(n, n)


def _d_columns(ab, even: int, lo: int, hi: int, eigs, trig) -> np.ndarray:
    """cols[p, l - lo, t] = sqrt(w_t) d^l_{m mu}(theta_t) / _QUARTER[(m - mu)
    % 4] for the label pairs (m, mu) = ab[:, p], l = lo..hi-1, with d^l_{m
    mu} = sum_nu V'[m, nu] V'[mu, nu] Re(i^(m - mu) e^(i theta nu)) over
    every eigenpair of level l: a real product with trig[l]'s cos table for
    the first `even` pairs, m - mu even, and one with its sin table."""
    cols = np.empty((hi - lo, ab.shape[1], trig[lo][0].shape[1]))
    for l in range(lo, hi):
        rows = np.multiply(*eigs[l][2].take(ab + l, axis=0))
        np.matmul(rows[:even], trig[l][0], out=cols[l - lo, :even])
        np.matmul(rows[even:], trig[l][1], out=cols[l - lo, even:])
    return cols.transpose(1, 0, 2)


def _identity_blocks(s, families, omega=None, beta=None) -> np.ndarray:
    """S - I for S the quadrature sum of the projectors of each named
    strong family, by blocks: [f, m + lam, j, l, l'] is family f's entry of
    psi_l^m and psi_l'^(m - d) for the j-th offset d that kappa keeps (0
    where l < |m| or l' < |m - d|); S is 0 elsewhere.  pi(g) has the real
    entries d^l_{m mu}(theta), so S_{m, m'}[l, l'] = norm kappa(m - m')
    sum_{mu, mu'} psi(mu - mu') q[mu, l] conj(q[mu', l']) sum_t w_t d^l_{m
    mu} d^l'_{m' mu'} (_family_seed).  The columns are formed a group of
    pairs {m, mu}, max(|m|, |mu|) = A, at a time, on the levels A.. a seed
    reaches, each pair once for every family and for both orientations,
    d^l_{mu m} = (-1)^(m - mu) d^l_{m mu}.  An orientation (f, m, mu) is
    family f's sum into S_m with seed column mu, taken only where f's seed
    reaches it, so no family pays for the pairs only another one needs.
    The package's rule keeps m - m' = mu - mu' = 0 alone: a column meets
    only itself, its real Gram G_{m mu} = G_{mu m} goes to S_m with seed
    column mu and to S_mu with seed column m (the runs into S_A and S_-A
    reduced per family, the other targets added by index), and the group
    is dropped.  A coarser rule keeps other offsets, where kappa and
    psi are n or 0 by residues; then the columns live to the end of the
    call, as sums Y_m = sum_mu q[mu] d_{m mu} over each family's classes
    of coupled (m, mu), and S_{m, m'} gains norm kappa(0) psi(0) Y_m
    Y_m'^dag."""
    seeds = [_family_seed(s, f, omega, beta) for f in families]
    q, psi = np.stack([x for x, _, _ in seeds]), np.stack([x for _, _, x in seeds])
    lam, eigs, n, nf = s.lam, s.l2_eigh, 2 * s.lam + 1, len(seeds)
    kappa = _kappa(_azimuthal_size(lam), lam)
    thetas, w_th = _polar_nodes(lam)
    weight = np.array([x for _, x, _ in seeds]) * kappa[2 * lam] * psi[:, 2 * lam]
    slot = np.cumsum(kappa != 0) - 1        # the block of offset m - m'
    total = np.zeros((nf, n, slot[-1] + 1, lam + 1, lam + 1), dtype=q.dtype)
    # the pairs that reach a seed: family f's column (m, mu), at indices
    # (m + lam, mu + lam), meets none above last[f, mu + lam]
    a, b, big, top = _pairs(lam)
    last = ((q != 0) * np.arange(1, lam + 2)).max(axis=2) - 1
    live = last[:, None, :] >= top
    a, b, big = (x[(live[:, a, b] | live[:, b, a]).any(axis=0)] for x in (a, b, big))
    # orientations (family, target, seed, pair): (f, a, b) to S_a with seed
    # column b, (f, b, a) to S_b with seed a; by group, then targets A, -A,
    # b of A, b of -A, then family
    f1, p1 = np.nonzero(live[:, a, b])
    f2, p2 = np.nonzero(live[:, b, a] & (a != b))
    tf, tp = np.concatenate([f1, f2]), np.concatenate([p1, p2])
    tm, tmu = np.concatenate([a[p1], b[p2]]), np.concatenate([b[p1], a[p2]])
    tk = (4 * big[tp] + np.concatenate([a[p1] < lam, 2 + (a[p2] < lam)])) * nf + tf
    order = np.argsort(tk, kind="stable")
    tf, tm, tmu, tp, tk = (x[order] for x in (tf, tm, tmu, tp, tk))
    # the groups: pairs p0:p1, orientations c0:c4 by target class, and the
    # starts cut[r0:r1] of the runs of one family and target A or -A
    start = np.flatnonzero(np.concatenate([[True], big[1:] != big[:-1]]))
    tp -= start[np.searchsorted(start, tp, side="right") - 1]
    cut = np.flatnonzero(np.concatenate([[True], tk[1:] != tk[:-1]]))
    bounds = np.searchsorted(tk, np.add.outer(4 * big[start], np.arange(5)) * nf)
    lmax = last.max(axis=0)
    groups = zip(start.tolist(), np.append(start[1:], a.size).tolist(), big[start].tolist(),
                 (1 + np.maximum.reduceat(np.maximum(lmax[a], lmax[b]), start)).tolist(),
                 np.add.reduceat(1 - (a - b) % 2, start).tolist(), bounds.tolist(),
                 np.searchsorted(cut, bounds[:, [0, 2]]).tolist())
    keep, shared = np.count_nonzero(kappa) > 1, {}
    if keep:
        # (f, m, mu)'s class: f, the first m', mu' coupled; its lowest
        # level; a Y_m per m, on the levels from there to lam.  Either
        # orientation of a pair reads d_{m mu} = _QUARTER[(m - mu) % 4] cols
        sign = _QUARTER[(tm - tmu) % 4]
        diff = np.arange(n)[:, None] - np.arange(-2 * lam, 1)
        key = list(zip(tf.tolist(), np.argmax(kappa[diff] != 0, axis=1)[tm].tolist(),
                       np.argmax(psi[:, diff] != 0, axis=2)[tf, tmu].tolist()))
        for k, m, lo in zip(key, tm.tolist(), top[tm, tmu].tolist()):
            lo_k, rows = shared.get(k, (lo, {}))
            shared[k] = min(lo_k, lo), rows
            rows.setdefault(m, len(rows))
        shared = {k: (lo, rows, np.zeros((len(rows), lam + 1 - lo, thetas.size), q.dtype))
                  for k, (lo, rows) in shared.items()}
    x = np.multiply.outer(np.concatenate([vals for _, vals, _ in eigs]), thetas)
    c, x = (np.multiply(t, np.sqrt(w_th), out=t) for t in (np.cos(x), np.sin(x, out=x)))
    trig = [(c[l * l:(l + 1) ** 2], x[l * l:(l + 1) ** 2]) for l in range(lam + 1)]
    ab, sub = np.array([a, b]) - lam, total.reshape(nf * n, *total.shape[2:])[:, slot[2 * lam]]
    fmu, fm = tf * n + tmu, tf * n + tm
    wq, qc = (weight[:, None, None] * q).reshape(nf * n, -1), q.conj().reshape(nf * n, -1)
    for p0, p1, lo, hi, even, (c0, c1, c2, c3, c4), (r0, r1) in groups:
        cols = _d_columns(ab[:, p0:p1], even, lo, hi, eigs, trig)
        if keep:
            for t in range(c0, c4):
                lo_k, rows, y = shared[key[t]]
                y[rows[tm[t]], lo - lo_k:hi - lo_k] += (
                    sign[t] * q[tf[t], tmu[t], lo:hi, None] * cols[tp[t]])
            continue
        part = (cols @ cols.transpose(0, 2, 1))[tp[c0:c4]]
        del cols                                    # freed before the products
        part = part * wq[fmu[c0:c4], lo:hi, None]
        part *= qc[fmu[c0:c4], None, lo:hi]
        sub[fm[cut[r0:r1]], lo:hi, lo:hi] += np.add.reduceat(   # a target a run
            part[:c2 - c0], cut[r0:r1] - c0)
        for u, v in ((c2, c3), (c3, c4)):           # targets that differ
            sub[fm[u:v], lo:hi, lo:hi] += part[u - c0:v - c0]
        del part                                    # and before the next group
    for (f, _, _), (lo, rows, y) in shared.items():
        sec = np.array(list(rows))
        total[f, sec[:, None], slot[sec[:, None] - sec + 2 * lam], lo:, lo:] += (
            weight[f] * y[:, None] @ y.conj().transpose(0, 2, 1))
    total[:, s.m_of + lam, slot[2 * lam], s.l_of, s.l_of] -= 1.0
    return total


def verify_identity_resolution_sphere(s, family, omega=None, beta=None,
                                      tol: float = 1e-8) -> Report:
    """Quadrature check of the three strong-family identity resolutions.

    family "spin": sum_l (2l+1)/(4pi) over S^2 of |pi(g) psi_l^l><...|
    (the third Euler angle only contributes a phase, so its integral is an
    exact factor 2pi already absorbed in the weight).
    family "omega": (lam+1)^2/(8pi^2) over SO(3) with a seed omega obeying
    the per-level weight condition.
    family "phi": (lam+1)^2/(4pi) over S^2 with the m=0 seed phi^beta, beta
    of shape (lam+1,), zeros if None.
    family is one name or a sequence of distinct names, checked before any
    sum; each is a seed table, and all of them are summed through one pass
    of a Gram of Wigner d columns (_identity_blocks).  The report holds one
    record per name, in order, with residual ||S - I||_F, S that family's
    sum.
    """
    names = (family,) if isinstance(family, str) else tuple(family)
    if not names:
        raise ValueError("no family given: name at least one of spin, omega, phi")
    for i, f in enumerate(names):
        if f not in _SPHERE_RESOLUTION_TAGS:
            raise ValueError(f"unknown family {f!r}: expected spin, omega or phi")
        if f in names[:i]:
            raise ValueError(f"family {f!r} given twice")
    blocks = _identity_blocks(s, names, omega, beta)
    return Report().add_residuals(
        [_SPHERE_RESOLUTION_TAGS[f] for f in names],
        [float(np.sqrt(np.vdot(x, x).real)) for x in blocks], tol, lam=s.lam)


# the most steps of the minimizer's fixed point; the circle (lam 1..200) and
# the sphere (lam 1..60, 100, 150, 200) stop within 26, while a wrong
# sector can creep toward beta = 0 as 1/sqrt(n)
_MAX_STEPS = 256


def minimize_dispersion(space):
    """Minimize (Delta x)^2 over unit states; returns (chi, minimum), chi a
    unit vector.

    For every unit state and vector b, <x^2> - 2 b.<x> + |b|^2 equals
    (Delta x)^2 + |<x> - b|^2, so the minimum is min_b |b|^2 + E_0(b) with
    E_0(b) the ground energy of x^2 - 2 b.x.  By rotation invariance b may
    lie on the reference axis (x_1 on the circle, x_3 on a sphere), and
    H(beta) = x^2 - 2 beta x_ref splits into small real blocks, the
    space's sectors.  From beta = alpha_1, the top eigenvalue of x_ref, the
    fixed point beta <- <x_ref> in the ground vector of the lowest block runs
    until beta no longer decreases.  E_0 is concave, so beta -> <x_ref>
    never decreases in beta and never exceeds alpha_1: the sequence only
    goes down and stops at the largest fixed point, with no tolerance and
    no restarts.  A strictly falling sequence of floats in [0, alpha_1] is
    finite but may be long, so the loop takes at most _MAX_STEPS steps and
    a loop that reaches them returns a NaN minimum, which fails its record.
    The minimizer is that ground vector v, so <x> points along the
    reference axis, and the minimum is read from the sector alone:
    v.q.v - <x_ref>^2, q the sector's x^2 block.

    For beta in [0, alpha_1] the lowest block is the sector holding
    alpha_1, which every space lists first, so only that block is cut and
    diagonalized.  On the fuzzy sphere it is m = 0: sector m has the
    diagonal x^2(l) and the off-diagonal -2 beta c_l A_l^{0,m} <= 0,
    smaller in size as |m| grows, so by Perron-Frobenius its ground energy
    is no lower than that of the m = 0 block cut to l >= |m|, and by Cauchy
    interlacing that is no lower than the whole m = 0 block's (alpha_1 lies
    in m = 0 too, as the check diag-sphere/alpha1-monotone shows).  The
    sphere lists the sectors m >= 0 only, as sector -m has the blocks of
    sector m.  The circle lists one sector, its even half: the reflection
    psi_n -> psi_-n commutes with x^2, which depends on n^2 alone, and
    with x_1, as c(n) = c(-n-1) makes it swap x_+ and x_-; x_1 and
    -(x^2 - 2 beta x_1), beta > 0, have a positive off-diagonal, so by
    Perron-Frobenius the top vector of x_1 and every ground vector the loop
    takes are positive, hence even, and at beta = 0 the half holds every
    value of the diagonal x^2.  The half has lam + 1 coordinates,
    (psi_n + psi_-n) / sqrt 2 for n = lam..1 and psi_0, so every step is
    a (lam+1)^2 block, not the whole (2 lam + 1)^2.  The sector's indices
    and weights put v into the basis, whatever the space; the stationarity
    certificate (minimizer_certificate) takes E_0 over every sector and
    H(b) chi from the whole space's terms, so a wrong fold, or a wrong
    sector listed first, fails it.
    """
    idx, w, q, xr = next(iter(space.sectors()))
    beta, minimum = np.linalg.eigvalsh(xr)[-1], np.nan
    for _ in range(_MAX_STEPS):
        v = np.linalg.eigh(q - 2.0 * beta * xr)[1][:, 0]
        mean = float(v @ xr @ v)
        if not mean < beta:
            minimum = float(v @ q @ v - mean * mean)
            break
        beta = mean
    chi = np.zeros(space.dim, dtype=complex)
    chi[idx] = w * v
    return chi, minimum


def minimizer_certificate(space, chi) -> float:
    """Stationarity residual ||H(b) chi - E_0 chi||: the distance of the
    unit vector chi from the ground eigenspace of H(b) = x^2 - 2 b.x at its
    own mean position b.  By O(D) covariance E_0 is the lowest over the
    space's sectors of x^2 - 2 |b| x_ref; H(b) chi is taken from the terms
    on the whole space, -2 (b_1 x_1 + b_2 x_2) = -(b_1 - i b_2) x_+ -
    (b_1 + i b_2) x_-."""
    v = _state(chi)
    b = dispersion(space, v).x_mean
    r, bp = float(np.linalg.norm(b)), b[0] - 1j * b[1]
    e0 = np.min([np.linalg.eigvalsh(q - 2.0 * r * xr)[0]
                 for _, _, q, xr in space.sectors()])
    sq, xp, xm, *x3 = space.apply(v[None, :], ("x_squared", "x_plus",
                                               "x_minus", "x3")[:len(b) + 1])
    hv = sq - bp * xp - np.conj(bp) * xm
    hv = (hv - 2.0 * b[2] * x3[0] if x3 else hv)[0]
    return float(np.linalg.norm(hv - e0 * v))


def weak_scs_orbit(space, chi, grid) -> np.ndarray:
    """Orbit of the unit vector chi over group elements (angles alpha for
    the circle, EulerAngles for the sphere): column j is pi(grid[j]) chi."""
    chi = _state(chi)
    return rotate(space, grid, np.repeat(chi[:, None], len(grid), axis=1))


def verify_weak_orbit(space, chi, grid) -> Report:
    """On every orbit member of the unit vector chi the dispersion is
    unchanged (to 1e-10) and <x> points along the classically rotated
    reference direction (to 1e-9)."""
    rep = Report()
    # chi and its orbit as one block: column 0 is chi itself (weak_scs_orbit
    # checks chi first)
    block = np.column_stack([chi, weak_scs_orbit(space, chi, grid)])
    d = dispersion(space, block)
    r = np.linalg.norm(d.x_mean[:, 0])
    # the rotated axes: (cos a, -sin a), u_g = (-sin t cos p, sin t sin p, cos t)
    if len(d.x_mean) == 2:
        u = np.array([np.cos(grid), -np.sin(grid)])
    else:
        p, t = np.array([(g.phi, g.theta) for g in grid]).reshape(-1, 2).T
        u = np.array([-np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])
    worst_var = float(np.max(np.abs(d.x_var[1:] - d.x_var[0]), initial=0.0))
    worst_dir = float(np.max(np.linalg.norm(d.x_mean[:, 1:] - r * u, axis=0),
                             initial=0.0))
    rep.add_residual("weak-orbit/dispersion", worst_var, 1e-10, lam=space.lam)
    rep.add_residual("weak-orbit/direction", worst_dir, 1e-9, lam=space.lam)
    return rep
