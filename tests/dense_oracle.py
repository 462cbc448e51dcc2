"""Dense oracle for the term suites, moments and rotations of both spaces.

The circle and the sphere keep their operators only as shift terms.
`dense` scatters any of them into a dim x dim matrix, and the checks
below are the relation, su(2) and so(4) suites formed as dense products
of those matrices, so the tests can compare the two record by record.
`rotation_operator` is pi(g) as a dense matrix, from `l2_levels`, the
complex eigh of each level block of the dense L_2, so it shares no basis
with the package's real one; `classical_rotation` and
`classical_rotation_2d` the matrices by which <x> transforms under it,
`expm_hermitian_generator` the exponential of a dense generator, and
`identity_sum_sphere` a strong family's whole quadrature sum, and
`nearest_distance` the annihilator records' distances from the table of
every (entry, root) pair.  They cost O(dim^2) memory and up to O(dim^3)
time, so keep them to small truncations (lambda <= 12).
"""

from itertools import combinations

import numpy as np

from fuzzysphere import coherent
from fuzzysphere.lierep import _PAIRINGS, g_weight, squeeze_factor_circle
from fuzzysphere.linop import readonly
from fuzzysphere.report import Report
from fuzzysphere.sphere import EPS


def frobenius_residual(a, b) -> float:
    """Relative Frobenius distance ||a - b||_F / (1 + ||b||_F), the
    normalisation of shift.check_residuals."""
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))


def nearest_distance(diag, roots) -> np.ndarray:
    """The distance of each entry of diag from its nearest root, from the
    table of every (entry, root) pair."""
    return np.abs(np.asarray(diag)[:, None] - np.asarray(roots, dtype=float)).min(axis=1)


def dense(space, name: str) -> np.ndarray:
    """The read-only dense matrix of operator `name`, scattered from the
    term weights of a stored operator (a term_keys name) through the
    space's targets, or formed as L1 = (L_+ + L_+^dag)/2, L2 = (L_+ -
    L_+^dag)/2i, x1 = (x_+ + x_-)/2 or x2 = (x_+ - x_-)/2i.  The Madore
    sphere has no terms and keeps its matrices as fields."""
    if not hasattr(space, "terms"):
        return getattr(space, name)
    if name in ("L1", "L2", "x1", "x2"):
        plus = dense(space, name[0] + "_plus")
        minus = plus.conj().T if name[0] == "L" else dense(space, "x_minus")
        return readonly((plus + minus) / 2.0 if name[1] == "1"
                        else (plus - minus) / 2.0j)
    rows = [j for j, key in enumerate(space.term_keys) if key[0] == name]
    if not rows:
        raise KeyError(name)
    t = space.targets([space.term_keys[j][1:] for j in rows])
    w = space.terms[rows]
    nz = (w != 0.0) & (t < space.dim)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    np.add.at(out, (t[nz], np.nonzero(nz)[1]), w[nz])
    return readonly(out)


def x_ops(space) -> tuple:
    """The dense coordinates: (x1, x2) on the circle, (x1, x2, x3) else."""
    names = ("x1", "x2") if hasattr(space, "labels") else ("x1", "x2", "x3")
    return tuple(dense(space, n) for n in names)


def L_ops(space) -> tuple:
    """The dense angular momenta: (L,) on the circle, (L1, L2, L3) else."""
    if hasattr(space, "labels"):
        return (dense(space, "L"),)
    return tuple(dense(space, n) for n in ("L1", "L2", "L3"))


def expect(ops, v: np.ndarray) -> np.ndarray:
    """<A> of each column of the block v for each dense A in ops, one row
    per operator."""
    rows = np.ascontiguousarray(v.T)
    conj = rows.conj()
    return np.array([np.real(np.sum(conj * (rows @ a.T), axis=1)) for a in ops])


def expm_hermitian_generator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(i*t*h) for hermitian h, via eigendecomposition; exactly unitary
    up to rounding."""
    vals, vecs = np.linalg.eigh(h)
    phases = np.exp(1j * t * vals)
    return (vecs * phases) @ vecs.conj().T


def l2_levels(s) -> list:
    """(slice, eigenvalues, eigenvectors) of each level block of the dense
    L_2, by numpy's complex eigh: of the space's own L_2 basis only the
    level slices are read."""
    l2 = dense(s, "L2")
    return [(sl, *np.linalg.eigh(l2[sl, sl])) for sl, _, _ in s.l2_eigh]


def rotation_operator(s, g) -> np.ndarray:
    """pi(g) = exp(i phi L_3) exp(i theta L_2) exp(i psi L_3) as a dense
    matrix: the level blocks of the dense L_2 exponentiated (l2_levels),
    with the phases e^{i phi m} on the rows and e^{i psi m} on the
    columns."""
    u = np.zeros((s.dim, s.dim), dtype=complex)
    for sl, vals, vecs in l2_levels(s):
        u[sl, sl] = (vecs * np.exp(1j * g.theta * vals)) @ vecs.conj().T
    u *= np.exp(1j * g.phi * s.m_of)[:, None]
    u *= np.exp(1j * g.psi * s.m_of)
    return u


def classical_rotation(g) -> np.ndarray:
    """3x3 matrix by which <x> transforms under pi(g); its action on e_3
    gives the orbit direction u_g = (-sin t cos p, sin t sin p, cos t)."""
    cp, sp = np.cos(g.phi), np.sin(g.phi)
    ct, st = np.cos(g.theta), np.sin(g.theta)
    cs, ss = np.cos(g.psi), np.sin(g.psi)
    r3_phi = np.array([[cp, sp, 0.0], [-sp, cp, 0.0], [0.0, 0.0, 1.0]])
    r2_theta = np.array([[ct, 0.0, -st], [0.0, 1.0, 0.0], [st, 0.0, ct]])
    r3_psi = np.array([[cs, ss, 0.0], [-ss, cs, 0.0], [0.0, 0.0, 1.0]])
    return r3_phi @ r2_theta @ r3_psi


def classical_rotation_2d(alpha: float) -> np.ndarray:
    """2x2 matrix by which <x> transforms under exp(i alpha L)."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    return np.array([[ca, sa], [-sa, ca]])


def by_levels(eigs, g: np.ndarray, inverse: bool = False) -> np.ndarray:
    """V^dag g V, or V g V^dag if inverse, with V the block-diagonal
    eigenvectors of L_2 in eigs (l2_levels), applied per level."""
    out = np.array(g, dtype=complex)
    for sl, _, vecs in eigs:
        a = vecs if inverse else vecs.conj().T
        out[sl] = a @ out[sl]
        out[:, sl] = out[:, sl] @ a.conj().T
    return out


def weave(labels, angles, weights=1.0) -> np.ndarray:
    """K = (B w) B^dag with B[i, t] = e^{i angles_t labels_i}: the entrywise
    factor for which sum_t w_t D_t G D_t^dag = K * G, D_t = diag(e^{i
    angles_t labels}), for every G."""
    b = np.exp(1j * np.outer(labels, angles))
    return (b * weights) @ b.conj().T


def identity_sum_sphere(s, family: str, omega=None, beta=None) -> np.ndarray:
    """The quadrature sum of one strong family's weighted projectors as one
    dense matrix, norm * W * (V (K_polar * (V^dag G_0 V)) V^dag), with W and
    K_polar the dense weaves of m, summed over the actual angles 2 pi t / n,
    and of the unrounded L_2 eigenvalues nu, V and nu from l2_levels: G_0
    is diagonal 2l+1 at psi_l^l (spin), v v^dag for the phi seed v (phi),
    or the psi sum W * omega omega^dag (omega).  The azimuthal size n and
    the polar rule are read from the package at call time: tests patch
    them."""
    lam = s.lam
    n_az = coherent._azimuthal_size(lam)
    az = weave(s.m_of, coherent.TWO_PI * np.arange(n_az) / n_az)
    if family == "spin":
        gram = np.diag(np.where(s.l_of == s.m_of, 2.0 * s.l_of + 1.0, 0.0))
        norm = coherent.TWO_PI / n_az / (4.0 * np.pi)
    elif family == "omega":
        gram = az * np.outer(omega, np.conj(omega))
        norm = (lam + 1) ** 2 * (coherent.TWO_PI / n_az) ** 2 / (8.0 * np.pi ** 2)
    else:
        v = coherent._phi_seed(s, np.zeros(lam + 1) if beta is None else beta)
        gram = np.outer(v, v.conj())
        norm = (lam + 1) ** 2 * (coherent.TWO_PI / n_az) / (4.0 * np.pi)
    eigs = l2_levels(s)
    thetas, w_th = coherent._polar_nodes(lam)
    nu = np.concatenate([vals for _, vals, _ in eigs])
    polar = weave(nu, thetas, w_th) * by_levels(eigs, gram)
    return norm * (az * by_levels(eigs, polar, inverse=True))


def verify_circle_relations(c, tol: float = 1e-10) -> Report:
    """Residuals of the circle's defining relations; pass iff all are <=
    tol."""
    rep = Report()
    lam, k, dim = c.lam, c.k, c.dim
    L, xp, xm = (dense(c, n) for n in ("L", "x_plus", "x_minus"))

    rep.add_residual("commrelD=2'/[L,x+]", frobenius_residual(L @ xp - xp @ L, xp),
                     tol, lam=lam)
    rep.add_residual("commrelD=2'/[L,x-]", frobenius_residual(L @ xm - xm @ L, -xm),
                     tol, lam=lam)
    rep.add_residual("commrelD=2'/adjoint", frobenius_residual(xp.conj().T, xm),
                     tol, lam=lam)
    rep.add_residual("commrelD=2'/L-herm", frobenius_residual(L.conj().T, L),
                     tol, lam=lam)

    edge = 1.0 + lam * (lam + 1) / k
    p_top = np.diag(c.labels == lam).astype(float)
    p_bot = np.diag(c.labels == -lam).astype(float)
    rhs_comm = -2.0 * L / k + edge * (p_top - p_bot)
    rep.add_residual("y+y-", frobenius_residual(xp @ xm - xm @ xp, rhs_comm),
                     tol, lam=lam)
    sq = (xp @ xm + xm @ xp) / 2.0
    rep.add_residual("defR2D=2", frobenius_residual(sq, dense(c, "x_squared")),
                     tol, lam=lam)

    dist = nearest_distance(np.real(np.diag(L)), np.arange(-lam, lam + 1))
    rep.add_residual("commrelD=2/L-poly", float(np.max(dist)), tol, lam=lam)
    nil = np.linalg.matrix_power(xp, dim)
    rep.add_residual("commrelD=2/nilpotent", frobenius_residual(nil, np.zeros_like(nil)),
                     tol, lam=lam)
    return rep


def verify_su2_reconstruction(c, tol: float = 1e-10) -> Report:
    """Cartan-Weyl relations, scalar Casimir and squeeze round-trip, with
    E_+ and E_- reconstructed row by row from the dense x_+ and x_-."""
    rep = Report()
    lam, k = c.lam, c.k
    w = np.sqrt(2.0) * squeeze_factor_circle(c.labels[:-1], lam, k)
    w_minus = np.sqrt(2.0) * squeeze_factor_circle(c.labels[1:] + 1, lam, k)
    x_plus = dense(c, "x_plus")
    ep, em = np.array(x_plus), np.array(dense(c, "x_minus"))
    ep[:-1] /= w[:, None]
    em[1:] /= w_minus[:, None]
    e0 = dense(c, "L")
    eye = np.eye(c.dim)

    rep.add_residual("su2rel/[E+,E-]", frobenius_residual(ep @ em - em @ ep, e0),
                     tol, lam=lam)
    rep.add_residual("su2rel/[E0,E+]", frobenius_residual(e0 @ ep - ep @ e0, ep),
                     tol, lam=lam)
    rep.add_residual("su2rel/[E0,E-]", frobenius_residual(e0 @ em - em @ e0, -em),
                     tol, lam=lam)
    rep.add_residual("su2rel/adjoint", frobenius_residual(ep.conj().T, em),
                     tol, lam=lam)
    cas = ep @ em + e0 @ e0 + em @ ep
    rep.add_residual("isomD2/casimir",
                     frobenius_residual(cas, lam * (lam + 1) * eye), tol, lam=lam)

    # forward squeeze re-applied to the reconstructed ladder
    xp_back = np.array(ep)
    xp_back[:-1] *= w[:, None]
    rep.add_residual("transfD2/roundtrip", frobenius_residual(xp_back, x_plus),
                     tol, lam=lam)
    keep = np.abs(c.labels) != lam
    off_edge = np.outer(keep, keep)             # P X P with P = 1 - P_lam - P_-lam
    rep.add_residual("transfD2/roundtrip-offedge",
                     frobenius_residual(xp_back * off_edge, x_plus * off_edge),
                     tol, lam=lam)
    return rep


def verify_sphere_relations(s, tol: float = 1e-10) -> Report:
    """Residuals of the defining relations; pass iff all are <= tol."""
    rep = Report()
    lam, k = s.lam, s.k
    x = list(x_ops(s))
    L = list(L_ops(s))
    x_plus, x_minus, l2 = (dense(s, n) for n in ("x_plus", "x_minus", "l2"))
    dim = s.dim

    r = max(frobenius_residual(m.conj().T, m) for m in x + L)
    rep.add_residual("rf3D4/hermitean", r, tol, lam=lam)

    def eps_sum(ops, i, j):
        out = np.zeros((dim, dim), dtype=complex)
        for h in range(3):
            if EPS[i, j, h] != 0.0:
                out += EPS[i, j, h] * ops[h]
        return out

    # [L_i, x_j] is not antisymmetric in (i, j), so all 9 pairs are tested;
    # the antisymmetric brackets below vanish at i = j and negate exactly
    # under (i, j) -> (j, i), so the 3 pairs i < j give every residual
    pairs = [(0, 1), (0, 2), (1, 2)]
    r_lx = max(frobenius_residual(L[i] @ x[j] - x[j] @ L[i], 1j * eps_sum(x, i, j))
               for i in range(3) for j in range(3))
    rep.add_residual("rf3D4/[L,x]", r_lx, tol, lam=lam)
    r_ll = max(frobenius_residual(L[i] @ L[j] - L[j] @ L[i], 1j * eps_sum(L, i, j))
               for i, j in pairs)
    rep.add_residual("rf3D4/[L,L]", r_ll, tol, lam=lam)
    xdotl = sum(x[i] @ L[i] for i in range(3))
    rep.add_residual("rf3D4/x.L", frobenius_residual(xdotl, np.zeros_like(xdotl)),
                     tol, lam=lam)

    # coordinate bracket; the correction factor -1/k + K P_lam is diagonal
    # and commutes with every L_h, so the symmetrized form is tested and the
    # two orderings are compared
    K = 1.0 / k + (1.0 + lam * lam / k) / (2 * lam + 1)
    top = (s.l_of == lam).astype(float)
    f = -1.0 / k + K * top
    r_xx, r_ord = 0.0, 0.0
    for i, j in pairs:
        lh = eps_sum(L, i, j)
        lh_f, f_lh = lh * f, f[:, None] * lh
        sym = 1j * (lh_f + f_lh) / 2.0
        r_xx = max(r_xx, frobenius_residual(x[i] @ x[j] - x[j] @ x[i], sym))
        r_ord = max(r_ord, frobenius_residual(lh_f, f_lh))
    rep.add_residual("xx/bracket", r_xx, tol, lam=lam)
    rep.add_residual("xx/bracket-ordering", r_ord, tol, lam=lam)

    # x_squared is built in closed form, so the sum of squares is formed here
    sq = x[2] @ x[2] + (x_plus @ x_minus + x_minus @ x_plus) / 2.0
    rep.add_residual("xx/r2", frobenius_residual(sq, dense(s, "x_squared")),
                     tol, lam=lam)

    lsq = sum(L[i] @ L[i] for i in range(3))
    rep.add_residual("D=3Basis/L2", frobenius_residual(lsq, l2), tol, lam=lam)

    # both annihilator polynomials act on diagonal operators, so each
    # record is the largest distance of a diagonal entry from its nearest
    # allowed eigenvalue, level by level for L_3
    dist = nearest_distance(np.real(np.diag(l2)),
                            [l * (l + 1) for l in range(lam + 1)])
    rep.add_residual("rf3D3/L2-poly", float(np.max(dist)), tol, lam=lam)
    d_l3 = np.real(np.diag(L[2]))
    worst = max(float(np.max(nearest_distance(d_l3[s.l_of == l], range(-l, l + 1))))
                for l in range(lam + 1))
    rep.add_residual("rf3D3/L3-poly", worst, tol, lam=lam)

    nil_p = np.linalg.matrix_power(x_plus, 2 * lam + 1)
    nil_m = np.linalg.matrix_power(x_minus, 2 * lam + 1)
    rep.add_residual("rf3D3/nilpotent",
                     max(frobenius_residual(nil_p, np.zeros_like(nil_p)),
                         frobenius_residual(nil_m, np.zeros_like(nil_m))),
                     tol, lam=lam)
    return rep


def so4_parts(s):
    """Invert x_i = g(lambda) Lhat_{4i} g(lambda); returns the generators
    Lhat_{HI} (H < I), their full antisymmetric table and the matrices of
    both Casimirs, sum Lhat_{HI}^2 and eps_{HIJK} Lhat_{HI} Lhat_{JK}, and
    the dressing weight g(l) of every basis vector."""
    g = np.array([g_weight(l, s.lam, s.k) for l in range(s.lam + 1)])[s.l_of]
    dress = np.outer(1.0 / g, 1.0 / g)

    L1, L2, L3 = L_ops(s)
    gens = {(1, 2): L3, (1, 3): readonly(-L2), (2, 3): L1}
    for i, xi in enumerate(x_ops(s), start=1):
        gens[(i, 4)] = readonly(-dress * xi)

    full = {}
    for (h, i), op in gens.items():
        full[(h, i)] = op
        full[(i, h)] = -op
    for h in range(1, 5):
        full[(h, h)] = np.zeros((s.dim, s.dim), dtype=complex)
    cas = np.zeros((s.dim, s.dim), dtype=complex)
    for op in gens.values():
        cas += op @ op
    cas_prime = np.zeros((s.dim, s.dim), dtype=complex)
    for a, b, sign in _PAIRINGS:
        cas_prime += 4.0 * sign * (full[a] @ full[b] + full[b] @ full[a])
    return gens, full, cas, cas_prime, g


def verify_so4_reconstruction(s, tol: float = 1e-9) -> Report:
    """so(4) bracket table, hermiticity, both Casimirs and the dressing
    round-trip."""
    rep = Report()
    lam = s.lam
    gens, full, cas, cas_prime, g = so4_parts(s)
    eye = np.eye(s.dim)

    r_herm = max(frobenius_residual(op.conj().T, op) for op in gens.values())
    rep.add_residual("so4rel/hermitean", r_herm, tol, lam=lam)

    # [A, B] = -[B, A] on both sides and [A, A] = 0, so the 15 unordered
    # pairs of distinct generators cover the whole table
    r_br = 0.0
    for (h, i), (j, kk) in combinations(gens, 2):
        lhs = full[(h, i)] @ full[(j, kk)] - full[(j, kk)] @ full[(h, i)]
        rhs = 1j * ((h == j) * full[(i, kk)] - (h == kk) * full[(i, j)]
                    - (i == j) * full[(h, kk)] + (i == kk) * full[(h, j)])
        r_br = max(r_br, frobenius_residual(lhs, rhs))
    rep.add_residual("so4rel/brackets", r_br, tol, lam=lam)

    rep.add_residual("isomD3/casimir",
                     frobenius_residual(cas, lam * (lam + 2) * eye), tol, lam=lam)
    rep.add_residual("isomD3/casimir-prime", float(np.linalg.norm(cas_prime)),
                     tol, lam=lam)

    dress = np.outer(g, g)
    r_rt, r_rt_off = 0.0, 0.0
    keep = s.l_of != lam
    off_edge = np.outer(keep, keep)             # P X P with P = 1 - P_lam
    for i, xi in enumerate(x_ops(s), start=1):
        x_back = dress * (-full[(i, 4)])        # g(l') Lhat_{4i} g(l)
        r_rt = max(r_rt, frobenius_residual(x_back, xi))
        r_rt_off = max(r_rt_off, frobenius_residual(x_back * off_edge,
                                                    xi * off_edge))
    rep.add_residual("transfD3/roundtrip", r_rt, tol, lam=lam)
    rep.add_residual("transfD3/roundtrip-offedge", r_rt_off, tol, lam=lam)
    return rep
