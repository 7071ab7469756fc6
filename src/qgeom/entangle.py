"""Expectation-value optimization over separable, PPT, and Schmidt-rank-2
states; separable/PPT numerical ranges; the maximum-clique hardness matrix.

Product maxima are NP-hard in general, so the see-saw values are certified
lower bounds only; rigorous upper bounds exist on the qubit-qudit path,
where the problem projects onto a convex function over a 4-dimensional
joint numerical range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection, QhullError

from .core import (
    PAULI,
    as_hermitian,
    check_dims,
    expectation,
    partial_trace,
    partial_transpose,
    tensor,
)
from .numrange import ConvexBodyApprox, jnr_approximate, sphere_directions, support_batch, unit


@dataclass
class ProductAnsatz:
    """One unit vector per tensor factor."""

    factors: tuple

    def __post_init__(self):
        fs = tuple(np.asarray(f, dtype=complex) for f in self.factors)
        for f in fs:
            if abs(np.linalg.norm(f) - 1.0) > 1e-12:
                raise ValueError("ansatz factors must be unit vectors")
        object.__setattr__(self, "factors", fs)

    def vector(self):
        v = self.factors[0]
        for f in self.factors[1:]:
            v = np.kron(v, f)
        return v

    def expectation(self, h):
        v = self.vector()
        return float(np.real(v.conj() @ h @ v))


@dataclass
class SepBounds:
    """Bracket for the maximum expectation value over separable states."""

    lower: float
    upper: float | None
    witness: ProductAnsatz
    meta: dict = field(default_factory=dict)


def _reduced_operator(ht, dims, factors, k):
    """<others| H |others>: the effective operator on factor k."""
    n = len(dims)
    m = ht
    # bra axes then ket axes of the remaining factors, None once contracted
    bra = list(range(n))
    ket = list(range(n, 2 * n))

    def drop(ax):
        nonlocal bra, ket
        bra = [None if b is None else (b - 1 if b > ax else b) for b in bra]
        ket = [None if q is None else (q - 1 if q > ax else q) for q in ket]

    for i in range(n):
        if i == k:
            continue
        f = factors[i]
        ax_b = bra[i]
        m = np.tensordot(f.conj(), m, axes=([0], [ax_b]))
        bra[i] = None
        drop(ax_b)
        ax_k = ket[i]
        m = np.tensordot(f, m, axes=([0], [ax_k]))
        ket[i] = None
        drop(ax_k)
    # remaining two axes are (bra_k, ket_k) in some order
    if bra[k] > ket[k]:
        m = m.T
    return m


def seesaw_product_max(h, dims, restarts=32, seed=0, tol=1e-10, max_sweeps=500):
    """Alternating top-eigenvector ascent over pure product states.

    Monotone per sweep (each factor update is an exact maximization with
    the others fixed); the best value over seeded restarts is a certified
    lower bound for the separable maximum.
    """
    h = as_hermitian(h)
    dims = check_dims(dims, h.shape[0])
    ht = h.reshape(dims + dims)
    rng = np.random.default_rng(seed)
    best_val, best_factors = -np.inf, None
    for _ in range(restarts):
        factors = []
        for d in dims:
            f = rng.normal(size=d) + 1j * rng.normal(size=d)
            factors.append(f / np.linalg.norm(f))
        prev = -np.inf
        val = prev
        for _ in range(max_sweeps):
            for k in range(len(dims)):
                red = _reduced_operator(ht, dims, factors, k)
                w, v = np.linalg.eigh((red + red.conj().T) / 2)
                factors[k] = v[:, -1]
                val = float(w[-1])
            if val - prev < tol:
                break
            prev = val
        if val > best_val:
            best_val, best_factors = val, [f.copy() for f in factors]
    witness = ProductAnsatz(tuple(best_factors))
    return SepBounds(
        lower=float(best_val),
        upper=None,
        witness=witness,
        meta={"restarts": restarts, "seed": seed},
    )


# ---------------------------------------------------------------------------
# qubit-qudit path: rigorous two-sided bounds


def _pauli_reductions(h, dims):
    """H_i = Tr_A[H (sigma_i (x) 1)], i = 0..3, acting on the qudit factor."""
    d = dims[1]
    hs = []
    for s in (PAULI["i"], PAULI["x"], PAULI["y"], PAULI["z"]):
        hs.append(partial_trace(h @ tensor(s, np.eye(d)), dims, 0))
    return [as_hermitian(x, tol=1e-9) for x in hs]


def _qubit_value(point):
    """Convex objective (p0 + |p_vec|)/2 over W(H_0, H_1, H_2, H_3)."""
    p = np.asarray(point, dtype=float)
    return 0.5 * (p[0] + np.linalg.norm(p[1:]))


def _affine_hull(points, tol=1e-8):
    """(center, k x r basis); prefers canonical axes when the hull is axis-aligned.

    Axis alignment keeps H_0-proportional-to-identity instances reducible
    to a plain sweep of W(H_1, H_2, H_3) in original coordinates.
    """
    c = points.mean(axis=0)
    centered = points - c
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    scale = max(s[0], 1.0)
    rank = int((s > tol * scale).sum())
    basis = vt[:rank].T
    k = points.shape[1]
    proj = basis @ basis.T
    aligned = [i for i in range(k) if np.linalg.norm(proj @ np.eye(k)[i] - np.eye(k)[i]) < 1e-9]
    if len(aligned) == rank:
        basis = np.eye(k)[:, aligned]
    return c, basis


def _polytope_vertices(normals, offsets):
    """Vertices of {p : N p <= c} via a Chebyshev center and qhull."""
    r = normals.shape[1]
    if r == 1:
        lo = -min(o / -n[0] for n, o in zip(normals, offsets) if n[0] < 0)
        hi = min(o / n[0] for n, o in zip(normals, offsets) if n[0] > 0)
        return np.array([[lo], [hi]])
    # Chebyshev center: max radius s.t. N p + r ||N_i|| <= c
    norms = np.linalg.norm(normals, axis=1)
    res = linprog(
        c=np.concatenate([np.zeros(r), [-1.0]]),
        A_ub=np.column_stack([normals, norms]),
        b_ub=offsets,
        bounds=[(None, None)] * r + [(0, None)],
        method="highs",
    )
    if not res.success or res.x[-1] <= 1e-12:
        raise QhullError("no interior point for halfspace intersection")
    interior = res.x[:r]
    hs = np.column_stack([normals, -offsets])
    inter = HalfspaceIntersection(hs, interior)
    return inter.intersections


def qubit_qudit_sep_max(h, dims, directions=400, seed=0):
    """Two-sided bounds for the separable maximum on a (2, d) system.

    Restricts to the affine hull of the sampled range of the four Pauli
    reductions, encloses it in sampled half-spaces, and maximizes the
    convex objective over the outer polytope's vertices (upper bound) and
    over the inner support points (attainable lower bound, with a product
    witness).
    """
    h = as_hermitian(h)
    dims = check_dims(dims, h.shape[0])
    if dims[0] != 2:
        raise ValueError(f"first local dimension must be 2, got {dims[0]}")
    hs = _pauli_reductions(h, dims)

    probe_samples = support_batch(hs, sphere_directions(4, 160, seed=seed))
    pts = np.array([s.point for s in probe_samples])
    center, basis = _affine_hull(pts)
    r = basis.shape[1]

    if r == 0:
        # single point: product value is exact
        val = _qubit_value(center)
        witness = _witness_from_qudit_state(h, dims, probe_samples[0].witness)
        return SepBounds(val, val, witness, meta={"hull_dim": 0, "method": "point"})

    dirs_r = sphere_directions(r, directions, seed=seed + 1)
    full = np.array([basis @ nr for nr in dirs_r])
    norms = np.array([np.linalg.norm(n) for n in full])
    keep = norms >= 1e-14
    normals_r, full, norms = dirs_r[keep], full[keep], norms[keep]
    samples = support_batch(hs, full / norms[:, None])
    # exact support offset in reduced coordinates: h_W(B n) - (B n).center
    offsets_r = np.array([nn * s.value - n @ center for s, n, nn in zip(samples, full, norms)])
    inner_pts = np.array([s.point for s in samples])

    lower_idx = int(np.argmax([_qubit_value(p) for p in inner_pts]))
    lower = _qubit_value(inner_pts[lower_idx])
    witness = _witness_from_qudit_state(h, dims, samples[lower_idx].witness)

    meta = {"hull_dim": r, "method": "halfspace-vertices"}
    try:
        verts_r = _polytope_vertices(normals_r, offsets_r)
        verts = center + verts_r @ basis.T
        upper = max(_qubit_value(p) for p in verts)
    except (QhullError, ValueError):
        # Lipschitz-padded sweep of lambda_max((H0 + u.H)/2) over the 2-sphere:
        # the support of W(H0, ..., H3) along (1, u) scaled by |(1, u)| / 2
        us = sphere_directions(3, max(directions * 4, 1200))
        ones_u = np.column_stack([np.ones(len(us)), us])
        scaled = [0.5 * np.linalg.norm(n) * s.value for n, s in zip(ones_u, support_batch(hs, ones_u))]
        lip = 0.5 * np.sqrt(sum(np.linalg.norm(x, 2) ** 2 for x in hs[1:]))
        mesh = _covering_radius_estimate(us)
        upper = max(scaled) + lip * mesh
        meta["method"] = "lipschitz-sweep"
    upper = max(upper, lower)
    return SepBounds(float(lower), float(upper), witness, meta=meta)


def _covering_radius_estimate(points):
    probe = sphere_directions(3, 4 * len(points), seed=99)
    d = probe @ points.T
    cos_near = d.max(axis=1)
    return float(np.arccos(np.clip(cos_near.min(), -1, 1)))


def _witness_from_qudit_state(h, dims, beta):
    """Lift an optimal qudit state to the product witness (alpha, beta)."""
    d = dims[1]
    beta = np.asarray(beta, dtype=complex)
    hb = partial_trace(h @ tensor(np.eye(2), np.outer(beta, beta.conj())), dims, 1)
    _, v = np.linalg.eigh(as_hermitian(hb, tol=1e-9))
    return ProductAnsatz((v[:, -1], beta))


def sep_numerical_range(ops, dims, directions, restarts=8, seed=0, inner_directions=120):
    """Separable numerical range by per-direction product maximization.

    Qubit-qudit systems get rigorous outer half-spaces; other splits fall
    back to see-saw values and the outer description is flagged heuristic.
    """
    ops = [as_hermitian(x) for x in ops]
    dims = check_dims(dims, ops[0].shape[0])
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if len(dims) == 1:
        body = jnr_approximate(ops, directions)
        body.meta["outer_rigorous"] = True
        return body
    rigorous = len(dims) == 2 and dims[0] == 2
    inner, normals, offsets = [], [], []
    for n in directions:
        n = unit(n)
        hn = sum(ni * xi for ni, xi in zip(n, ops))
        if rigorous:
            b = qubit_qudit_sep_max(hn, dims, directions=inner_directions, seed=seed)
            val, wit = b.upper, b.witness
        else:
            b = seesaw_product_max(hn, dims, restarts=restarts, seed=seed)
            val, wit = b.lower, b.witness
        state = np.outer(wit.vector(), wit.vector().conj())
        inner.append([expectation(x, state) for x in ops])
        normals.append(n)
        offsets.append(val)
    inner = np.array(inner)
    normals = np.array(normals)
    offsets = np.array(offsets)
    if not rigorous:
        # heuristic offsets may undercut witnesses found for other
        # directions; lift them so inner stays inside outer
        offsets = np.maximum(offsets, (normals @ inner.T).max(axis=1))
    body = ConvexBodyApprox(
        inner_vertices=inner,
        outer_normals=normals,
        outer_offsets=offsets,
        meta={"outer_rigorous": rigorous},
    )
    return body


# ---------------------------------------------------------------------------
# PPT maximization: projected ascent with Dykstra feasibility projections


def _project_state(m):
    """Frobenius projection onto {rho >= 0, Tr rho = 1} (eigenvalue simplex)."""
    m = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(m)
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(u) + 1)
    k = ks[u - (css - 1) / ks > 0][-1]
    tau = (css[k - 1] - 1) / k
    lam = np.maximum(w - tau, 0)
    return (v * lam) @ v.conj().T


def _project_ppt_cone(m, dims):
    """Projection onto {rho : rho^TA >= 0}; TA is a Frobenius isometry."""
    m = (m + m.conj().T) / 2
    t = partial_transpose(m, dims, 0)
    w, v = np.linalg.eigh(t)
    t2 = (v * np.maximum(w, 0)) @ v.conj().T
    return partial_transpose(t2, dims, 0)


def dykstra_ppt_state(m, dims, tol=1e-12, max_iter=400):
    """Dykstra alternating projections onto state set and PPT cone."""
    x = np.asarray(m, dtype=complex)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(max_iter):
        y = _project_state(x + p)
        p = x + p - y
        x_new = _project_ppt_cone(y + q, dims)
        q = y + q - x_new
        if np.linalg.norm(x_new - x) < tol * max(1.0, np.linalg.norm(x)):
            return x_new
        x = x_new
    return x


@dataclass
class PPTMaxResult:
    value: float
    state: np.ndarray
    converged: bool
    iterations: int


def ppt_max(h, dims, tol=1e-9, max_outer=4000, stall_limit=25):
    """Maximize Tr(rho H) over PPT states by projected gradient ascent.

    Each step projects rho + eta*H back onto the (convex) PPT state set
    with Dykstra; eta shrinks on stalls.  The final iterate is checked
    (eigenvalues of rho and rho^TA above -1e-8, |Tr rho - 1| <= 1e-8) and
    RuntimeError is raised otherwise, so a returned value is a certified
    lower bound that converges to the PPT maximum of this convex program.
    """
    h = as_hermitian(h)
    dims = check_dims(dims, h.shape[0])
    if len(dims) != 2:
        raise ValueError("ppt_max requires a bipartite dimension split")
    d = h.shape[0]
    rho = dykstra_ppt_state(np.eye(d, dtype=complex) / d, dims)
    val = expectation(h, rho)
    eta = 1.0 / max(np.linalg.norm(h, 2), 1e-12)
    stall = 0
    it = 0
    for it in range(1, max_outer + 1):
        cand = dykstra_ppt_state(rho + eta * h, dims)
        v2 = expectation(h, cand)
        if v2 > val + tol:
            rho, val = cand, v2
            stall = 0
        else:
            eta *= 0.7
            stall += 1
            if stall > stall_limit:
                break
    converged = stall > stall_limit
    w_rho = np.linalg.eigvalsh(rho)
    w_ppt = np.linalg.eigvalsh(partial_transpose(rho, dims, 0))
    trace = np.trace(rho).real
    if w_rho[0] < -1e-8 or w_ppt[0] < -1e-8 or abs(trace - 1) > 1e-8:
        raise RuntimeError(f"Dykstra returned an infeasible iterate (trace {trace:.12g})")
    return PPTMaxResult(value=float(val), state=rho, converged=converged, iterations=it)


def ppt_numerical_range(ops, dims, directions, tol=1e-8):
    """PPT numerical range by per-direction PPT maximization."""
    ops = [as_hermitian(x) for x in ops]
    dims = check_dims(dims, ops[0].shape[0])
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    inner, normals, offsets = [], [], []
    all_converged = True
    for n in directions:
        n = unit(n)
        hn = sum(ni * xi for ni, xi in zip(n, ops))
        res = ppt_max(hn, dims, tol=tol)
        all_converged &= res.converged
        inner.append([expectation(x, res.state) for x in ops])
        normals.append(n)
        offsets.append(res.value)
    inner = np.array(inner)
    normals = np.array(normals)
    offsets = np.maximum(np.array(offsets), (normals @ inner.T).max(axis=1))
    return ConvexBodyApprox(
        inner_vertices=inner,
        outer_normals=normals,
        outer_offsets=offsets,
        meta={"outer_rigorous": False, "converged": all_converged},
    )


def gellmann_basis(d):
    """Orthonormal (HS) traceless Hermitian basis of su(d), d^2 - 1 matrices."""
    basis = []
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1 / np.sqrt(2)
            basis.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j / np.sqrt(2)
            m[j, i] = 1j / np.sqrt(2)
            basis.append(m)
    for k in range(1, d):
        diag = np.zeros(d)
        diag[:k] = 1.0
        diag[k] = -k
        diag /= np.sqrt(k * (k + 1))
        basis.append(np.diag(diag).astype(complex))
    return basis


def ppt_dual_generators(dims):
    """G~_i = -(mn) (G_i (+) G_i^TA): the PPT set is polar to W(G~_1, ...)."""
    m, n = dims
    d = m * n
    gens = []
    for g in gellmann_basis(d):
        gt = partial_transpose(g, dims, 0)
        block = np.zeros((2 * d, 2 * d), dtype=complex)
        block[:d, :d] = -d * g
        block[d:, d:] = -d * gt
        gens.append(block)
    return gens


def ppt_duality_check(dims, samples=60, seed=0, tol=1e-7):
    """Sampled polar-duality test: rho is PPT iff lambda_max(sum x_i G~_i) <= 1.

    Parameters x_i = Tr(rho G_i) place rho in the traceless coordinate
    system; the report counts agreements between the direct PPT test and
    the polar membership over random mixed states.
    """
    dims = tuple(int(x) for x in dims)
    d = int(np.prod(dims))
    basis = gellmann_basis(d)
    gens = ppt_dual_generators(dims)
    rng = np.random.default_rng(seed)
    agree = 0
    results = []
    for _ in range(samples):
        rank = int(rng.integers(1, d + 1))
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        is_ppt = bool(np.linalg.eigvalsh(partial_transpose(rho, dims, 0))[0] >= -1e-10)
        x = np.array([expectation(b, rho) for b in basis])
        m = sum(xi * gi for xi, gi in zip(x, gens))
        in_polar = bool(np.linalg.eigvalsh(m)[-1] <= 1 + tol)
        ok = is_ppt == in_polar
        agree += ok
        results.append((is_ppt, in_polar))
    return {"agree": agree, "total": samples, "results": results}


def is_ppt_by_duality(rho, dims, tol=1e-8):
    """Polar-membership PPT test for a single state (spectrahedron duality route)."""
    d = rho.shape[0]
    basis = gellmann_basis(d)
    gens = ppt_dual_generators(dims)
    x = np.array([expectation(b, rho) for b in basis])
    m = sum(xi * gi for xi, gi in zip(x, gens))
    return bool(np.linalg.eigvalsh(m)[-1] <= 1 + tol)


# ---------------------------------------------------------------------------
# Schmidt-rank-2 maximization


def _two_level_top(h, psi, phi):
    """Top eigenvalue/vector of H restricted to span{psi, phi}."""
    hpp = np.real(psi.conj() @ h @ psi)
    hqq = np.real(phi.conj() @ h @ phi)
    hpq = psi.conj() @ h @ phi
    m = np.array([[hpp, hpq], [np.conj(hpq), hqq]])
    w, v = np.linalg.eigh(m)
    return float(w[-1]), v[:, -1]


def _sphere_quadratic_max(b, c):
    """Maximize a^dag B a + 2 Re(a^dag c) over unit vectors a.

    Secular equation of the trust-region subproblem: a = (mu - B)^{-1} c
    with mu >= lambda_max(B) chosen so ||a|| = 1; the degenerate "hard
    case" (c orthogonal to the top eigenspace with interior solution) adds
    a top-eigenvector component instead.
    """
    b = (b + b.conj().T) / 2
    w, v = np.linalg.eigh(b)
    cb = v.conj().T @ np.asarray(c, dtype=complex)
    if np.linalg.norm(cb) < 1e-15:
        return v[:, -1]
    top = w[-1]
    top_mask = w > top - 1e-12 * max(abs(top), 1.0)
    if np.linalg.norm(cb[top_mask]) < 1e-12 * np.linalg.norm(cb):
        rest = ~top_mask
        a_rest = np.zeros_like(cb)
        a_rest[rest] = cb[rest] / (top - w[rest])
        nr = np.linalg.norm(a_rest)
        if nr <= 1.0:
            a_rest[np.argmax(top_mask)] = np.sqrt(max(1.0 - nr**2, 0.0))
            a = v @ a_rest
            return a / np.linalg.norm(a)

    def norm_at(mu):
        return np.linalg.norm(cb / (mu - w))

    lo = top + 1e-14 * max(abs(top), 1.0)
    hi = top + max(1.0, 2 * np.linalg.norm(cb))
    while norm_at(hi) > 1.0:
        hi = top + 2 * (hi - top)
    for _ in range(200):
        mid = (lo + hi) / 2
        if norm_at(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(abs(hi), 1.0):
            break
    a = v @ (cb / (hi - w))
    return a / np.linalg.norm(a)


@dataclass
class Schmidt2Result:
    value: float
    pair: tuple  # (ProductAnsatz psi, ProductAnsatz phi), orthogonal
    mixing_angle: float
    chi: float


def schmidt2_max(h, dims, restarts=16, seed=0, sweeps=200, tol=1e-11):
    """Heuristic maximum of <H> over Schmidt-rank-2 pure states.

    Optimizes the top eigenvalue of H restricted to span{|a1 b1>, |a2 b2>}
    with <a1|a2> = 0 or <b1|b2> = 0 enforced per branch; factor updates are
    exact sphere-constrained quadratic maximizations, so sweeps are
    monotone.  The doubled-space swap functional chi is evaluated at the
    optimum and must agree with the two-level eigenvalue.
    """
    h = as_hermitian(h)
    dims = check_dims(dims, h.shape[0])
    if len(dims) != 2:
        raise ValueError("schmidt2_max requires a bipartite split")
    da, db = dims
    ht = h.reshape(dims + dims)
    rng = np.random.default_rng(seed)
    best = None
    for start in range(restarts):
        branch = ("A", "B")[start % 2] if min(da, db) > 1 else ("A" if da > 1 else "B")
        vecs = []
        for d in (da, db, da, db):
            f = rng.normal(size=d) + 1j * rng.normal(size=d)
            vecs.append(f / np.linalg.norm(f))
        a1, b1, a2, b2 = vecs
        if branch == "A":
            a2 = _orthogonalize(a2, a1)
        else:
            b2 = _orthogonalize(b2, b1)
        prev = -np.inf
        lam, c = -np.inf, np.array([1.0, 0.0])
        for _ in range(sweeps):
            for which in range(4):
                lam, c = _two_level_top(h, np.kron(a1, b1), np.kron(a2, b2))
                new = _update_factor(ht, dims, (a1, b1, a2, b2), which, c, branch)
                if which == 0:
                    a1 = new
                elif which == 1:
                    b1 = new
                elif which == 2:
                    a2 = new
                else:
                    b2 = new
            lam, c = _two_level_top(h, np.kron(a1, b1), np.kron(a2, b2))
            if lam - prev < tol:
                break
            prev = lam
        if best is None or lam > best[0]:
            best = (lam, (a1, b1, a2, b2), c, branch)
    lam, (a1, b1, a2, b2), c, branch = best
    psi_v = np.kron(a1, b1)
    phi_v = np.kron(a2, b2)
    # doubled-space swap functional at the found point: chi recovers the
    # two-level eigenvalue through <psi x phi|(H x H) SWAP|psi x phi>
    #   = |<psi|H|phi>|^2, entering under the root with a factor 4
    e_psi = float(np.real(psi_v.conj() @ h @ psi_v))
    e_phi = float(np.real(phi_v.conj() @ h @ phi_v))
    swap_term = abs(psi_v.conj() @ h @ phi_v) ** 2
    chi = 0.5 * (e_psi + e_phi + np.sqrt(4 * swap_term + (e_psi - e_phi) ** 2))
    if abs(chi - lam) > 1e-8 * max(1.0, abs(lam)):
        raise RuntimeError(f"chi functional {chi} disagrees with two-level value {lam}")
    angle = float(np.arctan2(abs(c[1]), abs(c[0])))
    return Schmidt2Result(
        value=float(lam),
        pair=(ProductAnsatz((a1, b1)), ProductAnsatz((a2, b2))),
        mixing_angle=angle,
        chi=float(chi),
    )


def _orthogonalize(v, against):
    w = v - (against.conj() @ v) * against
    n = np.linalg.norm(w)
    if n < 1e-12:
        w = np.zeros_like(v)
        w[(np.argmax(np.abs(against)) + 1) % len(v)] = 1.0
        w = w - (against.conj() @ w) * against
        n = np.linalg.norm(w)
    return w / n


def _update_factor(ht, dims, vecs, which, c, branch):
    """Exact update of one factor: quadratic-plus-linear max on the sphere.

    |Psi> = c0 |a1 b1> + c1 |a2 b2> is linear in the chosen factor, so
    <Psi|H|Psi> = f^dag B f + 2 Re(f^dag v) + const; the orthogonality
    branch is kept by optimizing in the constrained subspace.
    """
    a1, b1, a2, b2 = vecs
    c0, c1 = c
    # (partner in own pair, other pair's A factor, other pair's B factor)
    layout = {
        0: (b1, a2, b2, c0, c1),
        1: (a1, a2, b2, c0, c1),
        2: (b2, a1, b1, c1, c0),
        3: (a2, a1, b1, c1, c0),
    }
    partner, oa, ob, coeff, other_coeff = layout[which]
    if which in (0, 2):  # A-side factor free, partner lives on B
        m = np.einsum("ijkl,j,l->ik", ht, partner.conj(), partner)
        w = np.einsum("ijkl,j,k,l->i", ht, partner.conj(), oa, ob)
    else:  # B-side factor free
        m = np.einsum("ijkl,i,k->jl", ht, partner.conj(), partner)
        w = np.einsum("ijkl,i,k,l->j", ht, partner.conj(), oa, ob)
    b_eff = (abs(coeff) ** 2) * m
    v_eff = np.conj(coeff) * other_coeff * w

    constrained = (branch == "A" and which in (0, 2)) or (branch == "B" and which in (1, 3))
    if constrained:
        against = {0: a2, 2: a1, 1: b2, 3: b1}[which]
        q = _complement_basis(against)
        f = _sphere_quadratic_max(q.conj().T @ b_eff @ q, q.conj().T @ v_eff)
        out = q @ f
    else:
        out = _sphere_quadratic_max(b_eff, v_eff)
    return out / np.linalg.norm(out)


def _complement_basis(v):
    d = len(v)
    q, _ = np.linalg.qr(np.column_stack([v, np.eye(d)]))
    return q[:, 1:d]


# ---------------------------------------------------------------------------
# maximum-clique hardness construction


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset

    def __init__(self, n, edges):
        object.__setattr__(self, "n", int(n))
        es = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError("self-loops are not allowed")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range")
            es.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(es))


def clique_matrix(g: Graph):
    """A_G = sum_{(a,b) in E} F^{(a,b)} on C^n (x) C^n (matrix size n^2).

    The product-state maximum of A_G equals (kappa-1)/kappa with kappa the
    maximum clique size; the n <= 4 cap keeps the matrix at <= 256 entries.
    """
    n = g.n
    if n > 4:
        raise ValueError("clique matrices are capped at n <= 4")
    d = n * n
    a = np.zeros((d, d))
    for (p, q) in g.edges:
        for (i, j, k, l) in ((p, q, p, q), (q, p, q, p), (p, q, q, p), (q, p, p, q)):
            a[i * n + j, k * n + l] += 0.5
    return a
