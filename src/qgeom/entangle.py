"""Expectation-value optimization over separable and PPT states;
separable/PPT numerical ranges; the maximum-clique hardness matrix.

Product maxima are NP-hard in general, so the see-saw values are certified
lower bounds only.  On a (2, d) split the product maximum is the maximum of
a convex function over the Bloch sphere, which a branch and bound on
geodesic triangles brackets from both sides; `sep_max` picks between the
two.  PPT maxima carry a certified two-sided bracket: ADMM over the state
set and the PPT cone yields a PPT state below the maximum and a
weak-duality certificate above it.  Both ranges form H_n = sum n_i X_i for
all directions in one stacked sum; the PPT range runs the ADMM on all of
them together, one stacked eigensolve per step; a separable range runs
every direction's branch and bound ((2, d) splits) or see-saw starts (other
splits) in lockstep, one stacked eigensolve per round or factor update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import product

import numpy as np

from .core import ROUNDING, as_hermitian, check_dims, partial_transpose, random_pure, stack_map
from .numrange import ConvexBodyApprox, _positively_spanning, _top_pairs, jnr_approximate, unit

# an alternating-ascent restart stops when a sweep gains less than its TOL, or after SWEEPS sweeps
SEESAW_TOL, SEESAW_SWEEPS = 1e-10, 500


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
        return reduce(np.kron, self.factors)

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
    """<others| H |others>: the effective operators on factor k, one per row.

    ht carries a row axis and then bra axes 0..n-1 and ket axes n..2n-1 of each
    row's H; factors[i] is a stack (R, d_i) of rows, and each i != k is
    contracted as conj(f_i) on bra axis i and f_i on ket axis i: (R, d_k, d_k).
    """
    n, row = len(dims), 2 * len(dims)
    args = [ht, [row] + list(range(row))]
    for i, f in enumerate(factors):
        if i != k:
            args += [f.conj(), [row, i], f, [row, n + i]]
    return np.einsum(*args, [row, k, n + k])


def _schmidt_factors(vs, dims):
    """The leading product term of each row of vs (n, D) as factors (n, d_i), by
    sequential SVDs: factor i is the leading left singular vector of the
    remainder reshaped to (d_i, -1), the leading right one the next remainder."""
    factors, rest = [], vs
    for d in dims[:-1]:
        u, _, vh = np.linalg.svd(rest.reshape(len(vs), d, -1), full_matrices=False)
        factors.append(u[:, :, 0])
        rest = vh[:, 0]
    return factors + [rest]


def _seesaw_stack(hs, dims, restarts, seed):
    """seesaw_product_max on each row of a stack (n, D, D), all in lockstep:
    every row takes the same seeded restarts and its own Schmidt start.  A
    factor update gathers one H per live start and is one contraction and one
    stacked eigensolve, so each row rounds as it would alone.  Returns per row
    lower, its slowest start's sweeps, whether all its starts stopped, and then
    the witness factors (n, d_i)."""
    n = len(hs)
    rng = np.random.default_rng(seed)
    seeded = [[random_pure(d, rng) for d in dims] for _ in range(restarts)]
    # start j of row r sits at j * n + r, the Schmidt starts (j = restarts) last
    factors = [np.concatenate([np.repeat([s[i] for s in seeded], n, axis=0), f])
               for i, f in enumerate(_schmidt_factors(np.linalg.eigh(hs)[1][:, :, -1], dims))]
    hts, val = hs.reshape((n,) + dims + dims), np.full(n * (restarts + 1), -np.inf)
    live, last = np.arange(len(val)), np.empty(len(val), dtype=int)  # last: the last sweep a start ran
    for sweep in range(1, SEESAW_SWEEPS + 1):
        ht, fs = hts[live % n], [f[live] for f in factors]
        for k in range(len(dims)):
            red = _reduced_operator(ht, dims, fs, k)
            w, v = np.linalg.eigh((red + red.conj().transpose(0, 2, 1)) / 2)
            factors[k][live] = fs[k] = v[:, :, -1].copy()  # contiguous as if gathered: same rounding
        done = w[:, -1] - val[live] < SEESAW_TOL
        val[live], last[live] = w[:, -1], sweep
        live = live[~done]
        if not live.size:
            break
    # each row's best seeded restart, the first of equal values, unless its Schmidt start beats it by SEESAW_TOL
    val = val.reshape(-1, n)
    best = val[:restarts].argmax(axis=0)
    best[val[restarts] - val[best, np.arange(n)] > SEESAW_TOL] = restarts
    pick = best * n + np.arange(n)
    return (val.ravel()[pick], last.reshape(-1, n).max(axis=0), np.bincount(live % n, minlength=n) == 0,
            *(f[pick] for f in factors))


def seesaw_product_max(h, dims, restarts=32, seed=0):
    """Alternating top-eigenvector ascent over pure product states.

    Monotone per sweep (each factor update is an exact maximization with
    the others fixed); the best value over seeded restarts is a certified
    lower bound for the separable maximum.  All restarts advance in lockstep
    and retire once a sweep gains less than SEESAW_TOL.  One more start, from
    the leading Schmidt pairs of the top eigenvector, replaces the best seeded
    restart only where it beats it by more than SEESAW_TOL.  meta adds the
    sweeps of the slowest start and whether every start stopped before
    SEESAW_SWEEPS.  This is the one-row case of `_seesaw_stack`.
    """
    h = as_hermitian(h)
    dims = check_dims(dims, h.shape[0])
    _check_counts(restarts=restarts)
    lower, sweeps, stopped, *factors = _seesaw_stack(h[None], dims, restarts, seed)
    return SepBounds(float(lower[0]), None, ProductAnsatz(tuple(f[0] for f in factors)),
                     meta={"restarts": restarts, "seed": seed, "sweeps": int(sweeps[0]), "converged": bool(stopped[0])})


# ---------------------------------------------------------------------------
# qubit-qudit path: rigorous two-sided bounds


def _pauli_reductions(h, dims):
    """H_i = Tr_A[H (sigma_i (x) 1)], i = 0..3, on the qudit factor of H
    (2d, 2d) or of each row of a stack (..., 2d, 2d): (..., 4, d, d), exactly
    Hermitian where H is."""
    d = dims[1]
    blocks = h.reshape(h.shape[:-2] + (2, d, 2, d))
    h00, h01, h10, h11 = (blocks[..., a, :, b, :] for a in (0, 1) for b in (0, 1))
    return np.stack([h00 + h11, h10 + h01, 1j * (h01 - h10), h00 - h11], axis=-3)


SEP_TOL = 1e-9  # certified gap at which the qubit-qudit branch and bound stops
SEP_BUDGET = 2048  # default sphere samples (eigensolves) of one qubit-qudit branch and bound


def _check_counts(restarts=1, directions=1):
    """Reject a see-saw without restarts and a branch and bound without sphere samples."""
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if directions < 1:
        raise ValueError(f"sample budget must be at least 1, got {directions}")


# the octahedron's faces over its vertices (e_0, e_1, e_2, -e_0, -e_1, -e_2), and the four triangles
# that split a triangle over its corners and edge midpoints (3, 4, 5 = midpoints of edges 01, 12, 20)
_OCTAHEDRON = np.array(list(product((0, 3), repeat=3))) + np.arange(3)
_SPLIT = [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]


def _qubit_qudit_stack(hs, budget):
    """The branch and bound of qubit_qudit_sep_max on each row of a stack
    (n, 2d, 2d) of Hermitian operators, all rows in lockstep.

    Triangles and sphere samples carry a row index, and each round solves
    every row's new samples H_0 + r.H (each gathers its row's four H_i) in
    one stack of top-pair kernel calls.  A row retires once it has nothing
    left to split within its budget.  Every row rounds as it would alone.
    Returns lower, upper, the best qudit states (n, d), their qubit partners
    (n, 2) and evaluations (distinct sphere samples) per row.
    """
    n, d = len(hs), hs.shape[1] // 2
    hs = (hs + hs.conj().transpose(0, 2, 1)) / 2  # the Hermitian part (exact for Hermitian input)
    red = _pauli_reductions(hs, (2, d))
    # lambda_max(y.H) <= |y| reach by operator Cauchy-Schwarz, and slack allows for eigvalsh's rounding
    reach = np.sqrt(np.maximum(np.linalg.eigvalsh((red[:, 1:] @ red[:, 1:]).sum(axis=1))[:, -1], 0))
    slack = ROUNDING * d * (np.linalg.norm(red[:, 0], axis=(1, 2)) + reach)
    lower, upper, beta = np.full(n, -np.inf), np.empty(n), np.empty((n, d), dtype=complex)
    evaluations = np.zeros(n, dtype=int)
    # a round's new triangles index `table` into their group's corners and new points
    corners, corner_tops, group_row = np.empty((n, 0, 3)), np.empty((n, 0)), np.arange(n)
    pts, table = np.tile(np.vstack([np.eye(3), -np.eye(3)]), (n, 1, 1)), _OCTAHEDRON
    # the unsplit live triangles carried into the next round: tris, tri_row, tri_tops, bounds
    kept = np.empty((0, 3, 3)), np.empty(0, dtype=int), np.empty((0, 3)), np.empty(0)
    active, top_bound = np.ones(n, dtype=bool), np.full(n, -np.inf)
    seen = {}  # the bytes of (row, sphere sample) -> lambda_max(H_0 + r.H)
    while True:
        pt_row = np.repeat(group_row, pts.shape[1])
        keys = np.column_stack([pt_row, pts.reshape(-1, 3)]).view("V32")[:, 0].tolist()
        # neighbours share edge midpoints bit for bit (a + b rounds as b + a): solve each once
        fresh = [i for i, key in enumerate(keys) if not (key in seen or seen.setdefault(key, None))]
        new, new_row = pts.reshape(-1, 3)[fresh], pt_row[fresh]
        vals, tops, states = np.empty(len(new)), np.empty(len(new)), np.empty((len(new), d), dtype=complex)

        def solve(c):
            h, r = red[new_row[c]], new[c, :, None, None]
            w, top, _ = _top_pairs(h[:, 0] + r[:, 0] * h[:, 1] + r[:, 1] * h[:, 2] + r[:, 2] * h[:, 3])
            # p_i = <beta|H_i|beta>, one (1, d) @ (d, d) product per sample and H_i
            p = ((top.conj()[:, None, None, :] @ h)[:, :, 0] * top[:, None, :]).sum(axis=2).real
            # |p_vec| by the stacked dot product, which rounds as np.linalg.norm of each row
            vals[c] = 0.5 * (p[:, 0] + np.sqrt(p[:, None, 1:] @ p[:, 1:, None])[:, 0, 0])
            tops[c], states[c] = w[:, -1], top

        stack_map(solve, len(new), d, per_row=4)  # chunks write disjoint samples
        if len(new):
            # each row's best sample, the first of equal values, against its lower
            order = np.lexsort((-vals, new_row))
            best = order[np.r_[True, new_row[order][1:] != new_row[order][:-1]]]
            best = best[vals[best] > lower[new_row[best]]]
            lower[new_row[best]], beta[new_row[best]] = vals[best], states[best]
        evaluations += np.bincount(new_row, minlength=n)
        seen.update(zip([keys[i] for i in fresh], tops.tolist()))
        tris = np.concatenate([corners, pts], axis=1)[:, table].reshape(-1, 3, 3)
        point_tops = np.array([seen[key] for key in keys]).reshape(pts.shape[:2])
        tri_tops = np.concatenate([corner_tops, point_tops], axis=1)[:, table].reshape(-1, 3)
        tri_row = np.repeat(group_row, len(table))
        # a point of the geodesic triangle is y/|y|, y in the flat one, |y| >= delta; convexity and Weyl give
        # f(y/|y|) <= max_i f(v_i) + (1/|y| - 1) lambda_max(y.H)/2 <= max_i f(v_i) + (1 - delta) reach/2
        normal = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        delta = np.abs((normal * tris[:, 0]).sum(axis=1)) / np.linalg.norm(normal, axis=1)
        bounds = 0.5 * (tri_tops.max(axis=1) + np.maximum(1 - delta, 0) * reach[tri_row] + slack[tri_row])
        tris, tri_row, tri_tops, bounds = (np.concatenate(p) for p in zip(kept, (tris, tri_row, tri_tops, bounds)))
        live = bounds > lower[tri_row] + SEP_TOL
        n_split = np.minimum(np.bincount(tri_row[live], minlength=n), (budget - evaluations) // 3)
        done = active & (n_split <= 0)
        # a triangle leaves once pruned (lower only grows) or once its row is done, and its row's upper
        # keeps its bound, which may exceed lower by up to SEP_TOL
        gone = ~live | done[tri_row]
        np.maximum.at(top_bound, tri_row[gone], bounds[gone])
        upper[done] = np.maximum(lower[done], top_bound[done])
        active &= ~done
        if not active.any():
            break
        # each active row splits its n_split highest live bounds, the first of equal bounds first
        live = np.flatnonzero(live & active[tri_row])
        order = live[np.lexsort((-bounds[live], tri_row[live]))]
        rank = np.arange(len(order)) - np.searchsorted(tri_row[order], tri_row[order])
        take = rank < n_split[tri_row[order]]
        split, keep = order[take], order[~take]
        kept = tris[keep], tri_row[keep], tri_tops[keep], bounds[keep]
        corners, corner_tops, group_row, table = tris[split], tri_tops[split], tri_row[split], _SPLIT
        pts = corners + np.roll(corners, -1, axis=1)
        pts /= np.linalg.norm(pts, axis=2, keepdims=True)
    # the qubit factor: top eigenvector of <beta| H |beta>, one (1, d) @ (d, d) product per block
    blocks = hs.reshape(n, 2, d, 2, d).transpose(0, 1, 3, 2, 4)
    hb = ((beta.conj()[:, None, None, None, :] @ blocks)[:, :, :, 0] * beta[:, None, None, :]).sum(axis=3)
    alpha = np.linalg.eigh(hb)[1][:, :, -1]
    return lower, upper, beta, alpha, evaluations


def qubit_qudit_sep_max(h, dims, directions=SEP_BUDGET):
    """Certified bracket lower <= separable max <= upper on a (2, d) system.

    The maximum over product states is the maximum over the Bloch sphere of
    the convex f(r) = lambda_max(H_0 + r.H)/2, H_i the Pauli reductions.
    Branch and bound on geodesic triangles, starting from the octahedron:
    each round splits the live triangles (bound above lower + SEP_TOL) at
    their normalised edge midpoints, highest bound first.  A triangle whose
    plane lies at distance delta from 0 is bounded by its vertices' values:
    max_i f(v_i) + (1 - delta) ||sum_i H_i^2||^(1/2) / 2, plus a rounding
    allowance.  `directions` is the budget of sphere samples (eigensolves;
    at most 3 per split, as a midpoint shared with a neighbour is solved
    once); the 6 of the start mesh always run.  Every sample r yields a
    qudit state beta, the top eigenvector of H_0 + r.H, with point
    p = <beta|H_i|beta>, and lower is the best (p_0 + |p_vec|)/2, the value
    its product witness attains.  upper is the largest triangle bound (or
    lower).  This is the one-row case of `_qubit_qudit_stack`.
    """
    h = as_hermitian(h)
    dims = check_dims(dims, h.shape[0])
    if dims[0] != 2:
        raise ValueError(f"first local dimension must be 2, got {dims[0]}")
    _check_counts(directions=directions)
    lower, upper, beta, alpha, evaluations = _qubit_qudit_stack(h[None], directions)
    meta = {"method": "bloch-branch-and-bound", "evaluations": int(evaluations[0]),
            "converged": bool(upper[0] - lower[0] <= SEP_TOL)}
    return SepBounds(float(lower[0]), float(upper[0]), ProductAnsatz((alpha[0], beta[0])), meta=meta)


def sep_max(h, dims, restarts=32, seed=0, directions=SEP_BUDGET):
    """Bracket on the maximum of <H> over separable states.

    A (2, d) split takes the two-sided qubit_qudit_sep_max with `directions`
    as its sphere-sample budget; every other split takes the see-saw lower
    bound seesaw_product_max over `restarts` seeded restarts, with upper None.
    Both counts must be at least 1 on every split.
    """
    _check_counts(restarts, directions)
    if len(dims) == 2 and dims[0] == 2:
        return qubit_qudit_sep_max(h, dims, directions=directions)
    return seesaw_product_max(h, dims, restarts=restarts, seed=seed)


def _range_body(ops, dims, directions, solve, per_row=1):
    """A range's body from a stacked bracket solver: solve(hs, dims) takes
    H_n = sum_i n_i X_i over the unit directions, in the chunks of
    `core.stack_map` with per_row matrices per direction, and returns
    offsets, states (n, d, d) and any extras per row.  The inner vertices are
    Tr(X_i rho_n), and the body is unbounded when the normals do not
    positively span; returns the body (empty meta) and the extras."""
    ops = [as_hermitian(x) for x in ops]
    dims = check_dims(dims, ops[0].shape[0])
    normals = unit(np.atleast_2d(directions))
    parts = stack_map(lambda c: solve(sum(normals[c][:, i, None, None] * x for i, x in enumerate(ops)), dims),
                      len(normals), ops[0].shape[0], per_row=per_row)
    offsets, states, *extras = (np.concatenate(p) for p in zip(*parts))
    inner = np.einsum("kij,nji->nk", np.array(ops), states).real
    body = ConvexBodyApprox(inner_vertices=inner, outer_normals=normals, outer_offsets=offsets,
                            unbounded=not _positively_spanning(normals))
    return body, extras


def sep_numerical_range(ops, dims, directions, restarts=8, seed=0):
    """Separable numerical range by per-direction product maximization.

    On a (2, d) split every direction's branch and bound runs in lockstep,
    a stack of directions at a time, and each outer offset is its certified
    `upper`, so the outer half-spaces are rigorous; meta adds the evaluations
    (sphere samples) summed over directions and whether every bracket closed
    to SEP_TOL.  Other splits run every direction's see-saw starts in
    lockstep and take their lower values, flagged heuristic; meta adds their
    sweeps summed over directions and whether every see-saw converged.  One
    factor is the joint numerical range itself.  restarts must be at least 1
    on every split.
    """
    dims = check_dims(dims, len(ops[0]))
    _check_counts(restarts=restarts)
    if len(dims) == 1:
        body = jnr_approximate(ops, directions)
        body.meta["outer_rigorous"] = True
        return body
    bloch = len(dims) == 2 and dims[0] == 2

    def solve(hs, dims):
        if bloch:
            lower, offsets, beta, alpha, work = _qubit_qudit_stack(hs, SEP_BUDGET)
            factors, closed = (alpha, beta), offsets - lower <= SEP_TOL
        else:
            offsets, work, closed, *factors = _seesaw_stack(hs, dims, restarts, seed)
        vs = reduce(lambda v, f: (v[:, :, None] * f[:, None, :]).reshape(len(hs), -1), factors)  # kron per row
        return offsets, vs[:, :, None] * vs[:, None, :].conj(), work, closed

    # a row holds SEP_BUDGET sphere samples while its branch and bound runs, or one gathered H per see-saw start
    per_row = -(-SEP_BUDGET // len(ops[0]) ** 2) if bloch else restarts + 1
    body, (work, closed) = _range_body(ops, dims, directions, solve, per_row)
    if not bloch:  # heuristic offsets may undercut other directions' witnesses: lift them to keep inner inside outer
        body.outer_offsets = np.maximum(body.outer_offsets, (body.outer_normals @ body.inner_vertices.T).max(axis=1))
    body.meta = {"outer_rigorous": bloch, "method": "bloch-branch-and-bound" if bloch else "seesaw",
                 "evaluations" if bloch else "sweeps": int(work.sum()), "converged": bool(closed.all())}
    return body


# ---------------------------------------------------------------------------
# PPT maximization: two-set ADMM bracketed by a weak-duality certificate

PPT_MAX_ITER = 20000
# steps between evaluations of the primal rounding, the dual bound and the stop test (two eigvalsh per row, beside
# the two eigh every step takes); x86-64, one BLAS thread, in process, a random 3x3 triple over 200 directions:
# 0.72 s checked every step, 0.60 every 2nd, 0.55 every 4th and 0.53 every 8th, for 16255, 16350, 16536 and 16968
# row-steps; offsets moved by at most 4.4e-15
PPT_CHECK_EVERY = 4


@dataclass
class PPTMaxResult:
    value: float
    upper: float
    state: np.ndarray
    converged: bool
    iterations: int


def _ppt_max_stack(hs, dims, tol):
    """ppt_max on each row of a stack (n, d, d) in lockstep, each row with its
    own scale and beta.  The X, Z and U updates and the beta balancing run on
    every step; the two roundings into `value` (X mixed with 1/d, and the top
    Schmidt term of X's top eigenvector from the X update's eigh, by one
    stacked svd), the bound `upper` and the stop test run on check steps only
    (1, 1 + PPT_CHECK_EVERY, ... and PPT_MAX_ITER), where a row whose bracket
    has closed leaves the live arrays.  Returns
    upper, states, value and iterations (every step, checked or not) per row
    (RuntimeError as ppt_max)."""
    if len(dims) != 2:
        raise ValueError("ppt_max requires a bipartite dimension split")
    n, d = hs.shape[:2]
    # the partial transpose on the first factor, as a permutation of each row's entries
    flip = partial_transpose(np.arange(d * d).reshape(d, d), dims, 0).real.astype(int).ravel()

    def pt(m):
        return m.reshape(len(m), -1)[:, flip].reshape(m.shape)

    def bound(w):
        # lambda_max from eigvalsh's spectra w, raised by its rounding allowance to hold in floating point
        return w[:, -1] + ROUNDING * d * np.maximum(-w[:, 0], w[:, -1])

    w = np.linalg.eigvalsh(hs)
    upper = bound(w)  # U = 0 certifies lambda_max(H)
    scale = np.maximum(-w[:, 0], w[:, -1])
    scale[scale == 0] = 1.0
    mixed = np.eye(d, dtype=complex) / d
    out_value, out_upper, out_iters, out_rho = np.empty(n), np.empty(n), np.full(n, PPT_MAX_ITER), np.empty_like(hs)
    live, h, z, u, beta = np.arange(n), hs, np.broadcast_to(mixed, hs.shape), np.zeros_like(hs), np.ones(n)
    value, rho = np.full(n, -np.inf), z
    for it in range(1, PPT_MAX_ITER + 1):
        # X = P_states(Z - U + H / (scale beta)): shift the spectrum by the simplex threshold tau, clip at 0
        m = z - u + h / (scale * beta)[:, None, None]
        wx, vx = np.linalg.eigh((m + m.conj().swapaxes(1, 2)) / 2)
        css = np.cumsum(wx[:, ::-1], axis=1)
        k = d - np.argmax(((wx[:, ::-1] - (css - 1) / np.arange(1, d + 1)) > 0)[:, ::-1], axis=1)
        tau = (css[np.arange(len(k)), k - 1] - 1) / k
        x = (vx * np.maximum(wx - tau[:, None], 0)[:, None, :]) @ vx.conj().swapaxes(1, 2)
        wt, vt = np.linalg.eigh(pt(x + u))
        vth = vt.conj().swapaxes(1, 2)
        z_prev = z
        # Moreau: X + U = Z + (its negative part), so U += X - Z in exact form
        z = pt((vt * np.maximum(wt, 0)[:, None, :]) @ vth)
        u = pt((vt * np.minimum(wt, 0)[:, None, :]) @ vth)
        r, s = np.sqrt((np.abs(x - z) ** 2).sum((1, 2))), beta * np.sqrt((np.abs(z - z_prev) ** 2).sum((1, 2)))
        f = np.where(r > 10 * s, 2.0, np.where(s > 10 * r, 0.5, 1.0))
        beta, u = beta * f, u / f[:, None, None]
        if (it - 1) % PPT_CHECK_EVERY and it < PPT_MAX_ITER:
            continue
        # a check step: beta U (which the power-of-two balancing leaves unchanged) gives the dual bound, and X
        # rounds two ways into a PPT state: mixed with 1/d until X^G >= 0, and the top Schmidt term a (x) b of its
        # top eigenvector, a product state; a row keeps the better
        upper = np.minimum(upper, bound(np.linalg.eigvalsh(h - (beta * scale)[:, None, None] * u)))
        low = np.minimum(np.linalg.eigvalsh(pt(x))[:, 0], 0)
        t = (low / (low - 1 / d))[:, None, None]
        cand = (1 - t) * x + t * mixed
        v = np.trace(h @ cand, axis1=1, axis2=2).real
        a, b = _schmidt_factors(vx[:, :, -1], dims)
        ab = (a[:, :, None] * b[:, None, :]).reshape(-1, d)
        vp = ((ab.conj()[:, None, :] @ h)[:, 0] * ab).sum(axis=1).real
        cand = np.where((vp > v)[:, None, None], ab[:, :, None] * ab[:, None, :].conj(), cand)
        v = np.maximum(v, vp)
        better = v > value
        value, rho = np.where(better, v, value), np.where(better[:, None, None], cand, rho)
        done = upper - value <= tol
        if done.any():
            rows = live[done]
            out_value[rows], out_upper[rows], out_rho[rows], out_iters[rows] = value[done], upper[done], rho[done], it
            live, h, scale, z, u, beta, value, upper, rho = (
                a[~done] for a in (live, h, scale, z, u, beta, value, upper, rho))
            if not live.size:
                break
    out_value[live], out_upper[live], out_rho[live] = value, upper, rho
    trace = np.trace(out_rho, axis1=1, axis2=2).real
    low = np.linalg.eigvalsh(np.stack([out_rho, pt(out_rho)]))[..., 0]
    bad = np.flatnonzero((low < -1e-8).any(axis=0) | (np.abs(trace - 1) > 1e-8))
    if bad.size:
        raise RuntimeError(f"PPT iterate is not a state (trace {trace[bad[0]]:.12g})")
    return out_upper, out_rho, out_value, out_iters


def ppt_max(h, dims, tol=1e-9):
    """Maximize Tr(rho H) over PPT states; value <= max <= upper.

    Two-set ADMM (Boyd et al. 2011, Wen-Goldfarb-Yin 2010) on H scaled to
    unit norm: X = P_states(Z - U + H/beta), Z = G P_PSD G (X + U), U += X - Z,
    with G the partial transpose (an involutive isometry) and beta balanced
    by the primal and dual residuals.  Each X rounds two ways into a PPT
    state: mixed with 1/d until X^G >= 0, and a (x) b, the top Schmidt term
    of X's top eigenvector, a pure product state (PPT whatever X is), which
    meets a product optimum to second order in the distance of X from it.
    `state` is the better rounding of the best step (`value` = Tr(state H)).
    U is the negative part of X + U in the PPT cone, so Q = -beta |H| U^G
    >= 0, and weak duality gives Tr(rho H) <= lambda_max(H + Q^G) = `upper`
    for every PPT state rho; each lambda_max is raised by eigvalsh's rounding
    allowance core.ROUNDING * d * (the matrix's largest |eigenvalue|), so
    `upper` holds in floating point.  The roundings, the bound and the stop
    test run on check steps only: step 1, every PPT_CHECK_EVERY-th step
    after it and step PPT_MAX_ITER, so `value` is the best rounded iterate
    and `upper` the least bound over those steps.  Stops on the first check
    step with upper - value <= tol (`converged`) or after PPT_MAX_ITER
    iterations; `iterations` counts every step.  The state is checked
    (eigenvalues of rho and rho^G above -1e-8, |Tr rho - 1| <= 1e-8);
    RuntimeError otherwise.
    """
    h = as_hermitian(h)
    dims = check_dims(dims, h.shape[0])
    upper, states, value, iterations = _ppt_max_stack(h[None], dims, tol)
    return PPTMaxResult(value=float(value[0]), upper=float(upper[0]), state=states[0],
                        converged=bool(upper[0] - value[0] <= tol), iterations=int(iterations[0]))


def ppt_numerical_range(ops, dims, directions, tol=1e-8):
    """PPT numerical range: per direction, the ppt_max state is an inner
    vertex and its `upper` the outer offset.  `upper` is a weak-duality
    bound at every ADMM step, so the outer half-spaces are rigorous even
    where a bracket is still open; `converged` says whether every bracket
    closed to tol.  All directions run as one stack; meta adds the ADMM
    steps summed over them and the widest bracket."""
    body, (value, iterations) = _range_body(ops, dims, directions, partial(_ppt_max_stack, tol=tol))
    brackets = body.outer_offsets - value
    converged = bool((brackets <= tol).all())
    body.meta = {"outer_rigorous": True, "converged": converged, "method": "admm",
                 "iterations": int(iterations.sum()), "max_bracket": float(brackets.max())}
    return body


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
