"""Joint numerical ranges: support sweeps, convex approximations, spectrahedra,
qutrit boundary classification, and one-shot unitary distinguishability.

The support function of W(X_1,...,X_k) in direction n is the largest
eigenvalue of n.X, attained by the top eigenvector; sweeping directions
yields an inner vertex cloud and outer supporting half-spaces that bracket
the true range.  Every eigensolve over directions goes through
`support_batch`, which stacks many directions into one call and returns
one SupportSweep of arrays (a value, point, witness and gap per row).  Rows
whose top eigenvalue is degenerate also keep their top eigenspace, whose
compressed operators span that face of W.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import PAULI_X, PAULI_Y, PAULI_Z, as_hermitian, stack_chunks

DEGENERACY_GAP = 1e-10
FLAT_GAP = 1e-8
FACE_GAP = 1e-7  # relative, as the gap; > FLAT_GAP so a flat normal's face is 2-dim
FACE_MERGE_TOL = 1e-6
FACE_RANK_TOL = 1e-6
FACE_DIRS = 60  # directions sampled on each face
FACE_SEED = 1
SEGMENT_PC_RATIO = 1e-6
CANDIDATE_GAP = 0.2  # sweep gaps up to this are polished as flat-face candidates
COMMON_EIGVEC_TOL = 1e-8
POLISH_MAXITER = 400
ONE_SHOT_TOL = 1e-9  # signed distance from 0 to the eigenvalue hull that still counts as inside


def unit(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-300:
        raise ValueError("zero direction")
    return v / n


def sphere_directions(k, n, seed=0):
    """Deterministic direction set on S^{k-1}.

    k=2 uses equally spaced circle angles, k=3 a Fibonacci lattice, higher k
    a seeded Gaussian sample.
    """
    if k < 1:
        raise ValueError("need at least one coordinate")
    if n < 1:
        raise ValueError(f"need at least one direction, got {n}")
    if k == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif k == 2:
        th = 2 * np.pi * np.arange(n) / max(n, 1)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
    elif k == 3:
        i = np.arange(n) + 0.5
        phi = np.arccos(1 - 2 * i / n)
        theta = np.pi * (1 + 5**0.5) * i
        dirs = np.stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
            axis=1,
        )
    else:
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(n, k))
        dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    return dirs


@dataclass
class SupportSweep:
    """Support evaluations of W(ops), one row per direction: h_W(n), its point and state."""

    directions: np.ndarray  # (n, k) unit rows
    values: np.ndarray  # (n,) lambda_max(n.X)
    points: np.ndarray  # (n, k) expectation tuples of the witnesses
    witnesses: np.ndarray  # (n, d) top eigenvectors
    gaps: np.ndarray  # (n,) relative gaps of the two top eigenvalues (inf if d = 1)
    # row -> top eigenspace (d, w) within FACE_GAP, the row's witness last; only rows with w > 1
    faces: dict = field(default_factory=dict)

    @property
    def degenerate(self):
        """Rows whose relative top gap falls below DEGENERACY_GAP (each has a face)."""
        return self.gaps < DEGENERACY_GAP


@dataclass
class ConvexBodyApprox:
    """Inner vertex cloud plus outer supporting half-spaces for a convex body."""

    inner_vertices: np.ndarray  # (m, k)
    outer_normals: np.ndarray  # (h, k) unit rows
    outer_offsets: np.ndarray  # (h,)
    unbounded: bool = False
    meta: dict = field(default_factory=dict)

    def outer_contains(self, point, tol=1e-9):
        p = np.asarray(point, dtype=float)
        return bool(np.all(self.outer_normals @ p <= self.outer_offsets + tol))

    def inner_in_outer(self, tol=1e-9):
        if len(self.inner_vertices) == 0:
            return True
        s = self.outer_normals @ self.inner_vertices.T - self.outer_offsets[:, None]
        return bool(s.max() <= tol)


def support_batch(ops, directions):
    """The support function of W(ops) on each row of `directions`, as one SupportSweep.

    Each row is normalised; its value is lambda_max(sum n_i X_i) and its
    point the tuple Re<v|X_i|v> over the top eigenvector v.  The operators are
    validated once per call, and the eigensolves run stacked, in chunks of
    core.STACK_ENTRIES matrix entries.  A set of zero rows gives empty arrays.
    """
    ops = [as_hermitian(x) for x in ops]
    d = ops[0].shape[0]
    if any(x.shape[0] != d for x in ops):
        raise ValueError("operators must share one dimension")
    rows = np.atleast_2d(np.asarray(directions, dtype=float))
    if rows.shape[1] != len(ops):
        raise ValueError(f"direction length {rows.shape[1]} != number of operators {len(ops)}")
    # the stacked dot product rounds as unit()'s norm does, row for row
    norms = np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0]
    if np.any(norms < 1e-300):
        raise ValueError("zero direction")
    sweep = SupportSweep(
        directions=rows / norms,
        values=np.empty(len(rows)),
        points=np.empty((len(rows), len(ops))),
        witnesses=np.empty((len(rows), d), dtype=complex),
        gaps=np.empty(len(rows)),
    )
    for chunk in stack_chunks(len(rows), d):
        n = sweep.directions[chunk]
        w, v = np.linalg.eigh(sum(n[:, i, None, None] * x for i, x in enumerate(ops)))
        top = v[:, :, -1]
        # one (1, d) @ (d, d) product per row, so a row rounds the same in every chunk
        row = top.conj()[:, None, :]
        sweep.points[chunk] = np.stack([((row @ x)[:, 0] * top).sum(axis=1).real for x in ops], axis=1)
        sweep.values[chunk], sweep.witnesses[chunk] = w[:, -1], top
        scale = np.maximum(np.maximum(np.abs(w[:, -1]), np.abs(w[:, 0])), 1e-30)
        sweep.gaps[chunk] = (w[:, -1] - w[:, -2]) / scale if d > 1 else np.inf
        width = (w >= w[:, -1:] - FACE_GAP * scale[:, None]).sum(axis=1)
        for r in np.flatnonzero(width > 1):
            sweep.faces[chunk.start + int(r)] = v[r, :, d - width[r] :].copy()
    return sweep


def _face_points(ops, basis):
    """Inner points on the face spanned by a degenerate top eigenspace.

    Realizes the one-level recursion of reduced operators: the face is the
    joint numerical range of the eigenspace-restricted operators.
    """
    reduced = [basis.conj().T @ x @ basis for x in ops]
    return support_batch(reduced, sphere_directions(len(ops), FACE_DIRS, seed=FACE_SEED)).points


def jnr_approximate(ops, directions):
    """Direction-sweep approximation of W(ops): inner vertices and outer half-spaces.

    Degenerate support directions contribute extreme points of the flat face
    (sampled through the reduced operators on the row's face), right after
    the row's own point, so flat parts do not collapse to single inner points.
    """
    sweep = support_batch(ops, directions)
    rows = np.flatnonzero(sweep.degenerate)
    inner = np.split(sweep.points, rows + 1)  # piece m ends with row rows[m]
    for m, r in enumerate(rows):
        inner.insert(2 * m + 1, _face_points(ops, sweep.faces[r]))
    return ConvexBodyApprox(
        inner_vertices=np.concatenate(inner),
        outer_normals=sweep.directions,
        outer_offsets=sweep.values,
        unbounded=not _positively_spanning(sweep.directions),
    )


def _positively_spanning(normals):
    """True iff no direction u != 0 has n_i . u <= 0 for all i (outer set bounded).

    The normals positively span R^k iff they have rank k and some lambda >= 1
    gives N^T lambda = 0 (Davis, Amer. J. Math. 76 (1954)).
    """
    from scipy.optimize import linprog  # deferred: importing qgeom loads no scipy

    k = normals.shape[1]
    if len(normals) < k + 1 or np.linalg.matrix_rank(normals) < k:
        return False
    res = linprog(
        c=np.zeros(len(normals)),
        A_eq=normals.T,
        b_eq=np.zeros(k),
        bounds=[(1, None)] * len(normals),
        method="highs",
    )
    return res.success


# ---------------------------------------------------------------------------
# qutrit classification (numeric realization of the e/s face census)


class DegenerateTripleError(ValueError):
    """The triple is linearly dependent with the identity (flat range)."""


class CommonEigenvectorError(ValueError):
    """All three operators share an eigenvector; the range is a convex hull
    of a point and a qubit numerical range (block decomposition), and the
    e/s classification does not apply."""

    def __init__(self, vector, point):
        self.vector = vector
        self.point = np.asarray(point)
        super().__init__(
            "common eigenvector detected: W = conv({x} u W(Y1,Y2,Y3)) with "
            f"x = {np.round(self.point, 6).tolist()}; classification refused"
        )


@dataclass
class FlatFace:
    normal: np.ndarray
    dim: int  # 0 point, 1 segment, 2 ellipse
    shape: str  # "point" | "segment" | "ellipse"
    gap: float  # polished relative eigenvalue gap (confidence margin)
    points: np.ndarray  # sampled face point cloud


@dataclass
class JNRClassification:
    e: int
    s: int
    faces: list
    # smallest sweep gap of a rejected candidate; without one, of the
    # non-candidate directions (None when every direction was a candidate)
    min_unpolished_gap: float | None


def _common_eigenvector(ops):
    c = np.random.default_rng(12345).normal(size=(4, len(ops)))
    _, v = np.linalg.eigh(sum(c[:, i, None, None] * x for i, x in enumerate(ops)))
    scale = max(max(np.abs(x).max() for x in ops), 1e-30)
    for vec in np.concatenate(v.transpose(0, 2, 1)):
        residual = max(np.linalg.norm(x @ vec - (vec.conj() @ x @ vec) * vec) for x in ops)
        if residual < COMMON_EIGVEC_TOL * scale:
            return vec
    return None


def _polish_flat_directions(ops, starts):
    """Polished unit normals and relative top-two gaps of flat-face candidates.

    Each start n0 moves in its tangent plane, n = unit(n0 + u1 t1 + u2 t2), by
    Nelder-Mead on the gap with scipy's start simplex (step 0.00025), moves,
    vertex order and stopping rule (xatol 1e-14, fatol 1e-16).  All starts
    advance together: each stage (reflect; expand or contract; shrink) is one
    stacked eigvalsh over the starts still live.
    """
    n0 = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    t1 = np.cross(n0, np.eye(3)[np.argmin(np.abs(n0), axis=1)])
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(n0, t1)

    def normals(rows, u):
        n = n0[rows] + u[:, :1] * t1[rows] + u[:, 1:] * t2[rows]
        return n / np.linalg.norm(n, axis=1, keepdims=True)

    def gap_at(rows, u):
        n = normals(rows, u)
        w = np.linalg.eigvalsh(sum(n[:, i, None, None] * x for i, x in enumerate(ops)))
        return (w[:, -1] - w[:, -2]) / np.maximum(np.abs(w[:, [0, -1]]).max(axis=1), 1e-30)

    m = len(n0)
    sim = np.tile([[0.0, 0.0], [0.00025, 0.0], [0.0, 0.00025]], (m, 1, 1))
    fsim = gap_at(np.repeat(np.arange(m), 3), sim.reshape(-1, 2)).reshape(m, 3)
    for _ in range(POLISH_MAXITER - 1):
        ind = np.argsort(fsim, axis=1)
        sim, fsim = np.take_along_axis(sim, ind[:, :, None], 1), np.take_along_axis(fsim, ind, 1)
        live = np.flatnonzero(
            (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) > 1e-14)
            | (np.abs(fsim[:, 1:] - fsim[:, :1]).max(axis=1) > 1e-16)
        )
        if not len(live):
            break
        s, f = sim[live], fsim[live]
        xbar = (s[:, 0] + s[:, 1]) / 2
        xr = 2 * xbar - s[:, 2]
        fr = gap_at(live, xr)
        expand, outside = fr < f[:, 0], fr < f[:, 2]
        accept = ~expand & (fr < f[:, 1])
        # expand (c = 2), or contract outside (c = 1/2) or inside (c = -1/2)
        c = np.where(expand, 2.0, np.where(outside, 0.5, -0.5))[:, None]
        xt = (1 + c) * xbar - c * s[:, 2]
        ft = np.full(len(live), np.inf)
        ft[~accept] = gap_at(live[~accept], xt[~accept])
        take = np.where(expand, ft < fr, ~accept & np.where(outside, ft <= fr, ft < f[:, 2]))
        shrink = ~expand & ~accept & ~take
        s[:, 2] = np.where(take[:, None], xt, np.where(shrink[:, None], s[:, 2], xr))
        f[:, 2] = np.where(take, ft, np.where(shrink, f[:, 2], fr))
        if shrink.any():  # towards the best vertex
            s[shrink, 1:] = s[shrink, :1] + 0.5 * (s[shrink, 1:] - s[shrink, :1])
            f[shrink, 1:] = gap_at(np.repeat(live[shrink], 2), s[shrink, 1:].reshape(-1, 2)).reshape(-1, 2)
        sim[live], fsim[live] = s, f
    rows, best = np.arange(m), fsim.argmin(axis=1)
    return normals(rows, sim[rows, best]), fsim[rows, best]


def _face_rank(ops, basis):
    """Geometric rank of the face at a doubly degenerate direction.

    The face is the image of the Bloch ball of the top eigenspace `basis`;
    its affine rank is the rank of the matrix of traceless Bloch components
    of the reduced operators.
    """
    b = basis[:, -2:]
    reduced = np.stack([b.conj().T @ x @ b for x in ops])
    bloch = np.einsum("kij,pji->kp", reduced, np.stack([PAULI_X, PAULI_Y, PAULI_Z])).real / 2
    sv = np.linalg.svd(bloch, compute_uv=False)
    return int((sv > FACE_RANK_TOL * max(sv[0], 1e-30)).sum())


def _fit_face_shape(points, rank):
    """Sanity filter: PCA segment test, conic discriminant for ellipses."""
    c = points - points.mean(axis=0)
    sv = np.linalg.svd(c, compute_uv=False)
    if rank <= 0 or sv[0] < 1e-12:
        return "point", 0
    if rank == 1 or sv[1] < SEGMENT_PC_RATIO * sv[0]:
        return "segment", 1
    # project onto the top-two principal axes and least-squares fit a conic;
    # the affine image of a Bloch ball is always an ellipse, so a bad
    # discriminant can only mean a nearly collapsed cloud
    _, _, vt = np.linalg.svd(c, full_matrices=False)
    xy = c @ vt[:2].T
    x, y = xy[:, 0], xy[:, 1]
    m = np.stack([x * x, x * y, y * y, x, y, np.ones_like(x)], axis=1)
    _, _, vvt = np.linalg.svd(m)
    a, b, cc = vvt[-1][0], vvt[-1][1], vvt[-1][2]
    if b * b - 4 * a * cc >= 0 and sv[1] < 1e-3 * sv[0]:
        return "segment", 1
    return "ellipse", 2


def classify_qutrit_jnr(x1, x2, x3, sweep=2000):
    """Count elliptic (e) and segment (s) flat faces of a qutrit triple's range.

    Flat directions are located by sweeping the sphere for small top-two
    eigenvalue gaps, polishing all candidates (gap <= CANDIDATE_GAP) together
    to the FLAT_GAP threshold, and merging polished normals within
    FACE_MERGE_TOL, in order of increasing sweep gap.
    """
    ops = [as_hermitian(x) for x in (x1, x2, x3)]
    if any(x.shape != (3, 3) for x in ops):
        raise ValueError("classification requires 3x3 operators")
    vec = _common_eigenvector(ops)
    if vec is not None:
        point = [float(np.real(vec.conj() @ x @ vec)) for x in ops]
        raise CommonEigenvectorError(vec, point)
    stack = np.stack([np.eye(3).flatten()] + [x.flatten() for x in ops])
    sv = np.linalg.svd(stack, compute_uv=False)
    if sv[-1] < 1e-10 * sv[0]:
        raise DegenerateTripleError(
            "triple is linearly dependent with the identity; the range is flat"
        )

    swept = support_batch(ops, sphere_directions(3, sweep))
    gaps = swept.gaps
    order = np.argsort(gaps)[: np.count_nonzero(gaps <= CANDIDATE_GAP)]
    normals, polished = _polish_flat_directions(ops, swept.directions[order])
    rejected = polished >= FLAT_GAP
    kept = []
    for i in np.flatnonzero(~rejected):
        if not any(np.linalg.norm(normals[i] - normals[j]) < FACE_MERGE_TOL for j in kept):
            kept.append(i)
    flat = support_batch(ops, normals[kept])
    faces = []
    for r, i in enumerate(kept):
        pts = _face_points(ops, flat.faces[r])
        shape, dim = _fit_face_shape(pts, _face_rank(ops, flat.faces[r]))
        faces.append(FlatFace(normal=normals[i], dim=dim, shape=shape, gap=float(polished[i]), points=pts))
    e = sum(1 for f in faces if f.shape == "ellipse")
    s = sum(1 for f in faces if f.shape == "segment")
    margin = gaps[order[rejected]] if rejected.any() else gaps[gaps > CANDIDATE_GAP]
    min_gap = float(margin.min()) if len(margin) else None
    return JNRClassification(e=e, s=s, faces=faces, min_unpolished_gap=min_gap)


# ---------------------------------------------------------------------------
# one-shot unitary distinguishability (largest angular gap of the spectrum)


def one_shot_distinguishable(u, v):
    """Single-shot discrimination of unitaries U, V.

    U^dag V is unitary, so its numerical range is the convex hull of its
    eigenvalues on the unit circle (Acin, PRL 87, 177901 (2001)), and
    discrimination is possible iff that hull contains 0.  With G the
    largest cyclic gap between the sorted eigenvalue angles, from a to b,
    cos(G/2) is the signed distance from 0 to the chord a-b: the hull
    contains 0 iff cos(G/2) >= -ONE_SHOT_TOL.  Otherwise the chord midpoint
    is the hull point nearest 0.  Returns (True, |psi>) with
    <psi|U^dag V|psi> = 0, built on a and b (0 on their chord) or on a, b
    and the eigenvalue c nearest -(a + b)/|a + b|, which lies in the arc
    opposite the gap; or (False, n) with the separating unit direction
    (a + b)/|a + b|.  Eigenvectors come from the complex Schur form,
    orthonormal even for clustered eigenvalues.
    """
    from scipy.linalg import schur  # deferred: importing qgeom loads no scipy

    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    d = u.shape[0]
    for name, m in (("U", u), ("V", v)):
        if m.shape != (d, d) or np.abs(m @ m.conj().T - np.eye(d)).max() > 1e-9:
            raise ValueError(f"{name} is not unitary")
    t, q = schur(u.conj().T @ v, output="complex")
    lam = np.diag(t)
    order = np.argsort(np.angle(lam))
    theta = np.angle(lam)[order]
    gaps = np.diff(theta, append=theta[0] + 2 * np.pi)  # gaps[k]: from eigenvalue order[k] to the next
    k = int(np.argmax(gaps))
    ia, ib = order[k], order[(k + 1) % d]
    a, b = lam[ia], lam[ib]
    dist = np.cos(gaps[k] / 2)
    if dist < -ONE_SHOT_TOL:
        return False, unit([(a + b).real, (a + b).imag])
    if abs(dist) <= ONE_SHOT_TOL:
        # 0 on the chord: weight s on a puts s a + (1 - s) b nearest 0
        s = float(np.clip(np.real(-b * np.conj(a - b)) / abs(a - b) ** 2, 0.0, 1.0))
        chosen, weights = [ia, ib], np.array([s, 1 - s])
    else:
        ic = int(np.argmin(np.abs(lam + (a + b) / abs(a + b))))
        chosen = [ia, ib, ic]
        tri = np.array([lam[chosen].real, lam[chosen].imag, np.ones(3)])
        weights = np.clip(np.linalg.solve(tri, [0.0, 0.0, 1.0]), 0.0, None)
    psi = q[:, chosen] @ np.sqrt(weights / weights.sum())
    return True, psi / np.linalg.norm(psi)
