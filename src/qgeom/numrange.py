"""Joint numerical ranges: support sweeps, convex approximations, spectrahedra,
qutrit boundary classification, and one-shot unitary distinguishability.

The support function of W(X_1,...,X_k) in direction n is the largest
eigenvalue of n.X, attained by the top eigenvector; sweeping directions
yields an inner vertex cloud and outer supporting half-spaces that bracket
the true range.  Every eigensolve over directions goes through
`support_batch`, which stacks many directions into one call and returns
one SupportSweep of arrays (a value, point, witness and gap per row).  A
sweep needs only the top eigenpair and the second eigenvalue, so its
kernel `_top_pairs` takes every eigenvalue from eigvalsh and the top
eigenvector from two batched solves of shifted inverse iteration; only
rows with a degenerate top eigenvalue, or a residual above a tolerance set
from the dtype, run eigh.  Those rows also keep their top eigenspace, whose
compressed operators span that face of W.

A qutrit triple's flat faces (`classify_qutrit_jnr`) are found from one 3x3
real matrix per direction: the Bloch components B of the operators
compressed to the top-two eigenspace.  A normal n is flat iff B n = 0,
Gauss-Newton steps solve that, and the rank of B is the face's dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import PAULI_X, PAULI_Y, PAULI_Z, as_hermitian, stack_map

DEGENERACY_GAP = 1e-10
FLAT_GAP = 1e-8
FACE_GAP = 1e-7  # relative, as the gap; > DEGENERACY_GAP so every degenerate row keeps its face
FACE_MERGE_TOL = 1e-6
FACE_RANK_TOL = 1e-6
FACE_DIRS = 60  # directions sampled on each face
FACE_SEED = 1
CANDIDATE_GAP = 0.2  # sweep gaps up to this are polished as flat-face candidates
COMMON_EIGVEC_TOL = 1e-8
POLISH_MAXITER = 50
POLISH_STEP_TOL = 1e-14  # a polish row whose Gauss-Newton step is this short has stopped moving
ONE_SHOT_TOL = 1e-9  # signed distance from 0 to the eigenvalue hull that still counts as inside
# top-pair kernel, times d * scale: the inverse-iteration shift above lambda_max,
# and the largest residual |Hv - lambda v| it accepts before falling back to eigh
TOP_SHIFT = 8 * np.finfo(float).eps
TOP_RESIDUAL = 64 * np.finfo(float).eps
SPAN_MARGIN = 1e-8  # relative: the least null-vector entry that certifies positive spanning


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


def _top_pairs(mats):
    """Eigenvalues (ascending), top eigenvectors and wide top eigenspaces of a
    stack (n, d, d) of Hermitian matrices.

    eigvalsh gives each row's eigenvalues.  Two batched solves of shifted
    inverse iteration (Ipsen, SIAM Rev. 39, 254 (1997)), with the shift
    TOP_SHIFT * d * scale above the top eigenvalue and one fixed start vector,
    give the top eigenvector; scale is the row's largest |eigenvalue|.  A row
    whose top eigenspace within FACE_GAP is wider than one, or whose residual
    |Hv - lambda v| exceeds TOP_RESIDUAL * d * scale, is solved again by eigh,
    and a wide one returns that eigenspace as {row: (d, w) basis, the witness
    last}.  Every row rounds the same in any stack.
    """
    n, d = mats.shape[:2]
    w = np.linalg.eigvalsh(mats)
    scale = np.maximum(np.maximum(np.abs(w[:, -1]), np.abs(w[:, 0])), 1e-30)
    width = (w >= w[:, -1:] - FACE_GAP * scale[:, None]).sum(axis=1)
    shifted = mats - (w[:, -1] + TOP_SHIFT * d * scale)[:, None, None] * np.eye(d)
    # a fixed generic real start: real matrices keep real witnesses
    v = np.broadcast_to(np.random.default_rng(0).standard_normal((d, 1)), (n, d, 1)).astype(complex)
    try:
        for _ in range(2):  # one solve leaves the witness off by (shift / gap) in relative terms
            v = np.linalg.solve(shifted, v)
            v /= np.linalg.norm(v, axis=1, keepdims=True)
    except np.linalg.LinAlgError:  # an exactly singular shifted row: eigh solves every row
        v = np.full((n, d, 1), np.nan, dtype=complex)
    residual = np.linalg.norm((mats @ v)[:, :, 0] - w[:, -1:] * v[:, :, 0], axis=1)
    top = v[:, :, 0]
    redo = np.flatnonzero((width > 1) | ~(residual <= TOP_RESIDUAL * d * scale))
    faces = {}
    if redo.size:
        vecs = np.linalg.eigh(mats[redo])[1]
        top[redo] = vecs[:, :, -1]
        for row, basis in zip(redo.tolist(), vecs):
            if width[row] > 1:
                faces[row] = basis[:, d - width[row]:]
    return w, top, faces


def support_batch(ops, directions):
    """The support function of W(ops) on each row of `directions`, as one SupportSweep.

    Each row is normalised; its value is lambda_max(sum n_i X_i) and its
    point the tuple Re<v|X_i|v> over the top eigenvector v, both from the
    top-pair kernel `_top_pairs`.  The operators are validated once per
    call, and the solves run stacked through `core.stack_map`: in chunks
    that share core.STACK_ENTRIES matrix entries among the threads that run
    them, threaded from d = core.THREAD_MIN_DIM on.  Every row rounds the
    same in any chunk, so the sweep does not depend on the worker count.  A
    set of zero rows gives empty arrays.
    """
    # the Hermitian part, which the solves see as eigvalsh does (exact for Hermitian input)
    ops = [(x + x.conj().T) / 2 for x in map(as_hermitian, ops)]
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

    def solve(chunk):
        n = sweep.directions[chunk]
        w, top, faces = _top_pairs(sum(n[:, i, None, None] * x for i, x in enumerate(ops)))
        # one (1, d) @ (d, d) product per row, so a row rounds the same in every chunk
        row = top.conj()[:, None, :]
        sweep.points[chunk] = np.stack([((row @ x)[:, 0] * top).sum(axis=1).real for x in ops], axis=1)
        sweep.values[chunk], sweep.witnesses[chunk] = w[:, -1], top
        scale = np.maximum(np.maximum(np.abs(w[:, -1]), np.abs(w[:, 0])), 1e-30)
        sweep.gaps[chunk] = (w[:, -1] - w[:, -2]) / scale if d > 1 else np.inf
        return {chunk.start + r: basis for r, basis in faces.items()}

    for faces in stack_map(solve, len(rows), d):  # chunks write disjoint rows; faces merge in row order
        sweep.faces.update(faces)
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
        meta={"method": "support-sweep", "faces": len(rows)},
    )


def _positively_spanning(normals):
    """True iff no direction u != 0 has n_i . u <= 0 for all i (outer set bounded).

    The normals positively span R^k iff they have rank k and some lambda >= 1
    gives N^T lambda = 0 (Davis, Amer. J. Math. 76 (1954)).  A superset of a
    positively spanning set spans positively, so the k + 1 normals farthest
    along e_1, ..., e_k and -(1, ..., 1) decide most sets at once: if their
    k x (k + 1) matrix has a null vector whose entries share one sign with a
    margin above its rounding error, the answer is True.  Every other set
    goes to linprog.
    """
    k = normals.shape[1]
    if len(normals) < k + 1 or np.linalg.matrix_rank(normals) < k:
        return False
    picked = normals[np.append(normals.argmax(axis=0), normals.sum(axis=1).argmin())]
    _, s, vt = np.linalg.svd(picked.T)  # s has k entries; vt[-1] spans the null space when s[-1] > 0
    lam = vt[-1] * np.sign(vt[-1, 0])
    # the computed null vector is off by about eps * s[0] / s[-1] in each entry
    if (lam.min() - SPAN_MARGIN * np.abs(lam).max()) * s[-1] > 64 * k * np.finfo(float).eps * s[0]:
        return True
    from scipy.optimize import linprog  # deferred: importing qgeom loads no scipy

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


def _top_pair(ops, n):
    """Relative top-two gaps of n.X and Bloch matrices of the top-two eigenspaces, per row of n.

    With V the top two eigenvectors, B[p, i] = Tr(sigma_p V^dag X_i V) / 2.
    The compression of m.X to span V is a multiple of the identity iff
    B m = 0.  At a flat normal (B n = 0) the face of W it exposes is an
    affine image of the Bloch ball under B^T, of dimension rank B.
    """
    w, v = np.linalg.eigh(sum(n[:, i, None, None] * x for i, x in enumerate(ops)))
    top = v[:, :, -2:]
    reduced = np.stack([top.conj().transpose(0, 2, 1) @ x @ top for x in ops], axis=-1)
    bloch = np.einsum("rlki,pkl->rpi", reduced, np.stack([PAULI_X, PAULI_Y, PAULI_Z])).real / 2
    gap = (w[:, -1] - w[:, -2]) / np.maximum(np.abs(w[:, [0, -1]]).max(axis=1), 1e-30)
    return gap, bloch


def _polish_flat_directions(ops, starts):
    """Flat-face candidates taken to a degeneracy: (unit normals, relative gaps, Bloch matrices).

    Gauss-Newton on B(n) m = 0: up to O(|m - n|^2) the top two eigenvalues
    of m.X are those of its compression to the top-two eigenspace of n.X, so
    a step moves n to the last right singular vector of B(n), taken on n's
    side.  All starts advance together, one stacked svd and eigh per step.
    A row below FLAT_GAP stops at the first step that does not lower its
    gap, and keeps the point before it; a row stops after a step no longer
    than POLISH_STEP_TOL, and every row after POLISH_MAXITER steps.  Gaps
    and B are those at the returned normals.
    """
    n = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    gap, bloch = _top_pair(ops, n)
    live = np.arange(len(n))
    for _ in range(POLISH_MAXITER):
        m = np.linalg.svd(bloch[live])[2][:, -1]
        m *= np.where((m * n[live]).sum(axis=1) < 0, -1.0, 1.0)[:, None]
        g, b = _top_pair(ops, m)
        moving = np.linalg.norm(m - n[live], axis=1) > POLISH_STEP_TOL
        take = (g < gap[live]) | (gap[live] >= FLAT_GAP)
        live = live[take]
        n[live], gap[live], bloch[live] = m[take], g[take], b[take]
        live = live[moving[take]]
        if not len(live):
            break
    return n, gap, bloch


def classify_qutrit_jnr(x1, x2, x3, sweep=2000):
    """Count elliptic (e) and segment (s) flat faces of a qutrit triple's range.

    Flat directions are located by sweeping the sphere for small top-two
    eigenvalue gaps, polishing all candidates (gap <= CANDIDATE_GAP) together
    by Gauss-Newton, keeping those below FLAT_GAP, and merging polished
    normals within FACE_MERGE_TOL, in order of increasing sweep gap.  A
    face's dimension is the rank of the Bloch matrix at its normal.
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
    normals, polished, bloch = _polish_flat_directions(ops, swept.directions[order])
    rejected = polished >= FLAT_GAP
    faces = []
    for i in np.flatnonzero(~rejected):
        if any(np.linalg.norm(normals[i] - f.normal) < FACE_MERGE_TOL for f in faces):
            continue
        # B n = 0 at a flat normal, so the rank of B is that of its two top singular values
        sv = np.linalg.svd(bloch[i], compute_uv=False)
        dim = 0 if sv[0] < 1e-12 else int((sv[:2] > FACE_RANK_TOL * sv[0]).sum())
        shape = ("point", "segment", "ellipse")[dim]
        faces.append(FlatFace(normal=normals[i], dim=dim, shape=shape, gap=float(polished[i])))
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
