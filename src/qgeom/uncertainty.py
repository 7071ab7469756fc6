"""Tight additive uncertainty bounds.

The minimum of Delta^2 X + Delta^2 Y over all states equals the minimum of
g(a, b) = lambda_min((X - a)^2 + (Y - b)^2) over the box [lambda_min X,
lambda_max X] x [lambda_min Y, lambda_max Y], which holds (<X>, <Y>) of
every state.  h = g - a^2 - b^2 is concave, so on a triangle or a segment g
lies above the chord interpolation of h plus a^2 + b^2, a convex quadratic
whose minimum has a closed form.  One branch and bound over such simplices
gives the certified lower side, and the ground vector at its best vertex
attains the upper side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .core import as_density, as_hermitian, stack_chunks


BRACKET_TOL = 1e-11  # relative to max(1, |upper|): the bracket the search closes to
FLOOR = 2  # times the allowance: the narrowest bracket the search aims for
EVALUATION_CAP = 2**15  # eigensolves, after which the search stops unconverged
RADIAL_TOL = 1e-9  # relative to the operator scale: largest residual of an accepted rotation
ROUNDING = 4 * np.finfo(float).eps  # times dim * scale: float error of one lambda_min


@dataclass
class VarianceBound:
    """Bracket [sector_bound, value] on min over states of Delta^2 X + Delta^2 Y.

    `value` is the variance sum that `certificate_state` attains and
    `minimizer` its (<X>, <Y>).  `sector_bound` is the search's certified
    lower side and `delta` = value - sector_bound, rounded up so that
    sector_bound <= value <= sector_bound + delta holds in floating point.
    `meta` holds the `method` ("radial" or "planar"), the number of
    `evaluations` (eigensolves) and whether the search `converged`.
    """

    value: float
    minimizer: tuple  # (<X>, <Y>) of the certificate state
    certificate_state: np.ndarray
    sector_bound: float
    delta: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.certificate_state = as_density(self.certificate_state)


def min_sum_variances(x, y):
    """Branch and bound on g over simplices, split at their longest edge.

    The start mesh is one segment along a radius when `_rotation` finds
    (X, Y) rotation-symmetric, since g is then constant on circles about
    (a0, b0); otherwise two triangles cover the box.  Vertex values of h are
    lowered by the allowance ROUNDING * dim * scale (plus the rotation's
    residual bound), and each simplex's bound is the minimum of the chord
    quadratic.  Each round drops the simplices whose bound is within the
    target of the least evaluated g, splits the rest at their longest edge
    and evaluates the new midpoints in one stacked eigvalsh.  It stops when
    no simplex is left, i.e. upper - lower <= target with target =
    max(BRACKET_TOL * max(1, |upper|), FLOOR * allowance), or before it would
    exceed EVALUATION_CAP eigensolves.
    """
    x, y = as_hermitian(x), as_hermitian(y)
    if x.shape != y.shape:
        raise ValueError("operators must have equal dimensions")
    dim = x.shape[0]
    wx, wy = np.linalg.eigvalsh(x), np.linalg.eigvalsh(y)
    rotation = _rotation(x, y)
    if rotation is None:
        method, slack = "planar", 0.0
        pts = np.array([[wx[0], wy[0]], [wx[-1], wy[0]], [wx[-1], wy[-1]], [wx[0], wy[-1]]])
        simplices = np.array([[0, 1, 2], [0, 2, 3]])
    else:
        # a turn by |theta| <= pi takes any point of the box to the ray at radius r <= radius;
        # it moves A = X - a0 and B = Y - b0 by at most pi e each, so (A - r)^2 + B^2 moves by at
        # most 2 pi e (ra + r + rb) + 2 (pi e)^2: the slack between g there and on the ray
        a0, b0, e = rotation
        ra, rb = max(a0 - wx[0], wx[-1] - a0), max(b0 - wy[0], wy[-1] - b0)
        radius = np.hypot(ra, rb)
        method, slack = "radial", 2 * np.pi * e * (ra + rb + radius) + 2 * (np.pi * e) ** 2
        pts = np.array([[a0, b0], [a0 + radius, b0]])
        simplices = np.array([[0, 1]])
    sq = x @ x + y @ y
    amax, bmax = np.abs(pts).max(axis=0)
    scale = 1.0 + np.linalg.norm(sq) + 2 * (amax * np.linalg.norm(x) + bmax * np.linalg.norm(y))
    allowance = ROUNDING * dim * scale + slack
    pairs = list(combinations(range(simplices.shape[1]), 2))

    h = _lambda_min(sq, x, y, pts)
    edges = {}  # (vertex, vertex) -> midpoint, so that neighbours share it
    dropped = np.inf  # least bound of the dropped simplices
    while True:
        g = h + (pts * pts).sum(axis=1)
        upper = g.min()
        target = max(BRACKET_TOL * max(1.0, abs(upper)), FLOOR * allowance)
        bounds = _simplex_bounds(pts[simplices], h[simplices] - allowance)
        lower = min(dropped, bounds.min())
        # one comparison decides both pruning and the stop: a separate test of upper - lower <= target
        # can disagree with it by one rounding and leave no simplex to split
        live = bounds < upper - target
        converged = not live.any()
        if converged:
            break
        dropped = min(dropped, bounds[~live].min(initial=np.inf))
        simplices = simplices[live]
        ends = np.array(pairs)[np.argmax([np.linalg.norm(pts[simplices[:, i]] - pts[simplices[:, j]], axis=1)
                                          for i, j in pairs], axis=0)]
        rows = np.arange(len(simplices))
        keys = np.sort(simplices[rows[:, None], ends], axis=1)
        mids, new = np.empty(len(keys), dtype=np.int64), []
        for r, key in enumerate(map(tuple, keys.tolist())):
            if key not in edges:
                edges[key] = len(pts) + len(new)
                new.append(key)
            mids[r] = edges[key]
        if len(pts) + len(new) > EVALUATION_CAP:
            break
        # the live simplices may all split at midpoints their neighbours made already: then new is empty
        new = np.array(new, dtype=np.int64).reshape(-1, 2)
        fresh = (pts[new[:, 0]] + pts[new[:, 1]]) / 2
        pts, h = np.concatenate([pts, fresh]), np.concatenate([h, _lambda_min(sq, x, y, fresh)])
        first, second = simplices.copy(), simplices.copy()
        first[rows, ends[:, 1]] = mids
        second[rows, ends[:, 0]] = mids
        simplices = np.concatenate([first, second])

    a, b = pts[np.argmin(g)]
    w, v = np.linalg.eigh(sq - 2 * (a * x + b * y))
    psi = v[:, 0]
    at = np.array([np.vdot(psi, x @ psi).real, np.vdot(psi, y @ psi).real])
    value = max(float(w[0] + a * a + b * b - (a - at[0]) ** 2 - (b - at[1]) ** 2), 0.0)
    delta = value - lower
    if lower + delta < value:
        delta = np.nextafter(delta, np.inf)
    return VarianceBound(
        value=value,
        minimizer=(float(at[0]), float(at[1])),
        certificate_state=np.outer(psi, psi.conj()),
        sector_bound=float(lower),
        delta=float(delta),
        meta={"method": method, "evaluations": len(pts), "converged": converged},
    )


def _lambda_min(sq, x, y, pts):
    """h(a, b) = lambda_min(X^2 + Y^2 - 2aX - 2bY) at each row (a, b) of pts."""
    out = np.empty(len(pts))
    for c in stack_chunks(len(pts), sq.shape[0]):
        a, b = pts[c, 0, None, None], pts[c, 1, None, None]
        out[c] = np.linalg.eigvalsh(sq - 2 * (a * x + b * y))[:, 0]
    return out


def _simplex_bounds(v, h):
    """Minimum over each simplex of (chord interpolation of h) + |p|^2.

    v is (n, k, 2) with k = 2 (segments) or 3 (triangles) and h is (n, k).
    The minimum lies on an edge, where the quadratic is 1D and clamped to
    the edge, or, for a triangle, at the unconstrained minimiser p* = -c/2
    of h0 + c.(p - v0) + |p|^2 when p* is inside.
    """
    best = np.full(len(v), np.inf)
    for i, j in combinations(range(v.shape[1]), 2):
        e, dh = v[:, j] - v[:, i], h[:, j] - h[:, i]
        ee = (e * e).sum(axis=1)
        t = np.clip(-(dh + 2 * (v[:, i] * e).sum(axis=1)) / (2 * np.where(ee > 0, ee, 1.0)), 0.0, 1.0)
        p = v[:, i] + t[:, None] * e
        best = np.minimum(best, h[:, i] + t * dh + (p * p).sum(axis=1))
    if v.shape[1] == 3:
        e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        d1, d2 = h[:, 1] - h[:, 0], h[:, 2] - h[:, 0]
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        safe = np.where(cross != 0, cross, 1.0)
        c = np.stack([e2[:, 1] * d1 - e1[:, 1] * d2, e1[:, 0] * d2 - e2[:, 0] * d1], axis=1) / safe[:, None]
        w = -c / 2 - v[:, 0]  # p* - v0 = s e1 + t e2
        s = (w[:, 0] * e2[:, 1] - w[:, 1] * e2[:, 0]) / safe
        t = (e1[:, 0] * w[:, 1] - e1[:, 1] * w[:, 0]) / safe
        inside = (cross != 0) & (s >= 0) & (t >= 0) & (s + t <= 1)
        best = np.where(inside, np.minimum(best, h[:, 0] + (c * w).sum(axis=1) + (c * c).sum(axis=1) / 4), best)
    return best


def _rotation(x, y):
    """(a0, b0, e) when a Hermitian Z rotates (X - a0, Y - b0) into itself, else None.

    a0 = Tr X / d and b0 = Tr Y / d.  Z solves [Z, X] = i(Y - b0) entrywise
    in X's eigenbasis; the part of Z that commutes with X is then fixed from
    [Z, Y] = -i(X - a0) by least squares.  e is the hypotenuse of the two
    residuals' spectral norms, and Z is accepted when e <= RADIAL_TOL *
    scale.  Then e^{i theta Z} turns (X - a0, Y - b0) by theta up to an
    error of norm |theta| e, so g is constant on circles about (a0, b0) up
    to the slack that `min_sum_variances` derives from e.
    """
    d = x.shape[0]
    eye = np.eye(d)
    a0, b0 = np.trace(x).real / d, np.trace(y).real / d
    tol = RADIAL_TOL * (1.0 + np.linalg.norm(x) + np.linalg.norm(y))
    w, v = np.linalg.eigh(x)
    yt = v.conj().T @ (y - b0 * eye) @ v
    gap = w[None, :] - w[:, None]  # w_n - w_m at (m, n)
    free = np.abs(gap) <= tol
    if np.linalg.norm(yt[free]) > tol:  # [Z, X] vanishes between equal eigenvalues of X
        return None
    z = np.where(free, 0, 1j * yt / np.where(free, 1.0, gap))
    target = -1j * np.diag(w - a0) - (z @ yt - yt @ z)  # T = [F, Y~] for the free part F
    if np.linalg.norm(target) > tol:
        # one unknown per free entry; T is anti-Hermitian, so the Hermitian part of a solution solves too
        m, n = np.nonzero(free)
        basis = np.zeros((len(m), d, d))
        basis[np.arange(len(m)), m, n] = 1.0
        comm = (basis @ yt - yt @ basis).reshape(len(m), -1).T
        z = z + np.tensordot(np.linalg.lstsq(comm, target.ravel(), rcond=None)[0], basis, axes=1)
    z = v @ z @ v.conj().T
    z = (z + z.conj().T) / 2
    e = np.hypot(np.linalg.norm(z @ x - x @ z - 1j * (y - b0 * eye), 2),
                 np.linalg.norm(z @ y - y @ z + 1j * (x - a0 * eye), 2))
    return (a0, b0, float(e)) if e <= tol else None
