"""Tight additive uncertainty bounds.

The minimum of Delta^2 X + Delta^2 Y over all states equals the minimum
over real (x, y) of lambda_min((X - x)^2 + (Y - y)^2).  Linear sector
approximants of variance bracket it: a branch and bound over sector pairs
gives the certified c, and a polish from the best pair an attained value
in [c, c + delta].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_density, as_hermitian, stack_chunks


POLISH_STEPS = 100  # cap on the steps of the variance polish
PRUNE_MARGIN = 1e-9  # relative to the operator scale; far above eigensolve rounding
ROUNDING = 4 * np.finfo(float).eps  # times dim * scale: float error of one lambda_min(X_i + Y_j)


@dataclass
class VarianceBound:
    """Bracket [sector_bound, value] on min over states of Delta^2 X + Delta^2 Y.

    `value` = lambda_min((X - x*)^2 + (Y - y*)^2) at `minimizer` (x*, y*),
    attained by its ground vector `certificate_state`.  `sector_bound` is
    c - e and `delta` is delta_X + delta_Y + 2 e, for c and e from
    `_sector_search` and the partitions' deltas, so sector_bound <= value <=
    sector_bound + delta holds in floating point.
    """

    value: float
    minimizer: tuple  # (x*, y*)
    certificate_state: np.ndarray
    sector_bound: float
    delta: float

    def __post_init__(self):
        self.certificate_state = as_density(self.certificate_state)


def min_sum_variances(x, y, sector_tol=1e-4):
    """Polish the sector search's best pair (i, j) into an attained value.

    Partitions come from `default_partition(., sector_tol)`.  The ground
    vector psi of X_i + Y_j attains at most c + delta, since Delta^2 X -
    <X_i> = -(u - a)(u - b) <= (b - a)^2 / 4 at u = <X>.  A step sets
    (a, b) = (<X>, <Y>) in psi and psi to the ground vector of (X - a)^2 +
    (Y - b)^2; each lambda_min bounds the next psi's variance sum, which
    bounds the next lambda_min.  That step is gradient descent on
    g(a, b) = lambda_min, so where the ground level is simple and g's
    perturbative Hessian positive definite, the same stacked eigh also
    tries g's Newton point and keeps the lower.  The polish stops when the
    value stops falling, or after POLISH_STEPS.
    """
    x, y = as_hermitian(x), as_hermitian(y)
    if x.shape != y.shape:
        raise ValueError("operators must have equal dimensions")
    px, py = default_partition(x, sector_tol), default_partition(y, sector_tol)
    c, err, (i, j) = _sector_search(x, y, px, py)
    (a, b), (s, t) = px.sectors()[i], py.sectors()[j]
    psi = np.linalg.eigh(sector_bound_operator(x, a, b) + sector_bound_operator(y, s, t))[1][:, 0]
    ops, eye = np.stack([x, y]), np.eye(x.shape[0])
    cands, value = np.einsum("i,kij,j->k", psi.conj(), ops, psi).real[None], np.inf
    for _ in range(POLISH_STEPS):
        sh = ops - cands[:, :, None, None] * eye  # X - a and Y - b per candidate (a, b)
        lam, vecs = np.linalg.eigh(sh[:, 0] @ sh[:, 0] + sh[:, 1] @ sh[:, 1])
        k = np.argmin(lam[:, 0])
        if lam[k, 0] >= value:
            break
        value, point, w, psi = lam[k, 0], cands[k], lam[k], vecs[k][:, 0]
        elems = np.einsum("im,kij,j->km", vecs[k].conj(), ops, psi)  # <m|X|0>, <m|Y|0>
        cands = elems[None, :, 0].real
        if len(w) > 1 and w[1] - w[0] > 1e-9 * max(1.0, abs(w).max()):
            off = elems[:, 1:]
            hess = 2 * np.eye(2) - 8 * np.real((off / (w[1:] - w[0])) @ off.conj().T)
            if hess[0, 0] > 0 and np.linalg.det(hess) > 1e-12:
                newton = point - np.linalg.solve(hess, 2 * (point - cands[0]))
                cands = np.stack([cands[0], newton])
    return VarianceBound(
        value=max(float(value), 0.0),
        minimizer=(float(point[0]), float(point[1])),
        certificate_state=np.outer(psi, psi.conj()),
        sector_bound=c - err,
        delta=px.delta + py.delta + 2 * err,
    )


def sector_bound_operator(x, a, b):
    """A_(a,b) = X^2 - (a+b) X + ab; <A> <= Delta^2 X whenever a <= <X> <= b."""
    if a > b:
        raise ValueError(f"sector requires a <= b, got ({a}, {b})")
    x = as_hermitian(x)
    return x @ x - (a + b) * x + a * b * np.eye(x.shape[0])


def _sector_operators(x, p):
    """(ops, s, ab): sector_bound_operator(x, a, b) of every sector of p, stacked,
    with the sector sums s = a + b and products ab = a b."""
    sec = np.array(p.sectors())
    s, ab = sec.sum(axis=1), sec.prod(axis=1)
    return x @ x - s[:, None, None] * x + ab[:, None, None] * np.eye(x.shape[0]), s, ab


@dataclass(frozen=True)
class SectorPartition:
    """Increasing breakpoints that contain every eigenvalue of the bound operator."""

    breakpoints: tuple

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        if len(bp) < 2 or any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing, length >= 2")
        object.__setattr__(self, "breakpoints", bp)

    @property
    def delta(self):
        """(max sector width / 2)^2, the one-operator approximation error."""
        gaps = np.diff(self.breakpoints)
        return float((gaps.max() / 2) ** 2)

    def covers(self, x, tol=1e-10):
        w = np.linalg.eigvalsh(as_hermitian(x))
        bp = np.array(self.breakpoints)
        return bool(
            np.all(np.min(np.abs(w[:, None] - bp[None, :]), axis=1) <= tol)
            and bp[0] <= w[0] + tol
            and w[-1] <= bp[-1] + tol
        )

    def sectors(self):
        return list(zip(self.breakpoints[:-1], self.breakpoints[1:]))


def default_partition(x, tol=1e-4):
    """Eigenvalues of X, midpoint-refined until delta falls below tol.

    An operator proportional to the identity gets the sectors
    [w - 1e-8, w] and [w, w + 1e-8] around its one eigenvalue w.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"sector tolerance must be positive and finite, got {tol}")
    w = np.linalg.eigvalsh(as_hermitian(x))
    bp = sorted(set(np.round(w, 12)))
    if len(bp) == 1:
        bp = [bp[0] - 1e-8, bp[0], bp[0] + 1e-8]
    bp = np.array(bp, dtype=float)
    while (np.diff(bp).max() / 2) ** 2 > tol:
        mids = (bp[:-1] + bp[1:]) / 2
        bp = np.sort(np.concatenate([bp, mids]))
    return SectorPartition(tuple(bp))


def _chord_minima(lo, hi, coord, const, slopes):
    """min over k in [lo, hi] of slope * u_k + const_k, per block and slope.

    u_k = (coord_k - coord_lo) / (coord_hi - coord_lo) runs from 0 to 1 over
    the block (0 where the block has one coordinate value).  lo and hi are
    (B,) index arrays, slopes is (B, P); the result is (B, P).  Ranges are
    padded to the longest by repeating hi, which leaves each minimum alone.
    """
    idx = np.minimum(lo[:, None] + np.arange((hi - lo).max() + 1), hi[:, None])
    span = coord[hi] - coord[lo]
    u = (coord[idx] - coord[lo][:, None]) / np.where(span > 0, span, 1.0)[:, None]
    return (slopes[:, :, None] * u[:, None, :] + const[idx][:, None, :]).min(axis=2)


def _sector_search(x, y, px: SectorPartition, py: SectorPartition):
    """(c, e, (i, j)): c = lambda_min(X_i + Y_j), the least over sector pairs.

    c is the same float as an eigensolve of every pair would give, found
    by branch and bound over the (i, j) index grid.  With s_i = a_i + b_i
    and t_j = c_j + d_j, X_i + Y_j = X^2 + Y^2 - s_i X - t_j Y + a_i b_i +
    c_j d_j, so lambda_min(X_i + Y_j) = h(s_i, t_j) + a_i b_i + c_j d_j with
    h(s, t) = lambda_min(X^2 + Y^2 - s X - t Y) concave.  On a block of
    indices h lies above the chords of its four corners on the two
    triangles of the concave triangulation, hence above the smaller of the
    two planes; plus the constants, that is separable, and its minimum
    over the block is two 1D minima per plane.  Each round evaluates the
    new corners of all live blocks in one stacked eigensolve, drops the
    blocks whose bound exceeds the best value by PRUNE_MARGIN times the
    operator scale, and halves the rest along their longer side.  Every
    pair is thus evaluated or lies in a block whose bound exceeds c by
    more than rounding.  e = ROUNDING * dim * scale allows for the float
    error of assembling X_i + Y_j and of its eigvalsh, each a small
    multiple of dim * eps * scale.
    """
    x = as_hermitian(x)
    y = as_hermitian(y)
    if not px.covers(x):
        raise ValueError("X partition does not contain the spectrum of X")
    if not py.covers(y):
        raise ValueError("Y partition does not contain the spectrum of Y")
    (xs, s, ab), (ys, t, cd) = _sector_operators(x, px), _sector_operators(y, py)
    n, dim = len(ys), x.shape[0]
    scale = 1.0 + np.linalg.norm(xs, axis=(1, 2)).max() + np.abs(ab).max()
    scale += np.linalg.norm(ys, axis=(1, 2)).max() + np.abs(cd).max()
    margin = PRUNE_MARGIN * scale

    keys = np.empty(0, dtype=np.int64)  # evaluated pairs i * n + j, sorted
    vals = np.empty(0)
    best, arg = np.inf, None
    blocks = np.array([[0, len(xs) - 1, 0, n - 1]])  # rows (i0, i1, j0, j1)
    while len(blocks):
        i0, i1, j0, j1 = blocks.T
        corners = np.stack([i0 * n + j0, i1 * n + j0, i0 * n + j1, i1 * n + j1], axis=1)
        new = np.setdiff1d(corners, keys)
        if len(new):
            ii, jj = np.divmod(new, n)
            got = np.concatenate(
                [np.linalg.eigvalsh(xs[ii[c]] + ys[jj[c]])[:, 0] for c in stack_chunks(len(new), dim)]
            )
            if got.min() < best:
                best, arg = got.min(), new[got.argmin()]
            keys = np.concatenate([keys, new])
            order = np.argsort(keys)
            keys, vals = keys[order], np.concatenate([vals, got])[order]
        ci, cj = np.divmod(corners, n)
        h00, h10, h01, h11 = (vals[np.searchsorted(keys, corners)] - ab[ci] - cd[cj]).T
        # the two planes of the concave triangulation, which cuts along the
        # diagonal with the larger mean; each is offset + su * u + sv * v for
        # block coordinates u, v running from 0 to 1
        main = h00 + h11 >= h10 + h01
        offsets = np.stack([h00, np.where(main, h00, h01 + h10 - h11)], axis=1)
        su = np.stack([h10 - h00, h11 - h01], axis=1)
        sv = np.stack([np.where(main, h11 - h10, h01 - h00), np.where(main, h01 - h00, h11 - h10)], axis=1)
        bound = (offsets + _chord_minima(i0, i1, s, ab, su) + _chord_minima(j0, j1, t, cd, sv)).min(axis=1)
        live = (bound <= best + margin) & ((i1 - i0 > 1) | (j1 - j0 > 1))
        # halve each live block along its longer side; the halves share the middle line
        rows = np.flatnonzero(live)
        lo = np.where(i1 - i0 >= j1 - j0, 0, 2)[rows]  # column of the split range's low end
        mid = (blocks[rows, lo] + blocks[rows, lo + 1]) // 2
        first, second = blocks[rows], blocks[rows]
        first[np.arange(len(rows)), lo + 1] = mid
        second[np.arange(len(rows)), lo] = mid
        blocks = np.concatenate([first, second])
    return float(best), float(ROUNDING * dim * scale), tuple(int(k) for k in divmod(arg, n))
