"""Exact-diagonalization spin chains, ground-state curves of H + lambda*V,
jump detection, and spectral-gap upper bounds.

Operators are scipy CSR matrices (a 14-site chain is 16384 dimensional),
assembled directly from Pauli strings as signed permutations.  Extremal
eigenpairs are dense up to 2^9 and seeded Lanczos above; the Lanczos path
never densifies.  Full spectra are computed per invariant block (connected
component of the sparsity graph) and capped at 2^12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .numrange import support_batch

MAX_SITES = 14
DENSE_LIMIT = 512  # largest dimension diagonalized densely for eigenpairs
FULL_SPECTRUM_LIMIT = 4096


class ChainTooLargeError(ValueError):
    pass


class PlateauError(RuntimeError):
    """The curve does not start in a constant-ground-state plateau."""


@dataclass(frozen=True)
class SpinChainSpec:
    """Sum of local Pauli strings: terms are (site indices, labels, coefficient)."""

    sites: int
    terms: tuple

    def __post_init__(self):
        if not 1 <= self.sites <= MAX_SITES:
            raise ChainTooLargeError(f"sites must be in 1..{MAX_SITES}, got {self.sites}")
        terms = []
        for sites_t, labels_t, coeff in self.terms:
            sites_t = tuple(int(s) for s in sites_t)
            labels_t = tuple(str(l).lower() for l in labels_t)
            if len(set(sites_t)) != len(sites_t):
                raise ValueError(f"term sites must be distinct: {sites_t}")
            if any(not 0 <= s < self.sites for s in sites_t):
                raise ValueError(f"term site out of range: {sites_t}")
            if any(l not in "ixyz" for l in labels_t):
                raise ValueError(f"unknown Pauli label in {labels_t}")
            if len(sites_t) != len(labels_t):
                raise ValueError("one label per site required")
            terms.append((sites_t, labels_t, complex(coeff)))
        object.__setattr__(self, "terms", tuple(terms))


def build_chain(spec: SpinChainSpec):
    """Assemble the sparse operator (site 0 is the most significant bit); validated Hermitian.

    A Pauli string maps basis state r to r ^ flip (flip covers its x/y
    sites) with amplitude coeff * i^#y * (-1)^(parity of r on its y/z sites).
    """
    n = spec.sites
    dim = 2**n
    r = np.arange(dim)
    rows, vals = [r[:0]], [np.zeros(0, dtype=complex)]
    for sites_t, labels_t, coeff in spec.terms:
        flip = 0
        parity = np.zeros(dim, dtype=r.dtype)
        phase = coeff
        for s, l in zip(sites_t, labels_t):
            bit = n - 1 - s
            if l in "xy":
                flip |= 1 << bit
            if l in "yz":
                parity ^= (r >> bit) & 1
            if l == "y":
                phase *= 1j
        rows.append(r ^ flip)
        vals.append(np.where(parity == 1, -phase, phase))
    cols = np.tile(r, len(spec.terms))
    h = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), cols)), shape=(dim, dim)).tocsr()
    h.eliminate_zeros()
    h.data += 0.0  # -0.0 -> +0.0 in real/imaginary parts, as a Kronecker product gives
    if spla.norm(h - h.conj().T) > 1e-9 * max(spla.norm(h), 1.0):
        raise ValueError("assembled chain operator is not Hermitian")
    return h


def _bond_taper(n_bonds, bond):
    # linear ramp over the two outermost bonds on each side
    return min(1.0, (bond + 1) / 3.0, (n_bonds - bond) / 3.0)


def xy_hamiltonian(n_sites, gamma, taper=False):
    """Open-boundary XY chain with asymmetry gamma (Pauli convention)."""
    if not 3 <= n_sites <= MAX_SITES:
        raise ChainTooLargeError(f"sites must be in 3..{MAX_SITES}, got {n_sites}")
    terms = []
    for n in range(n_sites - 1):
        w = _bond_taper(n_sites - 1, n) if taper else 1.0
        terms.append(((n, n + 1), ("x", "x"), w * (1 + gamma) / 2))
        terms.append(((n, n + 1), ("y", "y"), w * (1 - gamma) / 2))
    return build_chain(SpinChainSpec(sites=n_sites, terms=tuple(terms)))


def gap_witness_v(n_sites, taper=False):
    """Three-site gaplessness witness: sum_n (x z y - y z x) on site triples."""
    if not 3 <= n_sites <= MAX_SITES:
        raise ChainTooLargeError(f"sites must be in 3..{MAX_SITES}, got {n_sites}")
    terms = []
    for n in range(1, n_sites - 1):
        w = _bond_taper(n_sites - 1, n) if taper else 1.0
        terms.append(((n - 1, n, n + 1), ("x", "z", "y"), w))
        terms.append(((n - 1, n, n + 1), ("y", "z", "x"), -w))
    return build_chain(SpinChainSpec(sites=n_sites, terms=tuple(terms)))


def _dense(m):
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def _lowest_pair(m):
    """(two lowest eigenvalues, ground vector); dense below DENSE_LIMIT."""
    dim = m.shape[0]
    if dim <= DENSE_LIMIT:
        w, v = np.linalg.eigh(_dense(m))
        return w[:2], v[:, 0]
    k = min(4, dim - 1)
    v0 = np.full(dim, 1.0 / np.sqrt(dim))
    try:
        w, v = spla.eigsh(m, k=k, which="SA", v0=v0, maxiter=5000)
    except spla.ArpackNoConvergence:
        if dim <= FULL_SPECTRUM_LIMIT:
            w, v = np.linalg.eigh(_dense(m))
        else:
            raise
    order = np.argsort(w)
    return w[order[:2]], v[:, order[0]]


@dataclass
class GroundCurve:
    """Ground-state data of H + lambda*V across a lambda grid."""

    lams: np.ndarray
    energies: np.ndarray
    e_h: np.ndarray
    e_v: np.ndarray
    degenerate: np.ndarray  # bool flags
    states: np.ndarray  # columns are ground vectors
    h: object = field(repr=False, default=None)
    v: object = field(repr=False, default=None)

    def __len__(self):
        return len(self.lams)


def ground_curve(h, v, lam_grid):
    """Lowest eigenpair of H + lambda*V per grid point, with degeneracy flags."""
    if h.shape != v.shape:
        raise ValueError("H and V must have equal dimensions")
    lams = np.asarray(lam_grid, dtype=float)
    if np.any(np.diff(lams) <= 0):
        raise ValueError("lambda grid must be strictly increasing")
    hs = sp.csr_matrix(h)
    vs = sp.csr_matrix(v)
    scale = max(spla.norm(hs), spla.norm(vs), 1.0)
    energies, ehs, evs, degs, states = [], [], [], [], []
    for lam in lams:
        m = hs + lam * vs
        w2, g = _lowest_pair(m)
        energies.append(w2[0])
        ehs.append(float(np.real(g.conj() @ (hs @ g))))
        evs.append(float(np.real(g.conj() @ (vs @ g))))
        degs.append(bool(w2[1] - w2[0] < 1e-9 * scale))
        states.append(g)
    return GroundCurve(
        lams=lams,
        energies=np.array(energies),
        e_h=np.array(ehs),
        e_v=np.array(evs),
        degenerate=np.array(degs),
        states=np.array(states).T,
        h=hs,
        v=vs,
    )


@dataclass
class GapReport:
    epsilon: float
    lambda_star: float
    true_gap: float | None
    consistent: bool | None  # true_gap <= epsilon + 1e-6 when both known
    plateau_drift: float  # max |<H>_lambda - <H>_0| over the plateau
    transient_crossings: int  # overlap dips that recovered before lambda*


def gap_upper_bound(curve: GroundCurve, true_gap_value=None, refine_iters=40):
    """Upper bound for the spectral gap from the jump of <H>_lambda.

    lambda* is the terminal departure of the ground state from the
    lambda=0 ground state (the last grid point with squared overlap >= 1/2;
    transient finite-size level crossings that recover are counted, not
    used).  The jump is refined by bisection on the overlap criterion and
    epsilon = <H> just past lambda* minus <H> at lambda = 0.
    """
    if len(curve) < 2:
        raise ValueError("curve needs at least two lambda samples")
    g0 = curve.states[:, 0]
    ovs = np.abs(g0.conj() @ curve.states) ** 2
    if ovs[1] < 0.5:
        raise PlateauError(
            "ground state leaves the initial state before the second grid point; "
            "no plateau, witness V unsuitable"
        )
    above = np.where(ovs >= 0.5)[0]
    last = int(above.max())
    if last == len(curve) - 1:
        raise PlateauError("ground state never departs on this grid; extend lambda range")
    first_drop = int(np.where(ovs < 0.5)[0][0])
    transients = int(np.sum((ovs[:last] < 0.5)))
    lo, hi = curve.lams[last], curve.lams[last + 1]

    def ground_at(lam):
        _, g = _lowest_pair(curve.h + lam * curve.v)
        return g

    for _ in range(refine_iters):
        mid = (lo + hi) / 2
        g = ground_at(mid)
        if abs(np.vdot(g0, g)) ** 2 < 0.5:
            hi = mid
        else:
            lo = mid
    g_after = ground_at(hi)
    eh_after = float(np.real(g_after.conj() @ (curve.h @ g_after)))
    epsilon = max(eh_after - curve.e_h[0], 0.0)
    plateau_drift = float(np.abs(curve.e_h[: last + 1] - curve.e_h[0]).max())
    consistent = None
    if true_gap_value is not None:
        consistent = bool(true_gap_value <= epsilon + 1e-6)
    return GapReport(
        epsilon=float(epsilon),
        lambda_star=float(hi),
        true_gap=true_gap_value,
        consistent=consistent,
        plateau_drift=plateau_drift,
        transient_crossings=transients,
    )


def true_gap(h):
    """E_1 - E_0 with exact degeneracy excluded (threshold 1e-9 * ||H||).

    The spectrum is the union of the spectra of the invariant blocks: the
    connected components of the sparsity graph of |H| (abs keeps purely
    imaginary couplings, which a real cast would drop).
    """
    from scipy.sparse.csgraph import connected_components  # deferred: ~1 MB resident per CLI start

    hs = sp.csr_matrix(h)
    if hs.shape[0] > FULL_SPECTRUM_LIMIT:
        raise ChainTooLargeError("full-spectrum solve capped at dimension 4096")
    n_blocks, labels = connected_components(abs(hs), directed=False)
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.cumsum(np.bincount(labels, minlength=n_blocks))[:-1])
    w = np.sort(np.concatenate([np.linalg.eigvalsh(hs[b][:, b].toarray()) for b in blocks]))
    scale = max(abs(w[0]), abs(w[-1]), 1.0)
    above = w[w > w[0] + 1e-9 * scale]
    if len(above) == 0:
        return 0.0
    return float(above[0] - w[0])


def cusp_decomposition_check(x, y, psi, n_dirs=120, tol=1e-8, hull_tol=1e-6):
    """True iff psi is a common eigenvector of X and Y; verifies the split.

    On success the operators block-decompose against psi and the range is
    conv(W(X_0,Y_0) u W(X_perp,Y_perp)); checked on sampled directions via
    support functions.
    """
    xd = x.toarray() if sp.issparse(x) else np.asarray(x, dtype=complex)
    yd = y.toarray() if sp.issparse(y) else np.asarray(y, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    scale = max(np.abs(xd).max(), np.abs(yd).max(), 1.0)
    ex = float(np.real(psi.conj() @ xd @ psi))
    ey = float(np.real(psi.conj() @ yd @ psi))
    if (
        np.linalg.norm(xd @ psi - ex * psi) > tol * scale
        or np.linalg.norm(yd @ psi - ey * psi) > tol * scale
    ):
        return False
    # orthonormal complement of psi
    d = len(psi)
    q, _ = np.linalg.qr(np.column_stack([psi, np.eye(d)]))
    comp = q[:, 1:d]
    xp = comp.conj().T @ xd @ comp
    yp = comp.conj().T @ yd @ comp
    th = 2 * np.pi * np.arange(n_dirs) / n_dirs
    dirs = np.column_stack([np.cos(th), np.sin(th)])
    h_full = np.array([s.value for s in support_batch([xd, yd], dirs)])
    h_perp = np.array([s.value for s in support_batch([xp, yp], dirs)])
    h_point = dirs @ np.array([ex, ey])
    return bool(np.all(np.abs(h_full - np.maximum(h_point, h_perp)) <= hull_tol * scale))
