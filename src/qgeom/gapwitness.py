"""Spin-chain gap witnesses: ground-state curves of H + lambda*V, jump
detection by bisection, and spectral-gap upper bounds.

Two ground-state solvers share the curve and the bisection:

- Exact diagonalization of any `SpinChainSpec` (up to MAX_SITES sites), the
  oracle.  Operators are scipy CSR matrices assembled directly from Pauli
  strings as signed permutations.  Every solve runs per invariant block
  (connected component of the sparsity graph; for the XY chain and its
  witness, the two sectors of the parity prod Z).  A block fixed by complex
  conjugation K or by site reversal with conjugation RK is solved in a
  basis where it is real symmetric (`_real_form`); the XY chain is real
  and its witness imaginary, so RK fixes every block of the pair.
  A solve returns the ground window, the levels within DEGENERACY_TOL *
  max(|E0|, 1) of the lowest: dense up to DENSE_LIMIT (all blocks of one
  size and dtype in one stacked eigh), and above it one seeded Lanczos
  eigenpair per block and a loose Lanczos search of the complement of the
  levels found, repeated per extra copy of a degenerate level, which one
  Krylov space cannot hold.  The Lanczos path never densifies; full spectra
  are capped at 2^12.  Both run through `core.stack_map`: a dense stack in
  chunks that share core.STACK_ENTRIES entries among the threads running
  them, and Lanczos blocks from LANCZOS_THREAD_DIM states on concurrently;
  every block rounds the same on any thread.
- Free fermions for operators quadratic in Jordan-Wigner Majoranas
  (`MajoranaForm`; the XY chain and its witness up to MAX_XY_SITES sites,
  Lieb, Schultz, Mattis 1961).  A state is the covariance matrix
  G = A|A|^-1 of a 2n x 2n real antisymmetric A; E0 = -sum(eps)/2 over the
  eigenvalues +-i*eps of A, <H> = Tr(A_H G)/4, and overlaps are
  |<g|g'>|^2 = sqrt(det((G + G')/2)) (Bravyi 2005).  Modes with
  eps <= DEGENERACY_TOL * max(||H||, 1) are zero modes; they are paired by a
  fixed rule (`_covariance`) instead of by the sign of eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import stack_map

MAX_SITES = 14
MAX_XY_SITES = 300  # free-fermion XY chains: one solve is an eigh of a 2n x 2n matrix
# largest block diagonalized densely (x86-64, 2 CPUs, one BLAS thread, pairs of XY blocks at lambda =
# 0.3, the pair's dense stack on two threads and its Lanczos windows serial): dense and Lanczos cross
# near 250 states on real pairs (2.4 vs 3.8 ms at 210, 3.0 vs 3.4 at 220, 3.3 vs 2.9 at 256, 24 vs 5.7
# at 512) and near 200 on complex ones (4.3 vs 5.8 ms at 165, 7.1 vs 6.7 at 210, 11 vs 5.0 at 256);
# a single block, which one thread diagonalizes, crosses near 200 (real) and 150 (complex)
DENSE_LIMIT = 224
# smallest Lanczos block whose windows run on threads: ARPACK's loop holds the GIL between its
# solves, and two threads contending for it lose below a few thousand states (pairs of XY blocks,
# serial vs threaded: 5.5 vs 8.4 ms at 512, 7.5 vs 10.3 at 924, 15 vs 14 at 2048, 26 vs 18 at 4096)
LANCZOS_THREAD_DIM = 2048
# levels within DEGENERACY_TOL * max(scale, 1) of the ground level count as degenerate with it
DEGENERACY_TOL = 1e-9
# block minima this close (relative) are one level: exact ties round to about 1e-14 relative, and a
# window as wide as DEGENERACY_TOL would move the bisection off a crossing between blocks
TIE_TOL = 1e-12
OVERLAP_THRESHOLD = 0.5  # squared overlap with the lambda = 0 ground state below which it has departed
FULL_SPECTRUM_LIMIT = 4096
# relative tolerance of the loose Lanczos search for levels that a block's first Lanczos missed
COMPLEMENT_TOL = 1e-4


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
    import scipy.sparse as sp  # deferred, as in every ED helper: importing qgeom loads no scipy
    import scipy.sparse.linalg as spla

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


@dataclass(frozen=True, eq=False)
class MajoranaForm:
    """The operator (i/4) sum_kl a[k, l] c_k c_l for a real antisymmetric 2n x 2n matrix a.

    Majoranas by Jordan-Wigner: c_2j = (prod_{k<j} Z_k) X_j and
    c_2j+1 = (prod_{k<j} Z_k) Y_j.
    """

    a: np.ndarray


def majorana_form(n_sites, terms):
    """Jordan-Wigner image of a real sum of Pauli strings s z...z t, s and t in {x, y}.

    A string on the consecutive sites j..k is -i c_2j+1 c_q for s = x and
    +i c_2j c_q for s = y, where q = 2k for t = x and 2k+1 for t = y.
    """
    a = np.zeros((2 * n_sites, 2 * n_sites))
    for sites, labels, coeff in terms:
        j, k = sites[0], sites[-1]
        if not (
            tuple(sites) == tuple(range(j, k + 1))
            and k > j
            and labels[0] in "xy"
            and labels[-1] in "xy"
            and set(labels[1:-1]) <= {"z"}
        ):
            raise ValueError(f"{labels} on sites {sites} is not quadratic in Majoranas")
        p, sign = (2 * j + 1, 1) if labels[0] == "x" else (2 * j, -1)
        q = 2 * k + (labels[-1] == "y")
        a[p, q] -= 2 * sign * coeff  # c * (-i sign) c_p c_q = (i/4)(a_pq c_p c_q + a_qp c_q c_p)
        a[q, p] += 2 * sign * coeff
    return MajoranaForm(a)


def _bond_taper(n_bonds, bond):
    # linear ramp over the two outermost bonds on each side
    return min(1.0, (bond + 1) / 3.0, (n_bonds - bond) / 3.0)


def _check_sites(n_sites, cap):
    if not 3 <= n_sites <= cap:
        raise ChainTooLargeError(f"sites must be in 3..{cap}, got {n_sites}")


def _xy_terms(n_sites, gamma, taper):
    terms = []
    for n in range(n_sites - 1):
        w = _bond_taper(n_sites - 1, n) if taper else 1.0
        terms.append(((n, n + 1), ("x", "x"), w * (1 + gamma) / 2))
        terms.append(((n, n + 1), ("y", "y"), w * (1 - gamma) / 2))
    return tuple(terms)


def _witness_terms(n_sites, taper):
    # a term spans bonds n - 1 and n; their mean taper keeps the witness mirror-symmetric
    terms = []
    for n in range(1, n_sites - 1):
        w = (_bond_taper(n_sites - 1, n - 1) + _bond_taper(n_sites - 1, n)) / 2 if taper else 1.0
        terms.append(((n - 1, n, n + 1), ("x", "z", "y"), w))
        terms.append(((n - 1, n, n + 1), ("y", "z", "x"), -w))
    return tuple(terms)


def xy_hamiltonian(n_sites, gamma, taper=False):
    """Open-boundary XY chain with asymmetry gamma (Pauli convention)."""
    _check_sites(n_sites, MAX_SITES)
    return build_chain(SpinChainSpec(sites=n_sites, terms=_xy_terms(n_sites, gamma, taper)))


def gap_witness_v(n_sites, taper=False):
    """Three-site gaplessness witness: sum_n (x z y - y z x) on site triples."""
    _check_sites(n_sites, MAX_SITES)
    return build_chain(SpinChainSpec(sites=n_sites, terms=_witness_terms(n_sites, taper)))


def xy_majorana(n_sites, gamma, taper=False):
    """`xy_hamiltonian` as a Majorana form, up to MAX_XY_SITES sites."""
    _check_sites(n_sites, MAX_XY_SITES)
    return majorana_form(n_sites, _xy_terms(n_sites, gamma, taper))


def gap_witness_majorana(n_sites, taper=False):
    """`gap_witness_v` as a Majorana form, up to MAX_XY_SITES sites."""
    _check_sites(n_sites, MAX_XY_SITES)
    return majorana_form(n_sites, _witness_terms(n_sites, taper))


def _ground_window(m):
    """(levels of the ground window of a sparse block, their eigenvectors as columns), by seeded Lanczos.

    A Krylov space holds one vector of each distinct eigenvalue, so Lanczos
    returns one copy of a degenerate level.  The complement of the found
    vectors is searched for a level in the window of the lowest found, by
    Lanczos on m shifted up on their span from a fixed random start: loosely
    (tolerance COMPLEMENT_TOL), and exactly only when its lowest level comes
    within that tolerance of the window.  Such a level joins those found, and
    the search repeats.  The merge over blocks drops levels above the window
    (left by a lower level found later, or by the dense fallback).
    """
    import scipy.sparse.linalg as spla

    dim = m.shape[0]
    try:
        w, v = _lanczos(m, np.full(dim, 1.0 / np.sqrt(dim)), 0.0)
        start = np.random.default_rng(0).standard_normal(dim)
        while len(w) < dim:
            scale = max(abs(w.min()), 1.0)
            top = w.min() + DEGENERACY_TOL * scale
            q, _ = np.linalg.qr(v)
            rest = spla.LinearOperator(m.shape, matvec=lambda x: m @ x + scale * (q @ (q.conj().T @ x)), dtype=m.dtype)
            x0 = start - q @ (q.conj().T @ start)
            low, _ = _lanczos(rest, x0, COMPLEMENT_TOL)
            if low[0] > top + COMPLEMENT_TOL * scale:
                break
            low, x = _lanczos(rest, x0, 0.0)
            if low[0] > top:
                break
            w, v = np.append(w, low), np.column_stack([v, x])
    except spla.ArpackNoConvergence:
        if dim > FULL_SPECTRUM_LIMIT:
            raise
        w, v = np.linalg.eigh(m.toarray())
    return w, v


def _lanczos(op, v0, tol):
    """The lowest eigenpair of a Hermitian operator by ARPACK."""
    import scipy.sparse.linalg as spla

    return spla.eigsh(op, k=1, which="SA", v0=v0, maxiter=5000, tol=tol)


def _invariant_blocks(*mats):
    """Index arrays of the invariant blocks shared by sparse matrices, ordered by smallest index.

    The blocks are the connected components of the sparsity graph of
    sum |M| (abs keeps purely imaginary couplings, which a real cast would
    drop, and a sum of absolute values cancels no coupling).
    """
    from scipy.sparse.csgraph import connected_components

    n_blocks, labels = connected_components(sum(abs(m) for m in mats), directed=False)
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.cumsum(np.bincount(labels, minlength=n_blocks))[:-1])
    return sorted(blocks, key=lambda b: b[0])


def _block_stacks(mats, blocks, real):
    """Each matrix's diagonal blocks as dense stacks, one per block size and real flag.

    Returns [(block numbers, indices (m, s), [stack (m, s, s) per matrix])]
    in increasing size, numbering the blocks by their position in `blocks`;
    the stacks of blocks flagged in `real` hold the real parts.
    """
    sizes = np.array([len(b) for b in blocks])
    coos = [m.tocoo() for m in mats]
    groups = []
    for size, is_real in sorted(set(zip(sizes.tolist(), real.tolist()))):
        nums = np.flatnonzero((sizes == size) & (real == is_real))
        idx = np.stack([blocks[k] for k in nums])
        slot = np.full(mats[0].shape[0], -1)
        pos = np.zeros_like(slot)
        slot[idx] = np.arange(len(idx))[:, None]
        pos[idx] = np.arange(size)
        stacks = []
        for m in coos:
            keep = slot[m.row] >= 0  # blocks are invariant, so the column lies in the same block
            r, c, data = m.row[keep], m.col[keep], m.data[keep]
            data = data.real if is_real else data
            stack = np.zeros((len(idx), size, size), dtype=data.dtype)
            np.add.at(stack, (slot[r], pos[r], pos[c]), data)
            stacks.append(stack)
        groups.append((nums, idx, stacks))
    return groups


def _site_reversal(dim):
    """The basis permutation s -> R s that reverses the sites (the bits of s), or None off 2^n."""
    n = dim.bit_length() - 1
    if dim != 1 << n:
        return None
    r = np.arange(dim)
    rev = np.zeros_like(r)
    for bit in range(n):
        rev |= ((r >> bit) & 1) << (n - 1 - bit)
    return rev


def _real_form(mats, blocks):
    """A unitary U under which every block that an antiunitary P fixes is real symmetric.

    Returns (U, or None for the identity; real flag per block; [U^dag M U]).
    P = K (complex conjugation) fixes a block whose entries are real, and
    U is the identity on it.  P = R K, with R the site reversal, fixes a
    block that R maps onto itself when R M R = conj(M) on it for every M;
    both tests are exact, as the entries of Pauli strings are.  On such a
    block U holds the basis fixed by P, which keeps the block's indices:
    |s> where R s = s, and for each pair s < R s, (|s> + |Rs>)/sqrt2 at
    index s and i(|s> - |Rs>)/sqrt2 at index R s.  Every sum in U^dag M U
    then pairs a term with its conjugate, so the imaginary part of a real
    block is exactly zero.
    """
    import scipy.sparse as sp

    dim = mats[0].shape[0]
    label = np.empty(dim, dtype=int)
    for k, b in enumerate(blocks):
        label[b] = k
    real = np.ones(len(blocks), dtype=bool)
    for m in mats:
        coo = m.tocoo()
        real[label[coo.row[coo.data.imag != 0]]] = False
    rev = _site_reversal(dim)
    if rev is None or real.all():
        return None, real, mats
    rk = ~real
    rk[label[label[rev] != label]] = False
    for m in mats:
        diff = (m[rev][:, rev] - m.conj()).tocoo()
        rk[label[diff.row[diff.data != 0]]] = False
    if not rk.any():
        return None, real, mats
    s = np.flatnonzero(rk[label])
    plain = np.flatnonzero(~rk[label])
    fixed, pair = s[rev[s] == s], s[s < rev[s]]
    c = 1 / np.sqrt(2)
    rows = np.concatenate([plain, fixed, pair, rev[pair], pair, rev[pair]])
    cols = np.concatenate([plain, fixed, pair, pair, rev[pair], rev[pair]])
    vals = np.repeat([1, 1, c, c, 1j * c, -1j * c], [len(plain), len(fixed)] + [len(pair)] * 4)
    u = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    mats = [u.conj().T @ (m @ u) for m in mats]
    for m in mats:
        coo = m.tocoo()
        assert not rk[label[coo.row[coo.data.imag != 0]]].any(), "real form has an imaginary part"
    return u, real | rk, mats


class _SparseGround:
    """Ground vectors of H + lambda*V by exact diagonalization, one invariant block at a time.

    The blocks of |H| + |V| are found once, and each block that an
    antiunitary fixes is taken to a real basis (`_real_form`).  Blocks up
    to DENSE_LIMIT are diagonalized densely, all blocks of one size and
    dtype in one stacked eigh (chunked and threaded by `core.stack_map`),
    and larger ones by seeded Lanczos, on threads from LANCZOS_THREAD_DIM
    states; the ground window over all blocks is merged and mapped back to
    the computational basis.
    """

    def __init__(self, h, v):
        import scipy.sparse as sp

        if h.shape != v.shape:
            raise ValueError("H and V must have equal dimensions")
        self.h = sp.csr_matrix(h)
        self.v = sp.csr_matrix(v)
        self.blocks = _invariant_blocks(self.h, self.v)
        self.basis, real, mats = _real_form((self.h, self.v), self.blocks)
        sizes = np.array([len(b) for b in self.blocks])
        self.method = "dense" if sizes.max() <= DENSE_LIMIT else "lanczos"
        # (block numbers, indices, stacked H, stacked V) per block size and real flag up to DENSE_LIMIT
        small = np.flatnonzero(sizes <= DENSE_LIMIT)
        self.dense = [
            (small[nums], idx, hs, vs)
            for nums, idx, (hs, vs) in _block_stacks(mats, [self.blocks[k] for k in small], real[small])
        ]
        self.sparse = [
            (k, b, *(m[b][:, b].real if real[k] else m[b][:, b] for m in mats))
            for k, b in enumerate(self.blocks)
            if len(b) > DENSE_LIMIT
        ]
        self._last = None  # (lam, levels) of the last solve

    def _levels(self, lam):
        """The ground window of H + lam V over all blocks: (levels, eigenvectors as columns).

        The window holds every level within DEGENERACY_TOL * max(|E0|, 1) of
        the lowest, E0, as on the fermion path.  Levels
        within TIE_TOL * max(|E0|, 1) of the lowest come first in block
        order, so that rounding does not decide between exactly degenerate
        blocks (the two parity sectors of the XY chain at gamma = 1).  The
        bisection ends with a solve at the lambda it has just solved, so the
        last result is kept.
        """
        if self._last is None or self._last[0] != lam:
            self._last = lam, self._solve_blocks(lam)
        return self._last[1]

    def _solve_blocks(self, lam):
        solved = []  # (block numbers, indices (m, s), eigenvalues (m, r), eigenvectors (m, s, r))
        for nums, idx, hs, vs in self.dense:
            parts = stack_map(lambda c: np.linalg.eigh(hs[c] + lam * vs[c]), len(hs), hs.shape[1])
            solved.append((nums, idx, *(np.concatenate(p) for p in zip(*parts))))
        windows = stack_map(
            lambda c: [_ground_window(hb + lam * vb) for _, _, hb, vb in self.sparse[c]],
            len(self.sparse),
            max((len(b) for _, b, _, _ in self.sparse), default=1),
            thread_dim=LANCZOS_THREAD_DIM,
        )
        for (k, b, _, _), (w, u) in zip(self.sparse, chain.from_iterable(windows)):
            solved.append(([k], b[None], w[None], u[None]))
        vals = np.concatenate([w.ravel() for _, _, w, _ in solved])
        blks = np.concatenate([np.repeat(nums, w.shape[1]) for nums, _, w, _ in solved])
        src = np.concatenate([np.full(w.size, i) for i, (_, _, w, _) in enumerate(solved)])
        at = np.concatenate([np.arange(w.size) for _, _, w, _ in solved])
        scale = max(abs(vals.min()), 1.0)
        keep = np.flatnonzero(vals < vals.min() + DEGENERACY_TOL * scale)
        near = vals[keep] < vals.min() + TIE_TOL * scale
        order = keep[np.lexsort((vals[keep], np.where(near, blks[keep], 0), ~near))]
        vecs = np.zeros((self.h.shape[0], len(order)), dtype=np.result_type(*[u for *_, u in solved]))
        for j, c in enumerate(order):
            _, idx, w, u = solved[src[c]]
            row, level = divmod(int(at[c]), w.shape[1])
            vecs[idx[row], j] = u[row, :, level]
        if self.basis is not None:
            vecs = self.basis @ vecs
        return vals[order], vecs

    def solve(self, lam):
        """(E0, ground level degenerate, ground vector)."""
        w, vecs = self._levels(lam)
        return w[0], len(w) > 1, vecs[:, 0]

    def limit(self, lam):
        """The ground vector as lambda decreases to lam: the lowest-<V> state of the ground level."""
        _, vecs = self._levels(lam)
        # Lanczos vectors of a degenerate level need not be orthogonal
        level, _ = np.linalg.qr(vecs)
        _, c = np.linalg.eigh(level.conj().T @ (self.v @ level))
        return level @ c[:, 0]

    @staticmethod
    def expect(op, g):
        return float(np.real(g.conj() @ (op @ g)))

    @staticmethod
    def overlap(a, b):
        return abs(np.vdot(a, b)) ** 2


def _split_modes(w, u, tol):
    """(eigenvectors of +eps > tol, zero-mode eigenvectors) from eigh of i*A (w ascending, +-eps pairs)."""
    half = len(w) // 2
    zero = int(np.sum(w[half:] <= tol))
    return u[:, half + zero :], u[:, half - zero : half + zero]


def _covariance(modes, zero):
    """G = -i sum sign(w) u u^dagger over the +eps eigenvectors `modes`; zero modes by a fixed rule.

    A mode u = (x + iy)/sqrt(2) contributes y x^T - x y^T, so G = F J F^T for
    the real orthonormal frame F = (y1, x1, y2, x2, ...) and J the direct sum
    of [[0, 1], [-1, 0]]; Pf(G) = det(F) is the parity of the state.  The
    zero modes join F as Gram-Schmidt on the columns of their real projector
    in index order (a column is taken when its residual is at least half the
    largest one), paired in that order, and the first pair is oriented so
    that det(F) > 0.  With one pair of zero modes the result does not depend
    on the basis.
    """
    even, odd = np.sqrt(2) * modes.imag, np.sqrt(2) * modes.real
    if zero.shape[1]:
        r = (zero @ zero.conj().T).real
        basis = []
        for _ in range(zero.shape[1]):
            norms = np.linalg.norm(r, axis=0)
            j = int(np.argmax(norms >= norms.max() / 2))
            b = r[:, j] / norms[j]
            r -= np.outer(b, b @ r)
            basis.append(b)
        even = np.column_stack([even, *basis[0::2]])
        odd = np.column_stack([odd, *basis[1::2]])
        frame = np.empty((len(even), 2 * even.shape[1]))
        frame[:, 0::2], frame[:, 1::2] = even, odd
        if np.linalg.det(frame) < 0:
            odd[:, odd.shape[1] - len(basis) // 2] *= -1
    return even @ odd.T - odd @ even.T


class _FermionGround:
    """Gaussian ground states of H + lambda*V for Majorana forms: covariance matrices."""

    method = "fermion"

    def __init__(self, h, v):
        if not isinstance(v, MajoranaForm) or h.a.shape != v.a.shape:
            raise ValueError("H and V must be Majorana forms of equal size")
        self.h = h.a
        self.v = v.a

    def _modes(self, lam):
        # eigenpairs of i*A ascending and the zero-mode threshold DEGENERACY_TOL * max(||H + lam V||, 1)
        w, u = np.linalg.eigh(1j * (self.h + lam * self.v))
        return w, u, DEGENERACY_TOL * max(w[len(w) // 2 :].sum() / 2, 1.0)

    def solve(self, lam):
        """(E0, zero modes present, ground covariance)."""
        w, u, tol = self._modes(lam)
        modes, zero = _split_modes(w, u, tol)
        return -w[len(w) // 2 :].sum() / 2, zero.shape[1] > 0, _covariance(modes, zero)

    def limit(self, lam):
        """The ground covariance as lambda decreases to lam: zero modes ordered by V first."""
        w, u, tol = self._modes(lam)
        modes, zero = _split_modes(w, u, tol)
        if zero.shape[1]:
            w_v, c = np.linalg.eigh(1j * (zero.conj().T @ self.v @ zero))
            resolved, zero = _split_modes(w_v, zero @ c, tol)
            modes = np.column_stack([modes, resolved])
        return _covariance(modes, zero)

    @staticmethod
    def expect(op, g):
        return float(np.sum(op * g.T) / 4)

    @staticmethod
    def overlap(a, b):
        return float(np.sqrt(abs(np.linalg.det((a + b) / 2))))


@dataclass
class GroundCurve:
    """Ground-state data of H + lambda*V across a lambda grid."""

    lams: np.ndarray
    energies: np.ndarray
    e_h: np.ndarray
    e_v: np.ndarray
    degenerate: np.ndarray  # bool flags
    states: np.ndarray  # last axis indexes lams: ground vectors or covariance matrices
    solver: object = field(repr=False)  # _SparseGround or _FermionGround

    def __len__(self):
        return len(self.lams)


def ground_curve(h, v, lam_grid):
    """Lowest eigenpair of H + lambda*V per grid point, with degeneracy flags.

    Majorana forms take the free-fermion solver; sparse or dense matrices
    take exact diagonalization.
    """
    lams = np.asarray(lam_grid, dtype=float)
    if np.any(np.diff(lams) <= 0):
        raise ValueError("lambda grid must be strictly increasing")
    solver = _FermionGround(h, v) if isinstance(h, MajoranaForm) else _SparseGround(h, v)
    energies, ehs, evs, degs, states = [], [], [], [], []
    for lam in lams:
        e0, degenerate, g = solver.solve(lam)
        energies.append(e0)
        ehs.append(solver.expect(solver.h, g))
        evs.append(solver.expect(solver.v, g))
        degs.append(degenerate)
        states.append(g)
    return GroundCurve(
        lams=lams,
        energies=np.array(energies),
        e_h=np.array(ehs),
        e_v=np.array(evs),
        degenerate=np.array(degs),
        states=np.stack(states, axis=-1),
        solver=solver,
    )


@dataclass
class GapReport:
    epsilon: float
    lambda_star: float
    true_gap: float | None
    consistent: bool | None  # true_gap <= epsilon + 1e-6 when both known
    plateau_drift: float  # max |<H>_lambda - <H>_0| over the plateau
    transient_crossings: int  # overlap dips that recovered before lambda*
    method: str  # ground-state solver: "fermion", "dense" or "lanczos" (ED: "lanczos" if any block is)
    solves: int  # ground-state solves of the curve and the bisection


def gap_upper_bound(curve: GroundCurve, true_gap_value=None, refine_iters=40):
    """Upper bound for the spectral gap from the jump of <H>_lambda.

    lambda* is the terminal departure of the ground state from the
    lambda=0 ground state (the last grid point with squared overlap >= 1/2;
    transient finite-size level crossings that recover are counted, not
    used).  The jump is refined by bisection on the overlap criterion and
    epsilon = <H> just past lambda* minus <H> at lambda = 0.  "Just past"
    is the limit of the ground state as lambda decreases to lambda*: where
    the bisection ends on a level crossing, the ground level there is
    degenerate to rounding, and <H> is taken on its lowest-<V> state (the
    departed one, by first-order degenerate perturbation theory), not on
    whichever mixture rounding returned.
    """
    if len(curve) < 2:
        raise ValueError("curve needs at least two lambda samples")
    solver = curve.solver
    g0 = curve.states[..., 0]
    ovs = np.array([solver.overlap(g0, curve.states[..., i]) for i in range(len(curve))])
    if ovs[1] < OVERLAP_THRESHOLD:
        raise PlateauError(
            "ground state leaves the initial state before the second grid point; "
            "no plateau, witness V unsuitable"
        )
    above = np.where(ovs >= OVERLAP_THRESHOLD)[0]
    last = int(above.max())
    if last == len(curve) - 1:
        raise PlateauError("ground state never departs on this grid; extend lambda range")
    transients = int(np.sum((ovs[:last] < OVERLAP_THRESHOLD)))
    lo, hi = curve.lams[last], curve.lams[last + 1]

    for _ in range(refine_iters):
        mid = (lo + hi) / 2
        _, _, g = solver.solve(mid)
        if solver.overlap(g0, g) < OVERLAP_THRESHOLD:
            hi = mid
        else:
            lo = mid
    epsilon = max(solver.expect(solver.h, solver.limit(hi)) - curve.e_h[0], 0.0)
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
        method=solver.method,
        solves=len(curve) + refine_iters + 1,
    )


def true_gap(h):
    """E_1 - E_0 with exact degeneracy excluded (threshold DEGENERACY_TOL * ||H||).

    For a Majorana form this is the smallest mode energy eps_k above the
    threshold.  Otherwise the spectrum is the union of the spectra of the
    invariant blocks of H (`_invariant_blocks`), one stacked eigvalsh per
    block size and real flag (`_real_form`).
    """
    if isinstance(h, MajoranaForm):
        eps = np.linalg.eigvalsh(1j * h.a)[len(h.a) // 2 :]
        above = eps[eps > DEGENERACY_TOL * max(eps.sum() / 2, 1.0)]
        return float(above[0]) if len(above) else 0.0

    import scipy.sparse as sp

    hs = sp.csr_matrix(h)
    if hs.shape[0] > FULL_SPECTRUM_LIMIT:
        raise ChainTooLargeError("full-spectrum solve capped at dimension 4096")
    blocks = _invariant_blocks(hs)
    _, real, mats = _real_form((hs,), blocks)
    groups = _block_stacks(mats, blocks, real)
    w = np.sort(np.concatenate([np.linalg.eigvalsh(stack).ravel() for _, _, (stack,) in groups]))
    scale = max(abs(w[0]), abs(w[-1]), 1.0)
    above = w[w > w[0] + DEGENERACY_TOL * scale]
    if len(above) == 0:
        return 0.0
    return float(above[0] - w[0])
