"""U(1)-covariant pure-state interconversion on the infinite ladder.

A state with squared amplitudes p can be sent to one with squared
amplitudes q iff p = w * q for a probability vector w.  On trimmed supports
that is exact division of the generating polynomials, and division decides
it: Fraction long division for rational inputs (the verdict is exact), least
squares on the banded convolution matrix of q for floats.  The paper's
construction -- embed both vectors into a prime-dimensional cyclic space and
invert a circulant matrix -- stays in `circulant` and `cyclic_majorize` as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import KrausChannel
from .core import is_prime as _is_prime_int  # name kept importable for the acceptance suite

NEG_TOL = 1e-9  # float quotient entries above -NEG_TOL are clipped to zero
VERIFY_TOL = 1e-9  # largest |w * q - p| entry a float quotient may leave


class SingularCirculantError(RuntimeError):
    """C(q) was singular at the attempted embedding dimension."""


def _is_exact(values):
    return all(isinstance(v, (Fraction, int)) for v in values)


@dataclass(frozen=True)
class ProbVector:
    """Probability weights on a window of the integer ladder.

    `offset` is the ladder index of the first stored weight; stored weights
    are trimmed (first and last nonzero) and sum to one.  Entries may be
    floats or Fractions; Fraction vectors flow through exact arithmetic.
    """

    offset: int
    weights: tuple

    def __post_init__(self):
        w = tuple(self.weights)
        if not w:
            raise ValueError("empty probability vector")
        exact = _is_exact(w)
        if exact:
            w = tuple(Fraction(v) for v in w)
            if any(v < 0 for v in w) or sum(w) != 1:
                raise ValueError("exact weights must be nonnegative and sum to 1")
            if w[0] == 0 or w[-1] == 0:
                raise ValueError("weights must be trimmed to their support")
        else:
            w = tuple(float(v) for v in w)
            if min(w) < -1e-12:
                raise ValueError(f"negative weight {min(w)}")
            if abs(sum(w) - 1.0) > 1e-12:
                raise ValueError(f"weights sum to {sum(w)}, not 1")
            if w[0] <= 0 or w[-1] <= 0:
                raise ValueError("weights must be trimmed to their support")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offset", int(self.offset))

    @property
    def exact(self):
        return _is_exact(self.weights)

    @property
    def diam(self):
        return len(self.weights) - 1

    @property
    def support(self):
        return range(self.offset, self.offset + len(self.weights))

    def shifted(self, k):
        return ProbVector(self.offset + k, self.weights)

    def at_origin(self):
        return ProbVector(0, self.weights)

    def as_floats(self):
        return np.array([float(v) for v in self.weights])

    @staticmethod
    def from_weights(weights, offset=0, tol=1e-12):
        """Trim leading/trailing (near-)zeros and renormalize tiny drift."""
        ws = list(weights)
        exact = _is_exact(ws)
        if exact:
            ws = [Fraction(v) for v in ws]
            lo = next(i for i, v in enumerate(ws) if v != 0)
            hi = max(i for i, v in enumerate(ws) if v != 0)
            return ProbVector(offset + lo, tuple(ws[lo : hi + 1]))
        ws = [float(v) for v in ws]
        if min(ws) < -tol:
            raise ValueError(f"negative weight {min(ws)}")
        ws = [max(v, 0.0) for v in ws]
        lo = next(i for i, v in enumerate(ws) if v > tol)
        hi = max(i for i, v in enumerate(ws) if v > tol)
        ws = ws[lo : hi + 1]
        s = sum(ws)
        return ProbVector(offset + lo, tuple(v / s for v in ws))


@dataclass(frozen=True)
class LadderState:
    """Pure ladder state: amplitudes on consecutive integer levels."""

    offset: int
    amps: tuple

    def __post_init__(self):
        a = tuple(complex(v) for v in self.amps)
        n = np.linalg.norm(np.array(a))
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"state norm {n} != 1")
        object.__setattr__(self, "amps", a)
        object.__setattr__(self, "offset", int(self.offset))

    def probs(self, tol=1e-12):
        return ProbVector.from_weights(
            [abs(a) ** 2 for a in self.amps], offset=self.offset, tol=tol
        )

    @staticmethod
    def from_probs(probs, offset=0, phases=None):
        p = list(probs)
        amps = [np.sqrt(float(v)) for v in p]
        if phases is not None:
            amps = [a * np.exp(1j * float(ph)) for a, ph in zip(amps, phases)]
        amps = np.array(amps)
        amps = amps / np.linalg.norm(amps)
        return LadderState(offset, tuple(amps))


def circulant(v):
    """Circulant matrix with first row v; each following row right-rotated.

    C(a) @ C(b) = C(a *cyclic* b) for vectors of equal length.  Exact
    entries produce an object-dtype matrix of Fractions.
    """
    v = list(v)
    if not v:
        raise ValueError("empty defining vector")
    i = np.arange(len(v))
    return np.array(v, dtype=object if _is_exact(v) else float)[(i - i[:, None]) % len(v)]


def _fraction_solve(a, b):
    """Exact Gaussian elimination over Fractions; raises on singular."""
    n = len(b)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise SingularCirculantError("exact circulant solve hit a zero pivot")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def cyclic_majorize(p0, q0, neg_tol=NEG_TOL, rcond_tol=1e-10):
    """Weights w with C(w) = C(p) C(q)^{-1}, or None if any entry is negative.

    Raises SingularCirculantError when C(q) is singular (reciprocal
    condition below `rcond_tol` for floats, zero pivot for exact input).
    Tiny negative float entries are clipped and the result renormalized.
    """
    p0 = list(p0)
    q0 = list(q0)
    if len(p0) != len(q0):
        raise ValueError("embedded vectors must share one dimension")
    exact = _is_exact(p0) and _is_exact(q0)
    if exact:
        # solve C(q)^T w = p  (row 0 of C(w) from C(w) C(q) = C(p))
        w = _fraction_solve(circulant(q0).T, [Fraction(v) for v in p0])
        if any(v < 0 for v in w):
            return None
        return w
    cq = circulant([float(v) for v in q0]).astype(float)
    s = np.linalg.svd(cq, compute_uv=False)
    if s[-1] < rcond_tol * s[0]:
        raise SingularCirculantError(
            f"circulant of q is numerically singular (rcond {s[-1]/s[0]:.2e})"
        )
    w = np.linalg.solve(cq.T, np.array([float(v) for v in p0]))
    if w.min() < -neg_tol:
        return None
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def convolve(a: ProbVector, b: ProbVector):
    """Non-cyclic convolution of two probability vectors on the ladder."""
    if a.exact and b.exact:
        out = [Fraction(0)] * (len(a.weights) + len(b.weights) - 1)
        for i, x in enumerate(a.weights):
            for j, y in enumerate(b.weights):
                out[i + j] += x * y
    else:
        out = np.convolve(a.as_floats(), b.as_floats())
    return ProbVector.from_weights(out, offset=a.offset + b.offset)


def _next_prime(n):
    n += 1
    while not _is_prime_int(n):
        n += 1
    return n


@dataclass
class CirculantTestReport:
    """Verdict of `u1_convertible`.

    `embedding_dim` is the prime N the circulant construction uses for this
    pair (the smallest prime above 2n + 1, n the larger support diameter);
    the division that decides the verdict does not depend on it.
    """

    convertible: bool
    w: ProbVector | None
    embedding_dim: int
    exact: bool
    shift: int = 0  # ladder shift: target support start minus source start
    singular_retries = 0  # division never retries; kept for the perfbench trace probe


def _as_probvector(state):
    if isinstance(state, ProbVector):
        return state
    if isinstance(state, LadderState):
        return state.probs()
    raise TypeError(f"expected LadderState or ProbVector, got {type(state)}")


def _divide(p: ProbVector, q: ProbVector):
    """Nonnegative quotient w of p = w * q for vectors starting at 0, or None.

    Trimming makes q_0 > 0, so the banded convolution matrix of q has full
    column rank and w is the only candidate.  Exact inputs: long division,
    convertible iff the remainder is zero and w >= 0.  Floats: least
    squares, entries above -NEG_TOL clipped, w renormalized, and every
    entry of w * q - p within VERIFY_TOL.
    """
    m = len(p.weights) - len(q.weights) + 1
    if m < 1:
        return None
    if p.exact and q.exact:
        # long division from the low end; trimming makes q_0 > 0
        r = list(p.weights)
        w = []
        for k in range(m):
            w.append(r[k] / q.weights[0])
            for j, qj in enumerate(q.weights):
                r[k + j] -= w[k] * qj
        if any(r) or min(w) < 0:
            return None
        return ProbVector.from_weights(w)
    qw = q.as_floats()
    band = np.zeros((len(p.weights), m))  # column k is q shifted down by k
    band[np.arange(len(qw))[:, None] + np.arange(m), np.arange(m)] = qw[:, None]
    w = np.linalg.lstsq(band, p.as_floats(), rcond=None)[0]
    if w.min() < -NEG_TOL:
        return None
    w = ProbVector.from_weights(np.clip(w, 0.0, None))
    recon = convolve(w, q)
    if recon.offset != p.offset or len(recon.weights) != len(p.weights):
        return None
    if np.abs(recon.as_floats() - p.as_floats()).max() > VERIFY_TOL:
        return None
    return w


def u1_convertible(psi, phi):
    """Decide the covariant transformation psi -> phi on the ladder.

    Squared amplitudes are trimmed and translated to start at zero (the
    problem is translation invariant), so p = w * q is division of the
    generating polynomials (`_divide`): exact for rational inputs, least
    squares with a residual check for floats.  The paper's circulant
    construction (`cyclic_majorize` at the prime `embedding_dim`) reaches
    the same verdict and serves as the oracle in the tests.
    """
    p_raw = _as_probvector(psi)
    q_raw = _as_probvector(phi)
    exact = p_raw.exact and q_raw.exact
    dim = _next_prime(2 * max(p_raw.diam, q_raw.diam) + 1)
    w = _divide(p_raw.at_origin(), q_raw.at_origin())
    if w is None:
        return CirculantTestReport(False, None, dim, exact)
    # restore the ladder translation: p_raw = (w shifted) * q_raw
    shift = p_raw.offset - q_raw.offset
    return CirculantTestReport(True, w.shifted(shift), dim, exact, shift=shift)


@dataclass
class LadderChannel:
    """Kraus realization of a ladder transformation on a finite window."""

    channel: KrausChannel
    window_offset: int  # ladder index of matrix row/column 0
    shifts: tuple  # the k of each Kraus operator

    def apply_to(self, state: LadderState):
        dim = self.channel.kraus[0].shape[0]
        vec = np.zeros(dim, dtype=complex)
        for i, a in enumerate(state.amps):
            idx = state.offset + i - self.window_offset
            if not 0 <= idx < dim:
                raise ValueError("state support leaves the channel window")
            vec[idx] = a
        rho = np.outer(vec, vec.conj())
        return sum(k @ rho @ k.conj().T for k in self.channel.kraus)


def build_u1_kraus(p: ProbVector, q: ProbVector, w: ProbVector):
    """Kraus operators K_k with entries sqrt(w_{-k} q_{n+k} / p_n) at (n+k, n).

    Requires p = w * q (verified); the channel is trace preserving on the
    support of p and is flagged sub-normalized on the ambient window (the
    completion on p's zero pattern is omitted as it never acts on psi).
    """
    recon = convolve(w, q)
    ok = (
        recon.offset == p.offset
        and len(recon.weights) == len(p.weights)
        and (
            tuple(recon.weights) == tuple(p.weights)
            if (p.exact and q.exact and w.exact)
            else np.abs(recon.as_floats() - p.as_floats()).max() <= 1e-9
        )
    )
    if not ok:
        raise ValueError("triple does not satisfy p = w * q")
    lo = min(p.offset, q.offset)
    hi = max(p.offset + p.diam, q.offset + q.diam)
    dim = hi - lo + 1
    pw = p.as_floats()
    qw = q.as_floats()
    ww = w.as_floats()
    kraus = []
    shifts = []
    for wi, widx in enumerate(w.support):
        k = -widx  # K_k carries weight w_{-k}
        m = np.zeros((dim, dim), dtype=complex)
        for pi, n in enumerate(p.support):
            if pw[pi] <= 0:
                continue
            qi = n + k - q.offset
            if not 0 <= qi < len(qw):
                continue
            m[n + k - lo, n - lo] = np.sqrt(ww[wi] * qw[qi] / pw[pi])
        kraus.append(m)
        shifts.append(k)
    channel = KrausChannel(tuple(kraus), sub_normalized=True)
    return LadderChannel(channel=channel, window_offset=lo, shifts=tuple(shifts))


def _poly_roots(p: ProbVector):
    coeffs = p.as_floats()
    # numpy orders highest degree first
    return np.roots(coeffs[::-1])


def _cluster_roots(roots, tol=1e-8):
    """Group numerically repeated roots; conjugate pairs stay matched."""
    used = np.zeros(len(roots), dtype=bool)
    clusters = []
    for i, r in enumerate(roots):
        if used[i]:
            continue
        group = [i]
        used[i] = True
        for j in range(i + 1, len(roots)):
            if not used[j] and abs(roots[j] - r) < tol * max(1.0, abs(r)):
                group.append(j)
                used[j] = True
        clusters.append((r, len(group)))
    return clusters


def accessible_states(p: ProbVector, tol=1e-9, dedup_tol=1e-9):
    """All factor pairs (q, w) of p's associated polynomial on the simplex.

    Enumerates conjugate-closed root subsets of f_p (with multiplicity
    grouping for repeated roots), normalizes each factor by g(1) = 1, and
    keeps pairs whose coefficient vectors are both (near-)nonnegative;
    every returned q is a state from which p is reachable, with w the
    realizing weight vector.  Deduplication tolerance is reported.
    """
    m = p.diam
    if m > 20:
        raise ValueError("support diameter capped at 20 (2^m enumeration)")
    if m == 0:
        return {"pairs": [(p.at_origin(), p.at_origin())], "dedup_tol": dedup_tol}
    roots = _poly_roots(p)
    real_mask = np.abs(roots.imag) < 1e-10
    reals = roots[real_mask].real
    complexes = roots[~real_mask]
    pairs_c = _conjugate_pairs(complexes)
    real_clusters = _cluster_roots(reals.astype(complex))
    pair_clusters = _cluster_roots(np.array([c for c, _ in pairs_c])) if pairs_c else []

    found = []
    seen = []

    def emit(subset_roots):
        g = np.real(np.poly(subset_roots)[::-1]) if len(subset_roots) else np.array([1.0])
        # complement with multiplicity: remove chosen roots one by one
        comp = _complement(all_roots_list, subset_roots)
        h = np.real(np.poly(comp)[::-1]) if len(comp) else np.array([1.0])
        gs = g.sum()
        hs = h.sum()
        if abs(gs) < 1e-12 or abs(hs) < 1e-12:
            return
        g = g / gs
        h = h / hs
        if g.min() < -tol or h.min() < -tol:
            return
        q = ProbVector.from_weights(np.clip(g, 0, None), offset=0)
        w = ProbVector.from_weights(np.clip(h, 0, None), offset=0)
        key = (len(q.weights), tuple(np.round(q.as_floats(), 9)))
        for k2 in seen:
            if k2[0] == key[0] and max(abs(a - b) for a, b in zip(k2[1], key[1])) <= dedup_tol:
                return
        seen.append(key)
        found.append((q, w))

    all_roots_list = list(reals.astype(complex)) + [r for pr in pairs_c for r in pr]

    choices_real = [(r, mult) for r, mult in real_clusters]
    choices_pair = pair_clusters

    def rec(idx, chosen):
        if idx == len(choices_real) + len(choices_pair):
            emit(list(chosen))
            return
        if idx < len(choices_real):
            r, mult = choices_real[idx]
            for take in range(mult + 1):
                rec(idx + 1, chosen + [r.real] * take)
        else:
            c, mult = choices_pair[idx - len(choices_real)]
            for take in range(mult + 1):
                rec(idx + 1, chosen + [c, np.conj(c)] * take)

    rec(0, [])
    return {"pairs": found, "dedup_tol": dedup_tol}


def _conjugate_pairs(roots, tol=1e-8):
    pool = list(roots)
    pairs = []
    while pool:
        r = pool.pop()
        j = min(
            range(len(pool)),
            key=lambda i: abs(pool[i] - np.conj(r)),
            default=None,
        )
        if j is None or abs(pool[j] - np.conj(r)) > tol * max(1.0, abs(r)):
            raise RuntimeError("unpaired complex root; increase clustering tolerance")
        pairs.append((r, pool.pop(j)))
    return pairs


def _complement(full, chosen):
    rest = list(full)
    for c in chosen:
        j = min(range(len(rest)), key=lambda i: abs(rest[i] - c))
        rest.pop(j)
    return rest


def aux_reachable(p: ProbVector, q: ProbVector, d):
    """Weights w on shifts -d..d with q = sum_m w_m Delta^m p, or None.

    That sum is the convolution q = w * p, so w is the quotient of q by p
    (`_divide`, the test of `u1_convertible`), placed at the ladder shift
    q.offset - p.offset; q is reachable iff that quotient exists and its
    support fits in the window -d..d.
    """
    if d < 0:
        raise ValueError("qudit half-width must be nonnegative")
    w = _divide(q.at_origin(), p.at_origin())
    if w is None:
        return None
    lo = w.offset + q.offset - p.offset
    if lo < -d or lo + w.diam > d:
        return None
    out = np.zeros(2 * d + 1)
    out[lo + d : lo + d + len(w.weights)] = w.as_floats()
    return out
