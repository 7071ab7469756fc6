"""U(1)-covariant pure-state interconversion on the infinite ladder.

A state with squared amplitudes p can be sent to one with squared
amplitudes q iff p = w * q for a probability vector w.  On trimmed supports
that is exact division of the generating polynomials, and division decides
it: Fraction long division for rational inputs (the verdict is exact), least
squares on the banded convolution matrix of q for floats.  The paper's
construction -- embed both vectors into a prime-dimensional cyclic space and
invert a circulant matrix -- stays in `circulant` and `cyclic_majorize` as an
independent oracle.

The states p reaches are the nonnegative factors q of its polynomial.
`accessible_states` groups the computed roots that lie within CLUSTER_TOL
of one another and counts a group of m as one m-fold root only when the
m-th power of its mean's factor divides p (within VERIFY_TOL); w is then
p's quotient by each candidate q.  That is the limit: a k-fold root whose
computed copies spread beyond CLUSTER_TOL (from k = 7 for binomial powers)
is not recognized, and its splits come back as near-copies of one state.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import KrausChannel
from .core import is_prime as _is_prime_int  # name kept importable for the acceptance suite

NEG_TOL = 1e-9  # float quotient entries above -NEG_TOL are clipped to zero
VERIFY_TOL = 1e-9  # largest |w * q - p| entry a float quotient may leave
CLUSTER_TOL = 1e-2  # relative spread of computed roots tested as one repeated root


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


def cyclic_majorize(p0, q0):
    """Weights w with C(w) = C(p) C(q)^{-1}, or None if any entry is negative.

    Raises SingularCirculantError when C(q) is singular (reciprocal
    condition below 1e-10 for floats, zero pivot for exact input).
    Float entries above -NEG_TOL are clipped and the result renormalized.
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
    if s[-1] < 1e-10 * s[0]:
        raise SingularCirculantError(
            f"circulant of q is numerically singular (rcond {s[-1]/s[0]:.2e})"
        )
    w = np.linalg.solve(cq.T, np.array([float(v) for v in p0]))
    if w.min() < -NEG_TOL:
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


def _band_quotient(p, q):
    """Least-squares w of p = w * q for float coefficient arrays, q[0] != 0."""
    m = len(p) - len(q) + 1
    band = np.zeros((len(p), m))  # column k is q shifted down by k
    band[np.arange(len(q))[:, None] + np.arange(m), np.arange(m)] = q[:, None]
    return np.linalg.lstsq(band, p, rcond=None)[0]


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
    w = _band_quotient(p.as_floats(), q.as_floats())
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


def _real_poly(roots):
    """Coefficients, lowest degree first, of the real polynomial prod (x - r)."""
    return np.atleast_1d(np.real(np.poly(roots)))[::-1]


def _factor_classes(p: ProbVector):
    """(coefficients, multiplicity) of each real irreducible factor of p's polynomial.

    Computed roots within CLUSTER_TOL (relative) of a seed root form a group;
    a group of m is one m-fold root when the m-th power of its mean's linear
    factor (a group at the real axis) or quadratic factor (a group off it)
    divides p within VERIFY_TOL, and otherwise each of its roots stands
    alone.  The quadratic factor carries the mirror group: `np.roots` takes
    the eigenvalues of a real companion matrix, which come in exact
    conjugate pairs, so only roots with Im >= 0 are grouped.
    """
    pf = p.as_floats()
    left = np.roots(pf[::-1])
    left = left[left.imag >= 0]
    classes = []
    while len(left):
        r = left[0]
        near = np.abs(left - r) <= CLUSTER_TOL * abs(r)
        group, left = left[near], left[~near]
        if abs(r.imag) <= CLUSTER_TOL * abs(r):
            # at the real axis: an upper root stands for itself and its conjugate
            weight = np.where(group.imag > 0, 2, 1)
            m, one = int(weight.sum()), [float(weight @ group.real) / weight.sum()]
        else:
            mu = group.mean()
            m, one = len(group), [mu, mu.conjugate()]
        g = _real_poly(one * m)
        if m > 1 and np.abs(np.convolve(_band_quotient(pf, g), g) - pf).max() <= VERIFY_TOL:
            classes.append((_real_poly(one), m))
        else:
            classes += [(_real_poly([z, z.conjugate()] if z.imag > 0 else [z.real]), 1) for z in group]
    return classes


def accessible_states(p: ProbVector, tol=1e-9):
    """All factor pairs (q, w) of p's polynomial with q, w on the simplex.

    Each candidate q takes every factor of `_factor_classes` to a power
    between 0 and its multiplicity, normalized by q(1) = 1; a q with an
    entry below -tol is dropped, and w is the quotient `_divide(p, q)` --
    the test of `u1_convertible` -- so every returned q is a state from
    which p is reachable and w the weight vector that realizes it.
    """
    if p.diam > 20:
        raise ValueError("support diameter capped at 20 (2^m enumeration)")
    p = p.at_origin()
    # the powers f^0, ..., f^m of each class's factor f
    powers = [itertools.accumulate([f] * m, np.convolve, initial=np.ones(1)) for f, m in _factor_classes(p)]
    pairs = []
    for choice in itertools.product(*powers):
        g = functools.reduce(np.convolve, choice, np.ones(1))
        g = g / g.sum()
        if g.min() < -tol:
            continue
        q = ProbVector.from_weights(np.clip(g, 0.0, None))
        w = _divide(p, q)
        if w is not None:
            pairs.append((q, w))
    return {"pairs": pairs}


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
