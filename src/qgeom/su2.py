"""SU(2) spin-state composition, characteristic functions, J_Z-eigenstate
covariant interconversion, the sampled positive-definiteness test, and the
j = 1 covariant-channel simplex.  A state is rotated by many group elements
at once in closed form: each element's spin-1/2 matrix gives its Euler
angles, and each spin block is then two matrix products with the
eigenvectors of J_Y.  Characteristic values are overlaps of rotated kets.

Clebsch-Gordan coefficients follow the Condon-Shortley convention and are
evaluated through the Racah sum in exact rational arithmetic (their squares
are rationals), so coupled expansions stay accurate out to large spins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import as_half_integer, choi_matrix_of_map, partial_trace, spin_operators

_CG_CACHE = {}


def _fact(n):
    if n < 0 or n != int(n):
        raise ValueError(f"factorial of {n}")
    return math.factorial(int(n))


def clebsch_gordan(j1, m1, j2, m2, j, m):
    """<j1 m1; j2 m2 | j m> in the Condon-Shortley convention.

    Returns 0 for selection-rule violations (m != m1 + m2 or triangle
    failure); raises for malformed quantum numbers.  The Racah sum runs in
    Fraction arithmetic; only the final square root is floating point.
    """
    j1, m1, j2, m2, j, m = (as_half_integer(v) for v in (j1, m1, j2, m2, j, m))
    for jj, mm in ((j1, m1), (j2, m2)):
        if abs(mm) > jj or (jj - mm).denominator != 1:
            raise ValueError(f"invalid input pair (j={jj}, m={mm})")
    if j < 0 or (j - m).denominator != 1:
        raise ValueError(f"invalid output pair (j={j}, m={m})")
    if abs(m) > j:
        return 0.0
    if m != m1 + m2 or j < abs(j1 - j2) or j > j1 + j2 or (j1 + j2 - j).denominator != 1:
        return 0.0
    key = (j1, m1, j2, m2, j, m)
    if key in _CG_CACHE:
        return _CG_CACHE[key]
    pref = Fraction(
        (2 * j + 1)
        * _fact(j1 + j2 - j)
        * _fact(j1 - j2 + j)
        * _fact(-j1 + j2 + j),
        _fact(j1 + j2 + j + 1),
    )
    pref *= Fraction(
        _fact(j1 + m1) * _fact(j1 - m1) * _fact(j2 + m2) * _fact(j2 - m2) * _fact(j + m) * _fact(j - m)
    )
    total = Fraction(0)
    k = 0
    while True:
        args = (
            j1 + j2 - j - k,
            j1 - m1 - k,
            j2 + m2 - k,
            j - j2 + m1 + k,
            j - j1 - m2 + k,
        )
        if min(args[0], args[1], args[2]) < 0:
            break
        if args[3] >= 0 and args[4] >= 0:
            den = _fact(k) * math.prod(_fact(a) for a in args)
            total += Fraction((-1) ** k, den)
        k += 1
    sign = 1.0 if total > 0 else (-1.0 if total < 0 else 0.0)
    val = sign * math.sqrt(float(pref * total * total))
    _CG_CACHE[key] = val
    return val


@dataclass(frozen=True)
class SpinKet:
    """Sparse spin state: {(j, m, tag): amplitude}, unit norm.

    Tags are opaque degeneracy labels; pre-combination states carry the
    empty tag.
    """

    amps: tuple  # tuple of ((j, m, tag), complex)

    def __post_init__(self):
        entries = []
        for (j, m, tag), a in dict(self.amps).items():
            j = as_half_integer(j)
            m = as_half_integer(m)
            if abs(m) > j or (j - m).denominator != 1:
                raise ValueError(f"m = {m} incompatible with j = {j}")
            a = complex(a)
            if a != 0:
                entries.append(((j, m, str(tag)), a))
        entries.sort(key=lambda kv: (kv[0][0], -kv[0][1], kv[0][2]))
        norm = math.sqrt(sum(abs(a) ** 2 for _, a in entries))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} != 1")
        object.__setattr__(self, "amps", tuple(entries))

    @staticmethod
    def from_terms(terms, normalize=False):
        """terms: iterable of (j, m, amp) or (j, m, tag, amp)."""
        d = {}
        for t in terms:
            if len(t) == 3:
                j, m, a = t
                tag = ""
            else:
                j, m, tag, a = t
            key = (as_half_integer(j), as_half_integer(m), str(tag))
            d[key] = d.get(key, 0) + complex(a)
        if normalize:
            n = math.sqrt(sum(abs(a) ** 2 for a in d.values()))
            d = {k: a / n for k, a in d.items()}
        return SpinKet(tuple(d.items()))

    def as_dict(self):
        return dict(self.amps)

    def blocks(self):
        """Group amplitudes by (j, tag): {(j, tag): {m: amp}}."""
        out = {}
        for (j, m, tag), a in self.amps:
            out.setdefault((j, tag), {})[m] = a
        return out

    def jz_eigenvalue(self, tol=1e-12):
        """The common m if the state is a J_Z eigenstate, else None."""
        ms = {m for (_, m, _), a in self.amps if abs(a) > tol}
        return ms.pop() if len(ms) == 1 else None


def _couplings(a: SpinKet, b: SpinKet):
    """(j, m, j1, j2, c, a1, a2) for each amplitude pair a1 |j1 m1>, a2 |j2 m2> of a and b
    and each total spin j the selection rules allow, m = m1 + m2 and c = <j1 m1; j2 m2 | j m>;
    c is 0.0 where it vanishes by accident (<1 0; 1 0 | 1 0>, say), yielded all the same: jz_convert
    sums its blocks in the order it first meets them, so its rounding depends on that order."""
    for (j1, m1, _), a1 in a.amps:
        for (j2, m2, _), a2 in b.amps:
            m = m1 + m2
            j = max(abs(j1 - j2), abs(m))
            while j <= j1 + j2:
                yield j, m, j1, j2, clebsch_gordan(j1, m1, j2, m2, j, m), a1, a2
                j += 1


def spin_combine(a: SpinKet, b: SpinKet):
    """Tensor product expanded in the coupled total-spin basis.

    Output amplitudes are Clebsch-Gordan-weighted products of the input
    amplitudes; each term is tagged with its (j1, j2) origin.
    """
    for s in (a, b):
        if any(tag != "" for (_, _, tag), _ in s.amps):
            raise ValueError("inputs must carry plain (pre-combination) tags")
    out = {}
    for j, m, j1, j2, c, a1, a2 in _couplings(a, b):
        if c != 0.0:
            key = (j, m, f"({j1},{j2})")
            out[key] = out.get(key, 0) + c * a1 * a2
    return SpinKet(tuple(out.items()))


@dataclass(frozen=True)
class GroupElement:
    """Rotation-vector parameterization: U_g = exp(i v . J) blockwise."""

    v: tuple

    def __post_init__(self):
        v = tuple(float(x) for x in self.v)
        if len(v) != 3 or not all(np.isfinite(v)):
            raise ValueError("group element needs a finite 3-vector")
        object.__setattr__(self, "v", v)


def _spin_half(q):
    """Rows (w, x, y, z) -> stacked u = w + i(x sx + y sy + z sz), descending m;
    the map reverses the Hamilton product, u(q q') = u(q') u(q)."""
    w, x, y, z = np.asarray(q, dtype=float).T
    return np.array([[w + 1j * z, y + 1j * x], [-y + 1j * x, w - 1j * z]]).transpose(2, 0, 1)


def _block_data(s: SpinKet):
    """Per (j, tag) block: descending m values, amplitudes, and eigh(J_Y)."""
    out = []
    for (j, _tag), block in s.blocks().items():
        ms = float(j) - np.arange(int(2 * j) + 1)
        vec = np.array([block.get(j - k, 0) for k in range(len(ms))], dtype=complex)
        out.append((ms, vec, *np.linalg.eigh(spin_operators(j)[1])))
    return out


def _rotated(blocks, u):
    """Rows D(u_i) s, (j, tag) blocks side by side, for stacked spin-1/2 u; `blocks` from _block_data.

    With a = u_00, b = u_01: u = e^{i alpha J_Z} e^{i beta J_Y} e^{i gamma J_Z},
    sign included, for beta = 2 atan2(|b|, |a|), alpha = arg a + arg b and
    gamma = arg a - arg b; so is D(u) in every spin j, with e^{i beta J_Y} =
    W diag(e^{i beta mu}) W^dag from the eigensystem of J_Y.
    """
    a, b = u[:, 0, 0], u[:, 0, 1]
    beta = 2 * np.arctan2(np.abs(b), np.abs(a))
    alpha = np.angle(a) + np.angle(b)
    gamma = np.angle(a) - np.angle(b)
    parts = []
    for ms, vec, mu, w in blocks:
        x = ((vec * np.exp(1j * np.outer(gamma, ms))) @ w.conj()) * np.exp(1j * np.outer(beta, mu))
        parts.append(np.exp(1j * np.outer(alpha, ms)) * (x @ w.T))
    return np.concatenate(parts, axis=1)


def characteristic_values(s: SpinKet, vs):
    """chi(g) = <s| U_g |s> for the rotation vector g in each row of `vs`.

    U_g = exp(i v . J) blockwise, at spin 1/2 cos(|v|/2) + i sin(|v|/2) v.sigma/|v|.
    """
    vs = np.asarray(vs, dtype=float).reshape(-1, 3)
    t = np.linalg.norm(vs, axis=1)
    # sin(t/2) / t = sinc(t / 2 pi) / 2, finite at t = 0
    q = np.column_stack([np.cos(t / 2), 0.5 * np.sinc(t / (2 * np.pi))[:, None] * vs])
    blocks = _block_data(s)
    return _rotated(blocks, _spin_half(q)) @ np.concatenate([vec.conj() for _, vec, *_ in blocks])


def characteristic_function(s: SpinKet, g: GroupElement):
    """chi(g) = <s| U_g |s>, summed over (j, tag) blocks: the one-row characteristic_values."""
    return complex(characteristic_values(s, [g.v])[0])


def _one_m_per_j(s: SpinKet):
    seen = {}
    for (j, m, _), a in s.amps:
        if j in seen and seen[j] != m:
            return False
        seen[j] = m
    return True


def jz_convert(phi: SpinKet, omega: SpinKet):
    """Pure state sharing the characteristic function of phi (x) omega.

    Valid when every degenerate copy of a total spin j in the combination
    is proportional: J_Z eigenstates (one global m per input) and
    coherent-family states (m = j throughout) both qualify.  Each block's
    root-sum-square amplitude realizes p_j = sum G_{j,j1,j2} q_{j1} w_{j2}
    with G the squared Clebsch-Gordan coefficients.
    """
    for s in (phi, omega):
        eigen = s.jz_eigenvalue() is not None
        coherent = all(m == j for (j, m, _), _ in s.amps)
        if not (eigen or coherent):
            raise ValueError(
                "jz_convert requires J_Z eigenstate or coherent-family inputs"
            )
        if not _one_m_per_j(s):
            raise ValueError("inputs must carry a single m per total spin j")
    p = {}
    for j, m, _, _, c, a1, a2 in _couplings(phi, omega):
        p[j, m] = p.get((j, m), 0.0) + (c * abs(a1) * abs(a2)) ** 2
    blocks = {}
    for (j, m), v in p.items():
        if v > 1e-30:
            if j in blocks and blocks[j][0] != m:
                raise ValueError("combination mixes m values within one j block")
            blocks[j] = (m, blocks.get(j, (m, 0.0))[1] + v)
    total = sum(v for _, v in blocks.values())
    terms = [(j, m, "", math.sqrt(v / total)) for j, (m, v) in blocks.items()]
    return SpinKet.from_terms(terms)


# ---------------------------------------------------------------------------
# Haar sampling and the sampled necessary test


def haar_quaternions(n, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


@dataclass
class MarvianVerdict:
    consistent: bool
    certificate: np.ndarray | None
    used: int
    skipped: int
    min_eig: float
    min_eig_bound: float


def marvian_necessary_test(psi: SpinKet, phi: SpinKet, samples=200, seed=0, zero_tol=1e-8):
    """Sampled positive-definiteness of f = chi_psi / chi_phi over SU(2).

    Builds M_ik = f(u_k^dag u_i), the element of q_i q_k^-1, on Haar samples,
    as a quotient of the rotated kets' Gram matrices: D is a representation,
    so chi_s(u_k^dag u_i) = <D(u_k) s|D(u_i) s>.  Greedily drops indices whose
    pairs meet |chi_phi| below `zero_tol` (reported as coverage loss), and
    declares "impossible" with the eigenvector certificate when M has a
    significantly negative eigenvalue.  Necessary only: a consistent verdict
    never claims the conversion is possible.  `min_eig_bound` is its rounding,
    n eps (2 dim / min |chi_phi|^2 + ||M||): by Weyl, n times the error of a
    quotient of Gram entries that err by about dim eps, plus eigh's own.
    """
    if samples < 2:
        raise ValueError(f"the Marvian test needs at least 2 samples, got {samples}")
    u = _spin_half(haar_quaternions(samples, seed=seed))
    s_psi, s_phi = (_rotated(_block_data(s), u) for s in (psi, phi))
    den = s_phi @ s_phi.conj().T  # den[i, k] = chi_phi(u_k^dag u_i)
    size = np.abs(den)
    bad = (size < zero_tol) | (size.T < zero_tol)  # den is Hermitian only up to rounding
    keep = np.arange(samples)
    while bad[np.ix_(keep, keep)].any():
        keep = np.delete(keep, np.argmax(bad[np.ix_(keep, keep)].sum(axis=0)))
    used, skipped = len(keep), samples - len(keep)
    if used < 2:
        return MarvianVerdict(True, None, used, skipped, 0.0, 0.0)
    m = np.divide(s_psi @ s_psi.conj().T, den, out=den, where=~bad)  # in place: two n x n complex arrays
    np.fill_diagonal(m, 1.0)  # f(e) = 1 for unit kets
    w, v = np.linalg.eigh(m[np.ix_(keep, keep)])
    dim = max(s_psi.shape[1], s_phi.shape[1])
    bound = used * np.finfo(float).eps * (2 * dim / size[np.ix_(keep, keep)].min() ** 2 + np.abs(w).max())
    impossible = w[0] < -1e-6 * max(w[-1], 1e-30)
    return MarvianVerdict(not impossible, v[:, 0] if impossible else None, used, skipped, float(w[0]), float(bound))


# ---------------------------------------------------------------------------
# j = 1 covariant-channel simplex


def zeta_map(rho):
    """zeta(rho) = sum_s J_s rho J_s / 2 over the spin-1 J_s; unital and trace preserving."""
    jx, jy, jz = spin_operators(1)
    return (jx @ rho @ jx + jy @ rho @ jy + jz @ rho @ jz) / 2.0


@dataclass
class ZetaSimplexReport:
    is_cptp: bool
    choi_min_eig: float
    x: tuple


def zeta_channel_simplex(x0, x1):
    """CPTP test of rho -> x0 rho + x1 zeta(rho) + (1 - x0 - x1) zeta^2(rho), j = 1.

    The map is trace preserving for every (x0, x1) by construction, and
    completely positive iff its Choi matrix is PSD.
    """
    x2 = 1.0 - x0 - x1

    def g(rho):
        z1 = zeta_map(rho)
        return x0 * rho + x1 * z1 + x2 * zeta_map(z1)

    d = 3
    choi = choi_matrix_of_map(g, d)
    # trace preservation check: Tr_B(choi) must be 1/d
    tb = partial_trace(choi, (d, d), 1)
    if np.abs(tb - np.eye(d) / d).max() > 1e-10:
        raise RuntimeError("simplex member is not trace preserving")
    w = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    return ZetaSimplexReport(
        is_cptp=bool(w[0] >= -1e-9),
        choi_min_eig=float(w[0]),
        x=(float(x0), float(x1)),
    )
