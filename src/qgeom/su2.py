"""SU(2) spin-state composition, characteristic functions, J_Z-eigenstate
covariant interconversion, the sampled positive-definiteness test, and the
j = 1 covariant-channel simplex.  Characteristic functions are evaluated
for many group elements at once, one stacked expm per spin block.

Clebsch-Gordan coefficients follow the Condon-Shortley convention and are
evaluated through the Racah sum in exact rational arithmetic (their squares
are rationals), so coupled expansions stay accurate out to large spins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from .core import as_density, as_half_integer, choi_matrix_of_map, spin_operators

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


def spin_combine(a: SpinKet, b: SpinKet):
    """Tensor product expanded in the coupled total-spin basis.

    Output amplitudes are Clebsch-Gordan-weighted products of the input
    amplitudes; each term is tagged with its (j1, j2) origin.
    """
    for s in (a, b):
        if any(tag != "" for (_, _, tag), _ in s.amps):
            raise ValueError("inputs must carry plain (pre-combination) tags")
    out = {}
    for (j1, m1, _), a1 in a.amps:
        for (j2, m2, _), a2 in b.amps:
            m = m1 + m2
            j = abs(j1 - j2)
            while j <= j1 + j2:
                if abs(m) <= j:
                    c = clebsch_gordan(j1, m1, j2, m2, j, m)
                    if c != 0.0:
                        key = (j, m, f"({j1},{j2})")
                        out[key] = out.get(key, 0) + c * a1 * a2
                j += 1
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


def characteristic_values(s: SpinKet, vs):
    """chi(g) = <s| U_g |s> for the rotation vector g in each row of `vs`.

    U_g = exp(i v . J) blockwise; one stacked expm per (j, tag) block.
    """
    vs = np.asarray(vs, dtype=float).reshape(-1, 3)
    total = np.zeros(len(vs), dtype=complex)
    for (j, _tag), block in s.blocks().items():
        vec = np.zeros(int(2 * j) + 1, dtype=complex)
        for m, a in block.items():
            vec[int(j - m)] = a  # descending-m basis of spin_operators
        jx, jy, jz = spin_operators(j)
        u = expm(1j * (vs[:, 0, None, None] * jx + vs[:, 1, None, None] * jy + vs[:, 2, None, None] * jz))
        # (1 x dim) @ (dim x 1) per sample runs the vector dot of an unstacked <s|U|s>
        total += ((vec.conj() @ u)[:, None, :] @ vec[:, None])[:, 0, 0]
    return total


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
    for (j1, mm1, _), a1 in phi.amps:
        for (j2, mm2, _), a2 in omega.amps:
            m = mm1 + mm2
            j = abs(j1 - j2)
            while j <= j1 + j2:
                if abs(m) <= j:
                    c = clebsch_gordan(j1, mm1, j2, mm2, j, m)
                    key = (j, m)
                    p[key] = p.get(key, 0.0) + (c * abs(a1) * abs(a2)) ** 2
                j += 1
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


def _quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def _quat_inv(a):
    return np.array([a[0], -a[1], -a[2], -a[3]])


def _quat_to_rotvec(a):
    """Unit quaternion -> rotation vector with angle in [0, 2pi).

    The full angle range keeps the SU(2) double cover faithful for
    half-integer representations.
    """
    w = np.clip(a[0], -1.0, 1.0)
    vec = a[1:]
    nv = np.linalg.norm(vec)
    angle = 2.0 * np.arctan2(nv, w)
    if nv < 1e-15:
        return (angle, 0.0, 0.0) if angle > 1e-12 else (0.0, 0.0, 0.0)
    axis = vec / nv
    return tuple(angle * axis)


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


def marvian_necessary_test(psi: SpinKet, phi: SpinKet, samples=200, seed=0, zero_tol=1e-8):
    """Sampled positive-definiteness of f = chi_psi / chi_phi over SU(2).

    Builds M_ik = f(g_i g_k^{-1}) on Haar samples, one row i (every k) per
    stacked characteristic_values call, greedily drops indices
    whose rows meet |chi_phi| below `zero_tol` (reported as coverage loss),
    and declares "impossible" with the eigenvector certificate when the
    Hermitian part has a significantly negative eigenvalue.  Necessary
    only: a consistent verdict never claims the conversion is possible.
    """
    quats = haar_quaternions(samples, seed=seed)
    n = len(quats)
    m = np.zeros((n, n), dtype=complex)
    bad = np.zeros((n, n), dtype=bool)
    for i in range(n):
        vs = np.array([_quat_to_rotvec(_quat_mul(quats[i], _quat_inv(qk))) for qk in quats])
        denom = characteristic_values(phi, vs)
        bad[i] = np.abs(denom) < zero_tol
        ok = ~bad[i]
        # Python's complex division: numpy's rounds differently
        m[i, ok] = [a / b for a, b in zip(characteristic_values(psi, vs[ok]).tolist(), denom[ok].tolist())]
    keep = list(range(n))
    while True:
        sub = bad[np.ix_(keep, keep)]
        counts = sub.sum(axis=0) + sub.sum(axis=1)
        if counts.max(initial=0) == 0:
            break
        keep.pop(int(np.argmax(counts)))
        if not keep:
            break
    skipped = n - len(keep)
    if len(keep) < 2:
        return MarvianVerdict(True, None, len(keep), skipped, 0.0)
    sub = m[np.ix_(keep, keep)]
    herm = (sub + sub.conj().T) / 2
    w, v = np.linalg.eigh(herm)
    if w[0] < -1e-6 * max(w[-1], 1e-30):
        return MarvianVerdict(False, v[:, 0], len(keep), skipped, float(w[0]))
    return MarvianVerdict(True, None, len(keep), skipped, float(w[0]))


# ---------------------------------------------------------------------------
# j = 1 covariant-channel simplex


def zeta_map(rho, j=1):
    """zeta(rho) = sum_s J_s rho J_s / (j (j+1)); unital and trace preserving."""
    jx, jy, jz = spin_operators(j)
    jj = float(j) * (float(j) + 1.0)
    return (jx @ rho @ jx + jy @ rho @ jy + jz @ rho @ jz) / jj


@dataclass
class ZetaSimplexReport:
    is_cptp: bool
    choi_min_eig: float
    x: tuple


def zeta_channel_simplex(x0, x1, j=1):
    """CPTP test of rho -> x0 rho + x1 zeta(rho) + (1 - x0 - x1) zeta^2(rho).

    Restricted to j = 1; the map is trace preserving for every (x0, x1) by
    construction, and completely positive iff its Choi matrix is PSD.
    """
    if j != 1:
        raise ValueError("the covariant simplex is implemented for j = 1 only")
    x2 = 1.0 - x0 - x1

    def g(rho):
        z1 = zeta_map(rho)
        return x0 * rho + x1 * z1 + x2 * zeta_map(z1)

    d = 3
    choi = choi_matrix_of_map(g, d)
    # trace preservation check: Tr_B(choi) must be 1/d
    tb = np.trace(choi.reshape(d, d, d, d), axis1=1, axis2=3)
    if np.abs(tb - np.eye(d) / d).max() > 1e-10:
        raise RuntimeError("simplex member is not trace preserving")
    w = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    return ZetaSimplexReport(
        is_cptp=bool(w[0] >= -1e-9),
        choi_min_eig=float(w[0]),
        x=(float(x0), float(x1)),
    )


def antiunitary_point_map(rho):
    """The covariant non-CP map (R rho R^dag)^T with R = exp(i pi J_Y), j = 1."""
    _, jy, _ = spin_operators(1)
    r = expm(1j * np.pi * jy)
    return (r @ rho @ r.conj().T).T
