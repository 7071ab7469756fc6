"""Discrete Weyl-Heisenberg displacements, phase-point operators, Wigner
distributions, channel transition kernels, and WH-covariant interconversion.

Only odd square-free dimensions are supported for user-facing systems
(qubits are explicitly refused); composite dimensions factor into distinct
odd primes and all structures are tensor products over the factors.  The
doubled factor list used internally for Choi states may repeat primes:
the product construction stays valid for composite systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .core import KrausChannel, as_density, as_hermitian, choi_state, is_prime

_PHASE_POINT_CACHE = {}


def check_wh_dims(dims, allow_repeats=False):
    dims = tuple(int(p) for p in dims)
    for p in dims:
        if p == 2 or p % 2 == 0:
            raise ValueError(
                "even dimensions are not supported: the p = 2 case has "
                "significant difficulties and is explicitly excluded"
            )
        if not is_prime(p):
            raise ValueError(f"dimension factor {p} is not prime; factor composites first")
    if not allow_repeats and len(set(dims)) != len(dims):
        raise ValueError(
            f"repeated primes in {dims}: only odd square-free total dimensions are supported"
        )
    return dims


def _xop(p):
    m = np.zeros((p, p), dtype=complex)
    for n in range(p):
        m[(n + 1) % p, n] = 1.0
    return m


def _zop(p):
    return np.diag(np.exp(2j * np.pi * np.arange(p) / p))


def _disp_prime(x, q, p):
    kappa = np.exp(1j * np.pi / p)
    return (
        (-kappa) ** (x * q)
        * np.linalg.matrix_power(_xop(p), x % p)
        @ np.linalg.matrix_power(_zop(p), q % p)
    )


def wh_displacement(x, q, dims, allow_repeats=False):
    """Displacement operator D_{x,q} = (-kappa)^{xq} X^x Z^q per prime factor."""
    dims = check_wh_dims(dims, allow_repeats=allow_repeats)
    xs = _as_tuple(x, dims)
    qs = _as_tuple(q, dims)
    out = None
    for xi, qi, p in zip(xs, qs, dims):
        d = _disp_prime(int(xi), int(qi), p)
        out = d if out is None else np.kron(out, d)
    return out


def _as_tuple(x, dims):
    if np.isscalar(x):
        if len(dims) != 1:
            raise ValueError("composite dims need one label per factor")
        return (int(x),)
    xs = tuple(int(v) for v in x)
    if len(xs) != len(dims):
        raise ValueError(f"label {xs} does not match factors {dims}")
    return tuple(v % p for v, p in zip(xs, dims))


def _phase_point_stack(dims):
    """All d^2 phase-point operators for a factor list, cached immutably.

    Index layout: A[x_flat * d + q_flat] with mixed-radix flattening of the
    per-factor labels (first factor most significant).
    """
    key = tuple(dims)
    if key in _PHASE_POINT_CACHE:
        return _PHASE_POINT_CACHE[key]
    per_factor = []
    for p in key:
        a00 = sum(_disp_prime(x, q, p) for x in range(p) for q in range(p)) / p
        ops = np.empty((p, p, p, p), dtype=complex)  # [x, q, :, :]
        for x in range(p):
            for q in range(p):
                d = _disp_prime(x, q, p)
                ops[x, q] = d @ a00 @ d.conj().T
        per_factor.append(ops)
    d_total = int(np.prod(key))
    stack = np.empty((d_total, d_total, d_total, d_total), dtype=complex)
    for xf in range(d_total):
        xs = _unflatten(xf, key)
        for qf in range(d_total):
            qs = _unflatten(qf, key)
            m = None
            for ops, xi, qi in zip(per_factor, xs, qs):
                m = ops[xi, qi] if m is None else np.kron(m, ops[xi, qi])
            stack[xf, qf] = m
    stack.setflags(write=False)
    _PHASE_POINT_CACHE[key] = stack
    return stack


def _unflatten(flat, dims):
    out = []
    for p in reversed(dims):
        out.append(flat % p)
        flat //= p
    return tuple(reversed(out))


def phase_point(x, q, dims, allow_repeats=False):
    """Phase-point operator A_{x,q} = D A_{0,0} D^dag (Hermitian, trace 1)."""
    dims = check_wh_dims(dims, allow_repeats=allow_repeats)
    xs = _as_tuple(x, dims)
    qs = _as_tuple(q, dims)
    stack = _phase_point_stack(dims)
    return np.array(stack[_flatten(xs, dims), _flatten(qs, dims)])


def _flatten(labels, dims):
    f = 0
    for v, p in zip(labels, dims):
        f = f * p + (v % p)
    return f


@dataclass
class WignerTable:
    """Real quasiprobability table W(x, q) = Tr(rho A_{x,q}) / d."""

    dims: tuple
    values: np.ndarray  # (d, d) indexed by flattened (x, q)

    @property
    def d(self):
        return int(np.prod(self.dims))

    def marginal_x(self):
        """Z-eigenbasis probabilities: sum over q at fixed x."""
        return self.values.sum(axis=1)

    def marginal_q(self):
        """X-eigenbasis probabilities: sum over x at fixed q."""
        return self.values.sum(axis=0)

    def translated(self, x, q):
        """Table of D_{x,q} rho D^dag: cyclic per-factor shifts of both labels."""
        xs = _as_tuple(x, self.dims)
        qs = _as_tuple(q, self.dims)
        n = len(self.dims)
        v = self.values.reshape(self.dims + self.dims)
        for axis, shift in enumerate(xs):
            v = np.roll(v, shift, axis=axis)
        for axis, shift in enumerate(qs):
            v = np.roll(v, shift, axis=n + axis)
        return WignerTable(self.dims, v.reshape(self.d, self.d))


def wigner_of(rho, dims, allow_repeats=False, imag_tol=1e-12):
    """Discrete Wigner distribution of a unit-trace state."""
    dims = check_wh_dims(dims, allow_repeats=allow_repeats)
    rho = as_density(rho)
    d = int(np.prod(dims))
    if rho.shape[0] != d:
        raise ValueError(f"state dimension {rho.shape[0]} != prod(dims) {d}")
    stack = _phase_point_stack(dims)
    vals = np.einsum("xqij,ji->xq", stack, rho) / d
    if np.abs(vals.imag).max() > imag_tol * max(np.abs(vals.real).max(), 1.0):
        raise ValueError("Wigner values have non-real residue; input not Hermitian?")
    return WignerTable(dims, vals.real)


def state_of(table: WignerTable):
    """Reconstruct rho = sum W(x,q) A_{x,q}; flags bad reconstructions."""
    dims = check_wh_dims(table.dims, allow_repeats=True)
    stack = _phase_point_stack(dims)
    rho = np.einsum("xq,xqij->ij", table.values, stack)
    tr = np.trace(rho).real
    if tr < 0:
        raise ValueError(f"reconstruction has negative trace {tr}")
    return as_density(rho)


def channel_transition(ch: KrausChannel, dims):
    """Transition kernel T[(x,q) out, (x',q') in] of a WH-system channel.

    T(x,q|x',q') = d^2 W_Phi(x' (+) x, (-q') (+) q) with Phi the unit-trace
    Choi state; then W_{E(rho)} = T @ W_rho (Wigner tables flattened).
    Columns sum to one for trace-preserving channels.
    """
    dims = check_wh_dims(dims)
    d = int(np.prod(dims))
    if ch.dim_in != d or ch.dim_out != d:
        raise ValueError("channel dimensions do not match the WH system")
    phi = choi_state(ch)
    stack = _phase_point_stack(dims)
    # phase points of the doubled system are A_in (x) A_out;
    # the input slot carries labels (x', -q'), realized by index reversal.
    neg = _negate_q_index(dims)
    a_in = stack[:, neg, :, :]  # A_{x', -q'}
    phir = phi.reshape(d, d, d, d)
    # T(y,r|x',q') = Tr[Phi (A_{x',-q'} (x) A_{y,r})]; contract input side first
    half = np.einsum("abce,xqca->bexq", phir, a_in)
    t = np.einsum("bexq,yreb->yrxq", half, stack)
    return t.real.reshape(d * d, d * d)


def _negate_q_index(dims):
    d = int(np.prod(dims))
    neg = np.empty(d, dtype=int)
    for qf in range(d):
        qs = _unflatten(qf, dims)
        neg[qf] = _flatten(tuple((-v) % p for v, p in zip(qs, dims)), dims)
    return neg


def apply_transition(trans, table: WignerTable):
    d = table.d
    out = trans @ table.values.reshape(d * d)
    return WignerTable(table.dims, out.reshape(d, d))


def wh_convertible(rho, sigma, dims, zero_tol=1e-10, neg_tol=1e-9):
    """Search for a nonnegative kernel k with W_rho = k (2D-cyclic-conv) W_sigma.

    Deconvolution runs through the multidimensional DFT when the transform
    of W_sigma has no zeros; otherwise a nonnegative least-squares
    feasibility solve over the kernel takes over.  Returns the kernel as a
    (d, d) array or None.
    """
    dims = check_wh_dims(dims)
    d = int(np.prod(dims))
    w_r = wigner_of(rho, dims).values.reshape(dims + dims)
    w_s = wigner_of(sigma, dims).values.reshape(dims + dims)
    f_r = np.fft.fftn(w_r)
    f_s = np.fft.fftn(w_s)
    if np.abs(f_s).min() > zero_tol:
        k = np.fft.ifftn(f_r / f_s).real
        if k.min() >= -neg_tol:
            k = np.clip(k, 0.0, None)
            k /= k.sum()
            return k.reshape(d, d)
        return None
    # fallback: nonnegative feasibility across all cyclic shifts of W_sigma
    cols = []
    n = len(dims)
    for xf in range(d):
        xs = _unflatten(xf, dims)
        for qf in range(d):
            qs = _unflatten(qf, dims)
            shifted = w_s
            for axis, s in enumerate(xs):
                shifted = np.roll(shifted, s, axis=axis)
            for axis, s in enumerate(qs):
                shifted = np.roll(shifted, s, axis=n + axis)
            cols.append(shifted.reshape(-1))
    a = np.stack(cols, axis=1)
    b = w_r.reshape(-1)
    # normalization row keeps sum k = 1
    a_aug = np.vstack([a, np.ones((1, a.shape[1]))])
    b_aug = np.concatenate([b, [1.0]])
    k, res = nnls(a_aug, b_aug)
    if res > 1e-8:
        return None
    k = k / k.sum()
    return k.reshape(d, d)
