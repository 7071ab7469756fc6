"""Discrete Weyl-Heisenberg displacements, phase-point operators, Wigner
distributions, channel transition kernels, and WH-covariant interconversion.

Only odd square-free dimensions are supported for user-facing systems
(qubits are explicitly refused); composite dimensions factor into distinct
odd primes and all structures are tensor products over the factors.  For
an odd prime p the phase points have a closed form (Gross, J. Math. Phys.
47, 122107 (2006)): A_{0,0} is the parity |n> -> |-n> and
<m|A_{x,q}|n> = omega^{q(m-n)} [m + n = 2x mod p].  Every transform applies
these p^4-entry kernels one prime factor at a time, so a d-dimensional
system needs O(d^2) memory (the d^4 stack of all phase points is never
formed) and composite dimensions such as 3*5*7*11 work.  The doubled
factor list used internally for Choi states may repeat primes: the product
construction stays valid for composite systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KrausChannel, as_density, choi_state, is_prime, tensor

IMAG_TOL = 1e-12  # relative non-real residue of a Wigner table that flags a non-Hermitian input
ZERO_TOL = 1e-10  # smallest |DFT(W_sigma)| entry the deconvolution divides by
NEG_TOL = 1e-9  # most negative deconvolved kernel entry still clipped to zero


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


def _roots(p):
    return np.exp(2j * np.pi * np.arange(p) / p)


def _disp_prime(x, q, p):
    """<m|D_{x,q}|n> = omega^{(p+1)/2 xq + qn} [m = n + x], as -kappa = omega^{(p+1)/2}."""
    n = np.arange(p)
    d = np.zeros((p, p), dtype=complex)
    d[(n + x) % p, n] = _roots(p)[((p + 1) // 2 * x * q + q * n) % p]
    return d


def wh_displacement(x, q, dims):
    """Displacement operator D_{x,q} = (-kappa)^{xq} X^x Z^q per prime factor."""
    dims = check_wh_dims(dims)
    xs, qs = _as_tuple(x, dims), _as_tuple(q, dims)
    return tensor(*[_disp_prime(xi, qi, p) for xi, qi, p in zip(xs, qs, dims)])


def _as_tuple(x, dims):
    if np.isscalar(x):
        if len(dims) != 1:
            raise ValueError("composite dims need one label per factor")
        return (int(x) % dims[0],)
    xs = tuple(int(v) for v in x)
    if len(xs) != len(dims):
        raise ValueError(f"label {xs} does not match factors {dims}")
    return tuple(v % p for v, p in zip(xs, dims))


def _phase_points(p):
    """All phase points of one odd prime: [x, q, m, n] = omega^{q(m-n)} [m + n = 2x mod p]."""
    x, q, m, n = np.ogrid[:p, :p, :p, :p]
    return _roots(p)[q * (m - n) % p] * ((m + n - 2 * x) % p == 0)


def _factorwise(t, dims, axes):
    """Contract axes (i, k+i) of a (dims + dims) tensor with `axes` of factor i's kernel, k = len(dims).

    The kernel's two other axes take the places of the contracted ones, so
    the result is again a (dims + dims) tensor.
    """
    k = len(dims)
    for i, p in enumerate(dims):
        t = np.tensordot(t, _phase_points(p), axes=([i, k + i], axes))
        t = np.moveaxis(t, (-2, -1), (i, k + i))
    return t


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


def wigner_of(rho, dims):
    """Discrete Wigner distribution of a unit-trace state."""
    dims = check_wh_dims(dims)
    rho = as_density(rho)
    d = int(np.prod(dims))
    if rho.shape[0] != d:
        raise ValueError(f"state dimension {rho.shape[0]} != prod(dims) {d}")
    # Tr(rho A) pairs rho's (row, column) with A's (column, row) = kernel axes (n, m)
    vals = _factorwise(rho.reshape(dims + dims), dims, (3, 2)).reshape(d, d) / d
    if np.abs(vals.imag).max() > IMAG_TOL * max(np.abs(vals.real).max(), 1.0):
        raise ValueError("Wigner values have non-real residue; input not Hermitian?")
    return WignerTable(dims, vals.real)


def state_of(table: WignerTable):
    """Reconstruct rho = sum W(x,q) A_{x,q}; flags bad reconstructions."""
    dims = check_wh_dims(table.dims, allow_repeats=True)
    rho = _factorwise(table.values.reshape(dims + dims), dims, (0, 1)).reshape(table.d, table.d)
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
    k = len(dims)
    both = dims + dims
    # Tr[Phi (A_{x',r} (x) A_{x,q})] = d^2 W_Phi on the doubled system, axes (x', x, r, q);
    # reversing each r axis puts r = -q' at index q'
    t = _factorwise(choi_state(ch).reshape(both + both), both, (3, 2))
    for i, p in enumerate(dims):
        t = np.take(t, -np.arange(p) % p, axis=2 * k + i)
    out_x, out_q = range(k, 2 * k), range(3 * k, 4 * k)
    in_x, in_q = range(k), range(2 * k, 3 * k)
    return t.real.transpose(*out_x, *out_q, *in_x, *in_q).reshape(d * d, d * d)


def apply_transition(trans, table: WignerTable):
    d = table.d
    out = trans @ table.values.reshape(d * d)
    return WignerTable(table.dims, out.reshape(d, d))


def wh_convertible(rho, sigma, dims):
    """Search for a nonnegative kernel k with W_rho = k (2D-cyclic-conv) W_sigma.

    In Fourier space the convolution is a product, so no kernel exists where
    |DFT(W_sigma)| <= ZERO_TOL and DFT(W_rho) is not; else the quotient, 0
    where DFT(W_sigma) vanishes, is a kernel summing to 1, returned when
    nonnegative up to NEG_TOL.  Only a negative quotient with such zeros
    leaves a nonnegative least-squares feasibility solve over the free
    coefficients.  Returns the kernel as a (d, d) array or None.
    """
    dims = check_wh_dims(dims)
    d = int(np.prod(dims))
    t_s = wigner_of(sigma, dims)
    w_r = wigner_of(rho, dims).values
    f_r = np.fft.fftn(w_r.reshape(dims + dims))
    f_s = np.fft.fftn(t_s.values.reshape(dims + dims))
    zero = np.abs(f_s) <= ZERO_TOL
    if np.any(np.abs(f_r[zero]) > ZERO_TOL):
        return None
    k = np.fft.ifftn(np.where(zero, 0, f_r / np.where(zero, 1, f_s))).real
    if k.min() >= -NEG_TOL:
        k = np.clip(k, 0.0, None)
        return (k / k.sum()).reshape(d, d)
    if not zero.any():
        return None
    # fallback: nonnegative feasibility across all cyclic shifts of W_sigma
    from scipy.optimize import nnls  # deferred: importing qgeom loads no scipy

    labels = list(np.ndindex(dims))
    a = np.stack([t_s.translated(xs, qs).values.reshape(-1) for xs in labels for qs in labels], axis=1)
    # normalization row keeps sum k = 1
    a_aug = np.vstack([a, np.ones((1, a.shape[1]))])
    b_aug = np.concatenate([w_r.reshape(-1), [1.0]])
    k, res = nnls(a_aug, b_aug)
    if res > 1e-8:
        return None
    k = k / k.sum()
    return k.reshape(d, d)
