"""Complex-Hermitian linear algebra, composite systems, states, channels, distances.

Everything operates on plain numpy arrays.  Validators (`as_hermitian`,
`as_density`) return the validated array so call sites can stay terse.
The composite-index convention is row-major with subsystem 1 most
significant: the basis vector |i_1 ... i_n> sits at flat index
i_1 * d_2*...*d_n + ... + i_n.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
ROUNDING = 4 * np.finfo(float).eps  # times dim * scale: float error of one lambda_min
# matrix entries per stacked eigensolve, shared by the chunks that run at once; bounds their memory
STACK_ENTRIES = 2**18
# smallest matrix dimension whose stacks run on threads (x86-64, 2 CPUs, one BLAS thread; threaded against serial):
# 67 against 106 ms for the d = 64 `jnr --dirs 300` of perfbench's `chains` workload; medians of 0.89 against 1.37 s
# for `sep_numerical_range` at (4, 8) over 100 directions, 0.67 against 0.92 s at (2, 16) over 40, 4.2 against 4.6 s
# for `ppt_numerical_range` at (4, 8) over 24 and 0.24 against 0.37 s for `sep_max` at (2, 48); but threading the
# d = 16 sweeps of its `sweeps` workload saves 3-6% of that pass and adds 10 MB (6%) to its peak memory (per-thread
# BLAS and allocator buffers), so small stacks stay serial
THREAD_MIN_DIM = 32
# the variables that set the BLAS's threads per call: OpenBLAS's, MKL's, and OpenMP's, which both read last
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_hermitian(mat, tol=HERMITIAN_TOL):
    """Validate a square Hermitian matrix; returns it as a complex ndarray."""
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"operator must be square, got shape {a.shape}")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.conj().T).max() > tol * scale:
        raise ValueError("operator is not Hermitian within tolerance")
    return a


def as_density(mat):
    """Validate a unit-trace positive-semidefinite operator (Hermitian to 1e-11)."""
    rho = as_hermitian(mat, tol=1e-11)
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix must have unit trace, got {tr}")
    w = np.linalg.eigvalsh(rho)
    if w[0] < -PSD_TOL * max(abs(w[-1]), 1.0):
        raise ValueError(f"density matrix has negative eigenvalue {w[0]}")
    return rho


def check_dims(dims, dim):
    """Validate integer local dimensions that multiply to the operator dimension."""
    if isinstance(dims, str) or not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) for d in dims):
        raise ValueError(f"local dimensions must be integers, got {dims!r}")
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise ValueError(f"local dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != dim:
        raise ValueError(f"local dimensions {dims} do not multiply to {dim}")
    return dims


def stack_chunks(count, dim, parts=1, per_row=1):
    """Consecutive slices of `count` stack rows, each row holding `per_row`
    dim x dim matrices, each slice at most STACK_ENTRIES / parts entries (and
    at least one row), and at least `parts` slices when there are that many rows."""
    step = max(1, min(STACK_ENTRIES // parts // (per_row * dim * dim), -(-count // parts)))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def cpu_workers():
    """The threads of a stacked solve: the CPUs in this process's affinity mask, or 1 unless the BLAS
    runs one thread per call (the first of OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and
    OMP_NUM_THREADS that is set is 1).  A threaded BLAS called from several threads at once
    oversubscribes the CPUs: with two OpenBLAS threads, a d = 64 `jnr --dirs 300` takes 172 ms on two
    threads against 114 ms serial (72 ms on two threads with one BLAS thread; x86-64, 2 CPUs)."""
    blas = next((os.environ[v] for v in BLAS_THREAD_VARS if os.environ.get(v)), None)
    if blas != "1" or not hasattr(os, "sched_getaffinity"):  # no affinity masks on this platform: serial
        return 1
    return len(os.sched_getaffinity(0))


@functools.cache
def _pool(workers):
    """The threads of `stack_map` for one worker count, started on first use; should two first calls
    race, the cache keeps one pool and the other's threads exit once its chunks are done."""
    from concurrent.futures import ThreadPoolExecutor  # deferred: serial stacks never load it

    return ThreadPoolExecutor(workers, thread_name_prefix="qgeom-stack")


if hasattr(os, "register_at_fork"):  # POSIX: a forked child starts without the parent's threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def stack_map(fn, count, dim, thread_dim=None, per_row=1):
    """[fn(chunk) for each chunk of `count` stacked rows], in chunk order.

    The one place that decides how a stack is cut and where the chunks run.
    A row holds `per_row` dim x dim matrices while fn runs, as its caller
    counts them from the inputs.  From dim = thread_dim (default
    THREAD_MIN_DIM) on, with w = cpu_workers() > 1, the stack is cut into at
    least w chunks of at most STACK_ENTRIES / w entries, which run on a
    shared pool of w threads (LAPACK releases the GIL); other stacks, and any
    stack_map called from a pool chunk (whose threads may all wait on it),
    run serially in chunks of STACK_ENTRIES.  fn must give each row the same
    result in any chunk, so that results do not depend on the worker count.
    Every chunk finishes before the first exception, in chunk order, is raised.
    """
    nested = threading.current_thread().name.startswith("qgeom-stack")  # a chunk of `_pool`
    workers = cpu_workers() if dim >= (THREAD_MIN_DIM if thread_dim is None else thread_dim) and not nested else 1
    chunks = stack_chunks(count, dim, workers, per_row)
    if workers == 1 or len(chunks) == 1:
        return [fn(c) for c in chunks]
    from concurrent.futures import wait

    futures = [_pool(workers).submit(fn, c) for c in chunks]
    wait(futures)
    return [f.result() for f in futures]


def tensor(*ops):
    """Kronecker product; the first factor is the most significant index."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace(m, dims, which):
    """Trace out subsystem `which` (0-based) of an operator on prod(dims)."""
    m = np.asarray(m, dtype=complex)
    dims = check_dims(dims, m.shape[0])
    n = len(dims)
    if not 0 <= which < n:
        raise IndexError(f"subsystem index {which} out of range for {n} factors")
    r = m.reshape(dims + dims)
    r = np.trace(r, axis1=which, axis2=n + which)
    keep = int(np.prod([d for i, d in enumerate(dims) if i != which]))
    return r.reshape(keep, keep)


def partial_transpose(m, dims, which):
    """Transpose the tensor factor `which` (0-based) only; involutive."""
    m = np.asarray(m, dtype=complex)
    dims = check_dims(dims, m.shape[0])
    n = len(dims)
    if not 0 <= which < n:
        raise IndexError(f"subsystem index {which} out of range for {n} factors")
    r = m.reshape(dims + dims)
    perm = list(range(2 * n))
    perm[which], perm[n + which] = perm[n + which], perm[which]
    return r.transpose(perm).reshape(m.shape)


def hs_distance(x, y):
    """Hilbert-Schmidt (Frobenius) distance sqrt(Tr[(X-Y)(X-Y)^dag])."""
    d = np.asarray(x, dtype=complex) - np.asarray(y, dtype=complex)
    return float(np.sqrt(np.sum(np.abs(d) ** 2)))


@dataclass(frozen=True)
class KrausChannel:
    """A quantum channel given by its Kraus operators {K_i}.

    Trace preserving (sum K^dag K = 1) unless `sub_normalized` is set, in
    which case sum K^dag K <= 1 is accepted (e.g. a channel restricted to
    the support of a reference state).
    """

    kraus: tuple
    sub_normalized: bool = False

    def __post_init__(self):
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ks:
            raise ValueError("channel needs at least one Kraus operator")
        shape = ks[0].shape
        if any(k.shape != shape for k in ks):
            raise ValueError("all Kraus operators must share one shape")
        object.__setattr__(self, "kraus", ks)
        s = sum(k.conj().T @ k for k in ks)
        eye = np.eye(shape[1])
        if self.sub_normalized:
            w = np.linalg.eigvalsh(s - eye)
            if w[-1] > PSD_TOL:
                raise ValueError("sub-normalized channel has sum K^dag K > 1")
        elif np.abs(s - eye).max() > 1e-9:
            raise ValueError("channel is not trace preserving within 1e-9")

    @property
    def dim_in(self):
        return self.kraus[0].shape[1]

    @property
    def dim_out(self):
        return self.kraus[0].shape[0]


def apply_channel(ch: KrausChannel, rho):
    """sum_i K_i rho K_i^dag, validated as a state for trace-preserving channels."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != ch.dim_in:
        raise ValueError(f"state dimension {rho.shape[0]} != channel input {ch.dim_in}")
    out = sum(k @ rho @ k.conj().T for k in ch.kraus)
    if not ch.sub_normalized:
        return as_density(out)
    return out


def choi_state(ch: KrausChannel):
    """Unit-trace Choi state Phi = (id (x) E)(|omega><omega|) of a square channel."""
    if ch.dim_in != ch.dim_out:
        raise ValueError("Choi state requires a square channel")
    k, d = np.array(ch.kraus), ch.dim_in
    # block (i, j) is E(|i><j|) / d = sum_k K[:, i] K[:, j]^dag / d
    return (np.einsum("kai,kbj->iajb", k, k.conj()) / d).reshape(d * d, d * d)


def is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def choi_matrix_of_map(apply_fn, d):
    """Choi matrix (id (x) F)(|omega><omega|) of an arbitrary linear map F.

    Not necessarily PSD; useful for probing non-CP maps such as transpose.
    With |omega> = sum_i |ii> / sqrt(d), block (i, j) is F(|i><j|) / d.
    """
    phi = np.zeros((d, d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            phi[i, :, j, :] = apply_fn(e) / d
    return phi.reshape(d * d, d * d)


def as_half_integer(x):
    """Validate a half-integer quantum number of either sign, returned as a Fraction."""
    f = x if isinstance(x, Fraction) else Fraction(x).limit_denominator(2)
    if abs(float(f) - float(x)) > 1e-12 or f.denominator not in (1, 2):
        raise ValueError(f"{x} is not a half-integer")
    return f


def spin_operators(j):
    """Spin matrices (J_X, J_Y, J_Z) of size 2j+1 in the descending-m J_Z eigenbasis."""
    jf = as_half_integer(j)
    if jf < 0:
        raise ValueError(f"invalid spin quantum number {j}")
    jj = float(jf)
    ms = jj - np.arange(int(2 * jf) + 1)
    # <m + 1| J_+ |m> / 2 on the superdiagonal: J_X = (J_+ + J_-) / 2, J_Y = (J_+ - J_-) / 2i
    c = np.diag(0.5 * np.sqrt(jj * (jj + 1) - ms[:-1] * ms[1:]), 1)
    return (c + c.T).astype(complex), -1j * c + 1j * c.T, np.diag(ms.astype(complex))


# ---------------------------------------------------------------------------
# random instances (seeded) used across modules and tests


def random_hermitian(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_pure(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim, rng, rank=None):
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# JSON exchange format: {"dim": n, "re": [[...]], "im": [[...]]}


def operator_to_json(op):
    a = np.asarray(op, dtype=complex)
    return {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}


def operator_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError(f"operator payload must be a JSON object, got {type(doc).__name__}")
    missing = [key for key in ("dim", "re") if key not in doc]
    if missing:
        raise ValueError(f"operator payload lacks {', '.join(map(repr, missing))}")
    dim = int(doc["dim"])
    re = np.array(doc["re"], dtype=float)
    im = np.array(doc.get("im", np.zeros_like(re)), dtype=float)
    if im.shape != re.shape:
        raise ValueError(f"operator payload 'im' has shape {im.shape}, 're' has {re.shape}")
    a = re + 1j * im
    if a.shape != (dim, dim):
        raise ValueError(f"operator payload shape {a.shape} != declared dim {dim}")
    return a
