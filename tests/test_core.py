import os
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeom import core, wigner
from qgeom.core import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    KrausChannel,
    apply_channel,
    as_density,
    as_hermitian,
    choi_matrix_of_map,
    choi_state,
    hs_distance,
    max_entangled,
    partial_trace,
    partial_transpose,
    spin_operators,
    tensor,
)


def test_as_hermitian_rejects_bad_input():
    with pytest.raises(ValueError):
        as_hermitian(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_tensor_identity():
    assert np.allclose(tensor(np.eye(2), np.eye(3)), np.eye(6))


def test_tensor_zz_spectrum():
    w = np.linalg.eigvalsh(tensor(PAULI_Z, PAULI_Z))
    assert np.allclose(w, [-1, -1, 1, 1])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_tensor_trace_multiplicative(seed):
    rng = np.random.default_rng(seed)
    a = core.random_hermitian(3, rng)
    b = core.random_hermitian(2, rng)
    assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) < 1e-10


def test_partial_trace_product(rng):
    rho = core.random_density(2, rng)
    sig = core.random_hermitian(3, rng)
    out = partial_trace(tensor(rho, sig), (2, 3), 1)
    assert np.allclose(out, rho * np.trace(sig))


def test_partial_trace_max_entangled():
    for d in (2, 3, 5):
        omega = max_entangled(d)
        rho = np.outer(omega, omega.conj())
        out = partial_trace(rho, (d, d), 1)
        assert np.abs(out - np.eye(d) / d).max() < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    m = core.random_hermitian(6, rng)
    for which in (0, 1):
        assert abs(np.trace(partial_trace(m, (2, 3), which)) - np.trace(m)) < 1e-10


@pytest.mark.parametrize("dims", [[2.5, 2], "22", (2.0, 2), (True, 4), [np.float64(2), 2]])
def test_check_dims_rejects_non_integer_entries(dims):
    # int() would read each of these as a valid split of 4
    with pytest.raises(ValueError, match="must be integers"):
        core.check_dims(dims, 4)


def test_check_dims_accepts_numpy_integers():
    assert core.check_dims((np.int64(2), 2), 4) == (2, 2)


def test_partial_trace_index_error():
    with pytest.raises(IndexError):
        partial_trace(np.eye(6), (2, 3), 2)


def test_partial_operations_three_factors(rng):
    parts = [core.random_hermitian(d, rng) for d in (2, 3, 2)]
    m = tensor(*parts)
    mid = partial_trace(partial_trace(m, (2, 3, 2), 2), (2, 3), 0)
    assert np.allclose(mid, parts[1] * np.trace(parts[0]) * np.trace(parts[2]))
    pt = partial_transpose(m, (2, 3, 2), 1)
    assert np.allclose(pt, tensor(parts[0], parts[1].T, parts[2]))


def test_partial_transpose_product_state(rng):
    ra = core.random_density(2, rng)
    rb = core.random_density(2, rng)
    out = partial_transpose(tensor(ra, rb), (2, 2), 0)
    assert np.allclose(out, tensor(ra.T, rb))
    as_density(out)  # still a valid state


def test_partial_transpose_bell():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    w = np.linalg.eigvalsh(partial_transpose(rho, (2, 2), 0))
    assert abs(w[0] - (-0.5)) < 1e-12


def test_partial_transpose_involution(rng):
    m = core.random_hermitian(6, rng)
    assert np.allclose(partial_transpose(partial_transpose(m, (2, 3), 0), (2, 3), 0), m)


def test_state_set_in_out_radii():
    # outradius R = sqrt((d-1)/d); inradius r = sqrt(1/(d(d-1)))
    for d in range(2, 7):
        psi = np.zeros(d, dtype=complex)
        psi[0] = 1.0
        proj = np.outer(psi, psi.conj())
        eye = np.eye(d) / d
        assert abs(hs_distance(eye, proj) - np.sqrt((d - 1) / d)) < 1e-12
        inner = (np.eye(d) - proj) / (d - 1)
        assert abs(hs_distance(eye, inner) - np.sqrt(1 / (d * (d - 1)))) < 1e-12


def test_identity_channel(rng):
    rho = core.random_density(3, rng)
    ch = KrausChannel((np.eye(3),))
    assert np.allclose(apply_channel(ch, rho), rho)


def test_depolarizing_twirl_channel(rng):
    # scaled WH displacements implement the completely depolarizing channel
    d = 3
    kraus = tuple(
        wigner.wh_displacement(x, q, (d,)) / d for x in range(d) for q in range(d)
    )
    ch = KrausChannel(kraus)
    rho = core.random_density(d, rng)
    assert np.abs(apply_channel(ch, rho) - np.eye(d) / d).max() < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_channel_output_psd(seed):
    rng = np.random.default_rng(seed)
    k1 = core.random_unitary(3, rng) * 0.6
    k2 = core.random_unitary(3, rng)
    # complete k2 so the pair is trace preserving
    s = k1.conj().T @ k1
    w, v = np.linalg.eigh(np.eye(3) - s)
    k2 = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    ch = KrausChannel((k1, k2))
    out = apply_channel(ch, core.random_density(3, rng))
    assert np.linalg.eigvalsh(out)[0] > -1e-10


def test_kraus_channel_validation():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 0.5,))
    KrausChannel((np.eye(2) * 0.5,), sub_normalized=True)
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 1.5,), sub_normalized=True)


def test_choi_identity_channel():
    d = 3
    ch = KrausChannel((np.eye(d),))
    omega = max_entangled(d)
    assert np.abs(choi_state(ch) - np.outer(omega, omega.conj())).max() < 1e-12


def test_choi_of_transpose_map_not_cp():
    # Choi of transpose is SWAP/d: min eigenvalue -1/d
    d = 3
    phi = choi_matrix_of_map(lambda e: e.T, d)
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    assert np.abs(phi - swap / d).max() < 1e-12
    assert np.linalg.eigvalsh(phi)[0] == pytest.approx(-1 / d, abs=1e-12)


def _choi_apply(choi, rho):
    """E(rho) = d * Tr_A[(rho^T (x) 1) Phi] from a unit-trace Choi state."""
    d = rho.shape[0]
    return d * partial_trace(tensor(rho.T, np.eye(d)) @ choi, (d, d), 0)


def test_choi_round_trip(rng):
    d = 3
    u1 = core.random_unitary(d, rng)
    u2 = core.random_unitary(d, rng)
    ch = KrausChannel((u1 * np.sqrt(0.3), u2 * np.sqrt(0.7)))
    phi = choi_state(ch)
    for _ in range(20):
        rho = core.random_density(d, rng)
        assert np.abs(_choi_apply(phi, rho) - apply_channel(ch, rho)).max() < 1e-9


def test_spin_half_is_half_pauli():
    jx, jy, jz = spin_operators(0.5)
    assert np.allclose(jx, PAULI_X / 2)
    assert np.allclose(jy, PAULI_Y / 2)
    assert np.allclose(jz, PAULI_Z / 2)


def test_spin_one_jz():
    _, _, jz = spin_operators(1)
    assert np.allclose(np.diag(jz), [1, 0, -1])


def test_spin_casimir_and_commutator():
    j = 0.5
    while j <= 6:
        jx, jy, jz = spin_operators(j)
        dim = jx.shape[0]
        casimir = jx @ jx + jy @ jy + jz @ jz
        assert np.abs(casimir - j * (j + 1) * np.eye(dim)).max() < 1e-10
        assert np.abs(jx @ jy - jy @ jx - 1j * jz).max() < 1e-12
        j += 0.5


def _spin_operators_loop(j):
    # the former O(d^2) construction: each entry from a float comparison of m values
    jj = float(j)
    ms = [jj - k for k in range(int(round(2 * jj)) + 1)]
    jx = np.zeros((len(ms), len(ms)), dtype=complex)
    jy = np.zeros((len(ms), len(ms)), dtype=complex)
    for a, n in enumerate(ms):
        for b, m in enumerate(ms):
            if abs(n - m - 1) < 1e-9:
                c = 0.5 * np.sqrt(jj * (jj + 1) - n * m)
                jx[a, b] += c
                jy[a, b] += -1j * c
            if abs(n - m + 1) < 1e-9:
                c = 0.5 * np.sqrt(jj * (jj + 1) - n * m)
                jx[a, b] += c
                jy[a, b] += 1j * c
    return jx, jy, np.diag(np.array(ms, dtype=complex))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100))
def test_spin_operators_match_the_entrywise_loop(two_j):
    # bit for bit, signed zeros included
    for got, want in zip(spin_operators(Fraction(two_j, 2)), _spin_operators_loop(two_j / 2)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def test_spin_invalid_j():
    with pytest.raises(ValueError):
        spin_operators(0.3)
    with pytest.raises(ValueError):
        spin_operators(-1)


def test_density_validation():
    with pytest.raises(ValueError):
        as_density(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        as_density(np.eye(2))  # trace 2


def test_qubit_psd_criterion_grid():
    # rho = 1/2 + x sx + y sy + z sz is a state iff x^2+y^2+z^2 <= 1/4
    axis = np.linspace(-0.6, 0.6, 20)
    for x in axis:
        for y in axis:
            for z in axis:
                rho = 0.5 * np.eye(2) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z
                w = np.linalg.eigvalsh(rho)
                inside = x * x + y * y + z * z <= 0.25 + 1e-12
                assert (w[0] >= -1e-12) == inside


def test_operator_json_round_trip(rng):
    a = core.random_hermitian(4, rng)
    doc = core.operator_to_json(a)
    b = core.operator_from_json(doc)
    assert np.abs(a - b).max() < 1e-15


@pytest.mark.parametrize("drop", ["dim", "re"])
def test_operator_json_missing_key(drop):
    doc = core.operator_to_json(PAULI_X)
    del doc[drop]
    with pytest.raises(ValueError, match=repr(drop)):
        core.operator_from_json(doc)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("dim", [16, 32, 64])
def test_stack_map_threads_from_thread_min_dim_within_a_shared_budget(monkeypatch, workers, dim):
    monkeypatch.setattr(core, "cpu_workers", lambda: workers)
    count = 700
    seen = core.stack_map(lambda c: (c, threading.current_thread().name), count, dim)
    rows = [range(count)[c] for c, _ in seen]
    assert [i for r in rows for i in r] == list(range(count))
    threaded = workers > 1 and dim >= core.THREAD_MIN_DIM
    parts = workers if threaded else 1
    assert len(rows) >= parts
    assert all(len(r) * dim * dim <= core.STACK_ENTRIES // parts for r in rows)
    assert all(name.startswith("qgeom-stack") == threaded for _, name in seen)


@pytest.mark.parametrize(
    "env, pinned",
    [
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),  # OpenBLAS reads its own first
        ({}, False),  # the BLAS takes every CPU
    ],
)
def test_stacks_thread_only_on_a_single_threaded_blas(monkeypatch, env, pinned):
    for var in core.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert core.cpu_workers() == (len(os.sched_getaffinity(0)) if pinned else 1)
