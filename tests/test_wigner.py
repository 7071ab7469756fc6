import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeom import core
from qgeom.core import KrausChannel, apply_channel, tensor
from qgeom.wigner import (
    WignerTable,
    apply_transition,
    channel_transition,
    check_wh_dims,
    state_of,
    wh_convertible,
    wh_displacement,
    wigner_of,
    _as_tuple,
    _phase_points,
)


def test_displacement_identity():
    assert np.allclose(wh_displacement(0, 0, (3,)), np.eye(3))


def test_displacement_cyclic_shift():
    d = wh_displacement(1, 0, (3,))
    expect = np.zeros((3, 3))
    for n in range(3):
        expect[(n + 1) % 3, n] = 1.0
    assert np.allclose(d, expect)


def test_displacement_unitary_and_orders():
    p = 5
    x = wh_displacement(1, 0, (p,))
    z = wh_displacement(0, 1, (p,))
    omega = np.exp(2j * np.pi / p)
    assert np.abs(z @ x - omega * x @ z).max() < 1e-12
    assert np.allclose(np.linalg.matrix_power(x, p), np.eye(p))
    assert np.allclose(np.linalg.matrix_power(z, p), np.eye(p))


def test_displacement_group_law(rng):
    p = 5
    for _ in range(10):
        a = tuple(rng.integers(0, p, size=2))
        b = tuple(rng.integers(0, p, size=2))
        da = wh_displacement(a[0], a[1], (p,))
        db = wh_displacement(b[0], b[1], (p,))
        dc = wh_displacement((a[0] + b[0]) % p, (a[1] + b[1]) % p, (p,))
        prod = da @ db
        phase = np.trace(prod @ dc.conj().T) / p
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.abs(prod - phase * dc).max() < 1e-12


def test_dims_validation():
    with pytest.raises(ValueError):
        wh_displacement(0, 0, (2,))
    with pytest.raises(ValueError):
        wh_displacement(0, 0, (9,))
    with pytest.raises(ValueError):
        wh_displacement((0, 0), (0, 0), (3, 3))
    with pytest.raises(ValueError):
        wigner_of(np.eye(4) / 4, (2, 2))


def phase_point(x, q, dims):
    """Phase-point operator A_{x,q} = D A_{0,0} D^dag (Hermitian, trace 1)."""
    dims = check_wh_dims(dims)
    xs, qs = _as_tuple(x, dims), _as_tuple(q, dims)
    return tensor(*[_phase_points(p)[xi, qi] for xi, qi, p in zip(xs, qs, dims)])


def test_phase_point_properties():
    p = 3
    pts = [phase_point(x, q, (p,)) for x in range(p) for q in range(p)]
    total = sum(pts)
    assert np.abs(total - p * np.eye(p)).max() < 1e-10
    for i, a in enumerate(pts):
        assert np.abs(a - a.conj().T).max() < 1e-12
        assert abs(np.trace(a).real - 1.0) < 1e-10
        for j, b in enumerate(pts):
            ip = np.trace(a @ b).real
            assert abs(ip - (p if i == j else 0.0)) < 1e-10


def test_phase_point_covariance_construction():
    p = 5
    d = wh_displacement(2, 3, (p,))
    a00 = phase_point(0, 0, (p,))
    assert np.abs(phase_point(2, 3, (p,)) - d @ a00 @ d.conj().T).max() < 1e-12


def test_wigner_maximally_mixed():
    t = wigner_of(np.eye(3) / 3, (3,))
    assert np.abs(t.values - 1 / 9).max() < 1e-12


def test_wigner_basis_state_marginals():
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    t = wigner_of(rho, (3,))
    assert np.abs(t.marginal_x() - [1, 0, 0]).max() < 1e-10
    assert np.abs(t.marginal_q() - 1 / 3).max() < 1e-10
    # supported on the x = 0 column
    assert np.abs(t.values[1:, :]).max() < 1e-12


def test_wigner_plus_state_negativity_d5():
    v = np.zeros(5, dtype=complex)
    v[0] = v[1] = 1 / np.sqrt(2)
    t = wigner_of(np.outer(v, v.conj()), (5,))
    golden = (1 + np.sqrt(5)) / 2
    assert t.values.min() == pytest.approx(-golden / 10, abs=1e-10)
    assert t.values.sum() == pytest.approx(1.0, abs=1e-10)


def test_round_trip_composite(rng):
    for dims in ((3,), (5,), (3, 5)):
        d = int(np.prod(dims))
        rho = core.random_density(d, rng)
        t = wigner_of(rho, dims)
        assert np.abs(state_of(t) - rho).max() < 1e-10


def test_marginals_match_eigenbasis_probs(rng):
    dims = (3, 5)
    d = 15
    rho = core.random_density(d, rng)
    t = wigner_of(rho, dims)
    z_probs = np.diag(rho).real
    assert np.abs(t.marginal_x() - z_probs).max() < 1e-10
    # X-basis probabilities: Fourier basis per factor
    f3 = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / np.sqrt(3)
    f5 = np.exp(2j * np.pi * np.outer(np.arange(5), np.arange(5)) / 5) / np.sqrt(5)
    f = np.kron(f3, f5)
    x_probs = np.diag(f.conj().T @ rho @ f).real
    assert np.abs(t.marginal_q() - x_probs).max() < 1e-9


def test_covariance_translation(rng):
    dims = (3, 5)
    d = 15
    rho = core.random_density(d, rng)
    t0 = wigner_of(rho, dims)
    x, q = (1, 2), (2, 4)
    dd = wh_displacement(x, q, dims)
    t1 = wigner_of(dd @ rho @ dd.conj().T, dims)
    assert np.abs(t1.values - t0.translated(x, q).values).max() < 1e-10


def test_transition_identity_channel():
    d = 3
    trans = channel_transition(KrausChannel((np.eye(d),)), (d,))
    assert np.abs(trans - np.eye(d * d)).max() < 1e-10


def test_transition_displacement_channel():
    d = 3
    u = wh_displacement(1, 2, (d,))
    trans = channel_transition(KrausChannel((u,)), (d,))
    # permutation matrix: pure phase-space shift
    assert np.abs(trans @ trans.T - np.eye(d * d)).max() < 1e-9
    assert np.abs(np.abs(trans).sum(axis=0) - 1).max() < 1e-9
    rho = core.random_density(d, np.random.default_rng(0))
    lhs = wigner_of(u @ rho @ u.conj().T, (d,)).values
    rhs = apply_transition(trans, wigner_of(rho, (d,))).values
    assert np.abs(lhs - rhs).max() < 1e-10


def test_transition_depolarizing_uniform():
    d = 3
    kraus = tuple(wh_displacement(x, q, (d,)) / d for x in range(d) for q in range(d))
    trans = channel_transition(KrausChannel(kraus), (d,))
    assert np.abs(trans - 1 / (d * d)).max() < 1e-10


def test_transition_lemma_composite_dims(rng):
    dims = (3, 5)
    d = 15
    u1 = core.random_unitary(d, rng)
    u2 = core.random_unitary(d, rng)
    ch = KrausChannel((u1 * np.sqrt(0.7), u2 * np.sqrt(0.3)))
    trans = channel_transition(ch, dims)
    assert np.abs(trans.sum(axis=0) - 1.0).max() < 1e-9
    for _ in range(3):
        rho = core.random_density(d, rng)
        lhs = wigner_of(apply_channel(ch, rho), dims).values
        rhs = apply_transition(trans, wigner_of(rho, dims)).values
        assert np.abs(lhs - rhs).max() < 1e-9


def test_transition_lemma_random_channels(rng):
    for d in (3, 5):
        u1 = core.random_unitary(d, rng)
        u2 = core.random_unitary(d, rng)
        ch = KrausChannel((u1 * np.sqrt(0.4), u2 * np.sqrt(0.6)))
        trans = channel_transition(ch, (d,))
        assert np.abs(trans.sum(axis=0) - 1.0).max() < 1e-9
        for _ in range(10):
            rho = core.random_density(d, rng)
            lhs = wigner_of(apply_channel(ch, rho), (d,)).values
            rhs = apply_transition(trans, wigner_of(rho, (d,))).values
            assert np.abs(lhs - rhs).max() < 1e-9


def test_wh_convertible_identity(rng):
    rho = core.random_density(3, rng)
    k = wh_convertible(rho, rho, (3,))
    assert k is not None
    expect = np.zeros((3, 3))
    expect[0, 0] = 1.0
    assert np.abs(k - expect).max() < 1e-8


def test_wh_convertible_shifted_delta(rng):
    rho = core.random_density(3, rng)
    d = wh_displacement(1, 2, (3,))
    k = wh_convertible(d @ rho @ d.conj().T, rho, (3,))
    assert k is not None
    assert k[1, 2] == pytest.approx(1.0, abs=1e-8)


def test_wh_convertible_nnls_fallback_feasible():
    # maximally mixed sigma has a vanishing Wigner spectrum outside DC:
    # rho = sigma = 1/d must still be certified
    rho = np.eye(3) / 3
    k = wh_convertible(rho, rho, (3,))
    assert k is not None
    assert abs(k.sum() - 1.0) < 1e-9


def test_wh_convertible_nnls_fallback_infeasible(rng):
    # nothing nonuniform is reachable from the maximally mixed state
    v = core.random_pure(3, rng)
    rho = np.outer(v, v.conj())
    assert wh_convertible(rho, np.eye(3) / 3, (3,)) is None


def test_wh_convertible_decides_zero_spectra_without_nnls(monkeypatch):
    # every frequency but DC vanishes for 1/d; the Fourier candidate is the uniform kernel
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "nnls", lambda *a: pytest.fail("nnls called"))
    d = 35
    k = wh_convertible(np.eye(d) / d, np.eye(d) / d, (5, 7))
    assert k is not None and np.abs(k - 1 / d**2).max() < 1e-12


def test_wh_convertible_nnls_completes_a_negative_fourier_candidate(monkeypatch):
    # W_sigma has only the frequencies 0 and +-b, and rho is sigma displaced by Z: the
    # candidate 1 + 2 cos(.) dips below zero at p = 5, and NNLS finds the shift itself
    import scipy.optimize

    calls = []
    nnls = scipy.optimize.nnls
    monkeypatch.setattr(scipy.optimize, "nnls", lambda *a: calls.append(1) or nnls(*a))
    x, z = wh_displacement(1, 0, (5,)), wh_displacement(0, 1, (5,))
    sigma = (np.eye(5) + 0.5 * (x + x.conj().T)) / 5
    k = wh_convertible(z @ sigma @ z.conj().T, sigma, (5,))
    assert calls == [1]
    expect = np.zeros((5, 5))
    expect[0, 1] = 1.0
    assert np.abs(k - expect).max() < 1e-8


def test_wh_convertible_twirl_uniform(rng):
    d = 3
    v = core.random_pure(d, rng)
    sigma = np.outer(v, v.conj())
    rho = np.zeros((d, d), dtype=complex)
    for x in range(d):
        for q in range(d):
            dd = wh_displacement(x, q, (d,))
            rho += dd @ sigma @ dd.conj().T / (d * d)
    k = wh_convertible(rho, sigma, (d,))
    assert k is not None
    assert np.abs(k - 1 / (d * d)).max() < 1e-8


def _oracle(dims):
    """Phase points, Wigner, reconstruction and transition kernel rebuilt from A = D A00 D^dag."""
    d = int(np.prod(dims))
    labels = list(itertools.product(*[range(p) for p in dims]))
    disp = {(x, q): wh_displacement(x, q, dims) for x in labels for q in labels}
    a00 = sum(disp.values()) / d
    stack = np.array([[disp[x, q] @ a00 @ disp[x, q].conj().T for q in labels] for x in labels])
    neg = [labels.index(tuple(-v % p for v, p in zip(q, dims))) for q in labels]

    def transition(ch):
        phi = core.choi_state(ch).reshape(d, d, d, d)
        half = np.einsum("abce,xqca->bexq", phi, stack[:, neg], optimize=True)
        return np.einsum("bexq,yreb->yrxq", half, stack, optimize=True).real.reshape(d * d, d * d)

    return labels, disp, stack, transition


def _displacement_by_definition(xs, qs, dims):
    # (-kappa)^{xq} X^x Z^q per factor, kappa = e^{i pi / p}
    out = np.eye(1)
    for x, q, p in zip(xs, qs, dims):
        shift = np.roll(np.eye(p), 1, axis=0)
        clock = np.diag(np.exp(2j * np.pi * np.arange(p) / p))
        phase = (-np.exp(1j * np.pi / p)) ** (x * q)
        out = np.kron(out, phase * np.linalg.matrix_power(shift, x) @ np.linalg.matrix_power(clock, q))
    return out


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([(3,), (5,), (7,), (3, 5), (3, 7)]), st.integers(0, 2**32 - 1))
def test_closed_form_matches_displaced_parity_oracle(dims, seed):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    labels, disp, stack, transition = _oracle(dims)
    for _ in range(4):
        x, q = labels[rng.integers(d)], labels[rng.integers(d)]
        assert np.abs(disp[x, q] - _displacement_by_definition(x, q, dims)).max() <= 1e-13
        assert np.abs(phase_point(x, q, dims) - stack[labels.index(x), labels.index(q)]).max() <= 1e-13
    rho = core.random_density(d, rng)
    table = wigner_of(rho, dims)
    expect = np.einsum("xqij,ji->xq", stack, rho).real / d
    assert np.abs(table.values - expect).max() <= 1e-13
    assert np.abs(state_of(table) - np.einsum("xq,xqij->ij", expect, stack)).max() <= 1e-13
    ch = KrausChannel((core.random_unitary(d, rng) * np.sqrt(0.3), core.random_unitary(d, rng) * np.sqrt(0.7)))
    assert np.abs(channel_transition(ch, dims) - transition(ch)).max() <= 1e-13


def test_round_trip_d105_stays_small():
    # the d^4 phase-point stack alone would take 1.9 GB at d = 105
    dims = (3, 5, 7)
    rho = core.random_density(105, np.random.default_rng(5))
    tracemalloc.start()
    try:
        back = state_of(wigner_of(rho, dims))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(back - rho).max() <= 1e-12
    assert peak < 64 * 2**20
