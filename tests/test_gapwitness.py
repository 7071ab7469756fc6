import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgeom import core
from qgeom.core import PAULI_X, PAULI_Z
from qgeom.gapwitness import (
    ChainTooLargeError,
    PlateauError,
    SpinChainSpec,
    _lowest_pair,
    build_chain,
    cusp_decomposition_check,
    gap_upper_bound,
    gap_witness_v,
    ground_curve,
    true_gap,
    xy_hamiltonian,
)


def test_build_chain_two_site_xy():
    h = xy_hamiltonian(3, 0.0)
    # restrict to the first bond by building N=2 manually
    spec = SpinChainSpec(2, ((((0, 1)), ("x", "x"), 0.5), ((0, 1), ("y", "y"), 0.5)))
    h2 = build_chain(spec).toarray()
    assert np.allclose(np.linalg.eigvalsh(h2), [-1, 0, 0, 1])


def test_build_chain_ising_bond():
    spec = SpinChainSpec(2, (((0, 1), ("x", "x"), 1.0),))
    w = np.linalg.eigvalsh(build_chain(spec).toarray())
    assert np.allclose(w, [-1, -1, 1, 1])


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_build_chain_hermitian(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    terms = []
    for _ in range(4):
        k = int(rng.integers(1, 3))
        sites = tuple(rng.choice(n, size=k, replace=False).tolist())
        labels = tuple(rng.choice(["x", "y", "z"], size=k).tolist())
        terms.append((sites, labels, float(rng.normal())))
    h = build_chain(SpinChainSpec(n, tuple(terms))).toarray()
    assert np.abs(h - h.conj().T).max() < 1e-12


_PAULI_REF = {
    "i": np.eye(2),
    "x": np.array([[0, 1], [1, 0]]),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.array([[1, 0], [0, -1]]),
}


def _kron_reference(spec):
    dim = 2**spec.sites
    h = np.zeros((dim, dim), dtype=complex)
    for sites, labels, coeff in spec.terms:
        placed = dict(zip(sites, labels))
        op = np.ones((1, 1))
        for s in range(spec.sites):
            op = np.kron(op, _PAULI_REF[placed.get(s, "i")])
        h += coeff * op
    return h


# quarter-integer parts keep every sum exact, so cancellations are exact zeros
_quarters = st.integers(-8, 8).map(lambda a: a / 4)


@st.composite
def _chain_specs(draw):
    n = draw(st.integers(1, 6))
    hermitian = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        sites = tuple(draw(st.permutations(range(n)))[: draw(st.integers(1, n))])
        k = len(sites)
        labels = draw(
            st.one_of(
                st.lists(st.sampled_from("ixyz"), min_size=k, max_size=k),
                st.just(["y"] * k),
            )
        )
        coeff = complex(draw(_quarters), draw(_quarters))
        terms.append((sites, tuple(labels), coeff))
        if hermitian:  # a partner cancelling the imaginary part of the coefficient
            terms.append((sites, tuple(labels), complex(draw(_quarters), -coeff.imag)))
    return SpinChainSpec(n, tuple(terms))


_XX_YY_CANCEL = SpinChainSpec(
    3, tuple(t for b in (0, 1) for t in (((b, b + 1), ("x", "x"), 0.5), ((b, b + 1), ("y", "y"), 0.5)))
)


@settings(max_examples=150, deadline=None)
@given(_chain_specs())
@example(_XX_YY_CANCEL)
@example(SpinChainSpec(6, ((tuple(range(6)), ("y",) * 6, 1.0),)))
def test_build_chain_matches_kron_reference(spec):
    ref = _kron_reference(spec)
    if np.abs(ref - ref.conj().T).max() > 0:
        with pytest.raises(ValueError, match="not Hermitian"):
            build_chain(spec)
        return
    h = build_chain(spec)
    assert np.array_equal(h.toarray(), ref)
    assert h.nnz == np.count_nonzero(ref)


def test_chain_validation():
    with pytest.raises(ChainTooLargeError):
        SpinChainSpec(15, ())
    with pytest.raises(ValueError):
        SpinChainSpec(3, (((0, 0), ("x", "x"), 1.0),))
    with pytest.raises(ValueError):
        SpinChainSpec(3, (((0, 5), ("x", "x"), 1.0),))
    with pytest.raises(ValueError):
        SpinChainSpec(3, (((0,), ("w",), 1.0),))


def test_gap_witness_term_count_and_tracelessness():
    v3 = gap_witness_v(3).toarray()
    # one site triple, two Pauli strings
    manual = core.tensor(PAULI_X, PAULI_Z, np.array([[0, -1j], [1j, 0]])) - core.tensor(
        np.array([[0, -1j], [1j, 0]]), PAULI_Z, PAULI_X
    )
    assert np.abs(v3 - manual).max() < 1e-12
    assert abs(np.trace(v3)) < 1e-12
    v5 = gap_witness_v(5)
    assert abs(v5.diagonal().sum()) < 1e-12


def test_witness_does_not_commute_with_xx_chain():
    h = xy_hamiltonian(4, 0.0)
    v = gap_witness_v(4)
    comm = (h @ v - v @ h)
    assert sp.linalg.norm(comm) > 0.1


def test_ground_curve_constant_for_zero_witness():
    h = sp.csr_matrix(np.diag([0.0, 1.0, 2.0]).astype(complex))
    v = sp.csr_matrix((3, 3), dtype=complex)
    curve = ground_curve(h, v, np.linspace(0, 1, 5))
    assert np.abs(curve.energies - curve.energies[0]).max() < 1e-12
    assert np.abs(curve.e_h - curve.e_h[0]).max() < 1e-12


def test_ground_curve_closed_form_qubit():
    h = sp.csr_matrix(PAULI_Z)
    v = sp.csr_matrix(PAULI_X)
    lams = np.linspace(0, 2, 21)
    curve = ground_curve(h, v, lams)
    assert np.abs(curve.e_h - (-1 / np.sqrt(1 + lams**2))).max() < 1e-9
    # concavity of the ground energy
    second = np.diff(curve.energies, 2)
    assert second.max() < 1e-10


def test_ground_curve_envelope_identity():
    # dE0/dlam = <V>_lam by central differences on a fine local grid
    h = sp.csr_matrix(PAULI_Z)
    v = sp.csr_matrix(PAULI_X)
    eps = 5e-3
    for lam in (0.3, 0.9, 1.6):
        curve = ground_curve(h, v, np.array([lam - eps, lam, lam + eps]))
        assert not curve.degenerate[1]
        de = (curve.energies[2] - curve.energies[0]) / (2 * eps)
        assert abs(de - curve.e_v[1]) < 1e-4


def test_ground_curve_envelope_identity_chain():
    h = xy_hamiltonian(6, 0.5)
    v = gap_witness_v(6)
    eps = 5e-3
    for lam in (0.05, 0.4, 1.0):
        curve = ground_curve(h, v, np.array([lam - eps, lam, lam + eps]))
        if curve.degenerate.any():
            continue
        de = (curve.energies[2] - curve.energies[0]) / (2 * eps)
        assert abs(de - curve.e_v[1]) < 1e-4


def test_ground_curve_energy_identity():
    h = sp.csr_matrix(PAULI_Z)
    v = sp.csr_matrix(PAULI_X)
    lams = np.linspace(0, 2, 11)
    curve = ground_curve(h, v, lams)
    assert np.abs(curve.e_h + lams * curve.e_v - curve.energies).max() < 1e-8


def test_gap_bound_exact_commuting_plateau():
    # H and V commute; the ground state is exactly constant, then jumps
    h = sp.csr_matrix(np.diag([0.0, 1.0]).astype(complex))
    v = sp.csr_matrix(np.diag([1.0, -1.0]).astype(complex))
    curve = ground_curve(h, v, np.linspace(0, 2, 21))
    report = gap_upper_bound(curve, true_gap_value=true_gap(h))
    assert report.plateau_drift < 1e-9
    assert report.epsilon == pytest.approx(1.0, abs=1e-6)
    assert report.lambda_star == pytest.approx(0.5, abs=1e-3)
    assert report.consistent


def test_gap_bound_no_plateau():
    h = sp.csr_matrix(PAULI_Z)
    v = sp.csr_matrix(PAULI_X)
    curve = ground_curve(h, v, np.array([0.0, 3.0, 6.0]))
    with pytest.raises(PlateauError):
        gap_upper_bound(curve)


def test_gap_bound_xy_gamma_half():
    h = xy_hamiltonian(8, 0.5)
    v = gap_witness_v(8)
    curve = ground_curve(h, v, np.linspace(0, 3, 31))
    tg = true_gap(h)
    report = gap_upper_bound(curve, true_gap_value=tg)
    assert report.epsilon > 0
    assert tg <= report.epsilon + 1e-6
    assert report.consistent


def test_gap_bound_degenerate_ground_energy():
    # doubly degenerate ground energy: the witness jump still bounds the
    # distinct-level gap when the plateau survives the degeneracy
    h = sp.csr_matrix(np.diag([0.0, 0.0, 1.0]).astype(complex))
    v = sp.csr_matrix(np.diag([0.0, 1.0, -1.0]).astype(complex))
    curve = ground_curve(h, v, np.linspace(0, 3, 31))
    assert curve.degenerate[0]  # flagged at lambda = 0
    tg = true_gap(h)
    report = gap_upper_bound(curve, true_gap_value=tg)
    assert tg == pytest.approx(1.0)
    assert report.consistent
    # a witness that splits the degeneracy immediately has no plateau
    v2 = sp.csr_matrix(np.diag([0.0, -1.0, 5.0]).astype(complex))
    curve2 = ground_curve(h, v2, np.linspace(0, 3, 31))
    with pytest.raises(PlateauError):
        gap_upper_bound(curve2)


def test_true_gap_examples():
    assert true_gap(np.diag([-1.0, 1.0])) == pytest.approx(2.0)
    assert true_gap(np.diag([0.0, 0.0, 1.0])) == pytest.approx(1.0)
    assert true_gap(np.eye(4)) == 0.0


def test_true_gap_xy_ordering():
    h = xy_hamiltonian(8, 1.0)
    v = gap_witness_v(8)
    tg = true_gap(h)
    curve = ground_curve(h, v, np.linspace(0, 3, 31))
    report = gap_upper_bound(curve, true_gap_value=tg)
    assert tg <= report.epsilon + 1e-6


def _dense_gap(hd):
    # true_gap's degeneracy rule on the full dense spectrum; returns (gap, max(1, ||H||))
    w = np.linalg.eigvalsh(hd)
    scale = max(abs(w[0]), abs(w[-1]), 1.0)
    above = w[w > w[0] + 1e-9 * scale]
    return (float(above[0] - w[0]) if len(above) else 0.0), scale


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n", [5, 6, 8])
def test_true_gap_blocks_match_dense(n, gamma):
    h = xy_hamiltonian(n, gamma)
    ref, scale = _dense_gap(h.toarray())
    assert abs(true_gap(h) - ref) <= 1e-10 * scale


@pytest.mark.filterwarnings("error")  # a complex -> real cast of H would warn
def test_true_gap_keeps_imaginary_couplings():
    n = 6
    field = build_chain(SpinChainSpec(n, tuple(((s,), ("z",), 0.1 * (s + 1)) for s in range(n))))
    h = gap_witness_v(n) + field
    off_diagonal = h - sp.diags(h.diagonal())
    assert off_diagonal.nnz > 0 and np.all(off_diagonal.data.real == 0)
    ref, scale = _dense_gap(h.toarray())
    assert abs(true_gap(h) - ref) <= 1e-10 * scale


def test_lowest_pair_lanczos_never_densifies():
    m = xy_hamiltonian(13, 0.5) + 0.3 * gap_witness_v(13)
    dim = m.shape[0]
    tracemalloc.start()
    try:
        w2, g = _lowest_pair(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # a dense copy alone would be 1 GiB
    w, v = spla.eigsh(m, k=4, which="SA", v0=np.full(dim, 1.0 / np.sqrt(dim)), maxiter=5000)
    order = np.argsort(w)
    assert np.array_equal(w2, w[order[:2]])
    assert np.array_equal(g, v[:, order[0]])


def test_cusp_check_shared_eigenbasis():
    x = np.diag([0.0, 1.0, 3.0]).astype(complex)
    y = np.diag([2.0, -1.0, 0.5]).astype(complex)
    psi = np.array([1.0, 0, 0], dtype=complex)
    assert cusp_decomposition_check(x, y, psi)


def test_cusp_check_generic_negative(rng):
    x = core.random_hermitian(4, rng)
    y = core.random_hermitian(4, rng)
    psi = core.random_pure(4, rng)
    assert not cusp_decomposition_check(x, y, psi)


def test_cusp_check_block_construction(rng):
    # common eigenvector by construction: 1 (+) random blocks
    xb = core.random_hermitian(3, rng)
    yb = core.random_hermitian(3, rng)
    x = np.zeros((4, 4), dtype=complex)
    y = np.zeros((4, 4), dtype=complex)
    x[0, 0] = -3.0
    y[0, 0] = 0.5
    x[1:, 1:] = xb
    y[1:, 1:] = yb
    psi = np.array([1.0, 0, 0, 0], dtype=complex)
    assert cusp_decomposition_check(x, y, psi)
