import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qgeom import core, gapwitness
from qgeom.core import PAULI_X, PAULI_Z
from qgeom.gapwitness import (
    MAX_XY_SITES,
    ChainTooLargeError,
    PlateauError,
    SpinChainSpec,
    _ground_window,
    _SparseGround,
    build_chain,
    gap_upper_bound,
    gap_witness_majorana,
    gap_witness_v,
    ground_curve,
    majorana_form,
    true_gap,
    xy_hamiltonian,
    xy_majorana,
)
from qgeom.numrange import sphere_directions, support_batch


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
    m = xy_hamiltonian(14, 0.5) + 0.3 * gap_witness_v(14)
    dim = m.shape[0]
    tracemalloc.start()
    try:
        w, g = _ground_window(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20  # a dense copy alone would be 4 GiB
    # the ground level is simple, so the complement search adds nothing to the first Lanczos run
    ref_w, ref_g = spla.eigsh(m, k=1, which="SA", v0=np.full(dim, 1.0 / np.sqrt(dim)), maxiter=5000)
    assert np.array_equal(w, ref_w)
    assert np.array_equal(g, ref_g)


def _field(n, label, coeffs):
    return build_chain(SpinChainSpec(n, tuple(((s,), (label,), c) for s, c in enumerate(coeffs))))


@st.composite
def _real_chain_specs(draw, n):
    # Pauli strings are Hermitian, so real coefficients give a Hermitian chain
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        sites = tuple(draw(st.permutations(range(n)))[: draw(st.integers(1, min(n, 3)))])
        labels = tuple(draw(st.lists(st.sampled_from("xyz"), min_size=len(sites), max_size=len(sites))))
        terms.append((sites, labels, draw(_quarters)))
    return SpinChainSpec(n, tuple(terms))


_chain_pairs = st.integers(1, 7).flatmap(lambda n: st.tuples(_real_chain_specs(n), _real_chain_specs(n)))
_XY6 = (SpinChainSpec(6, gapwitness._xy_terms(6, 0.5, False)), SpinChainSpec(6, gapwitness._witness_terms(6, False)))
_XY8 = (SpinChainSpec(8, gapwitness._xy_terms(8, 0.5, False)), SpinChainSpec(8, gapwitness._witness_terms(8, False)))


@settings(max_examples=60, deadline=None)
@given(_chain_pairs, st.sampled_from([0.0, 0.5, -1.25, 2.0]))
@example((SpinChainSpec(1, (((0,), ("x",), 1.0),)), SpinChainSpec(1, ())), 0.5)  # one block
@example((SpinChainSpec(5, (((0,), ("z",), 1.0), ((1, 3), ("z", "z"), 0.5))), SpinChainSpec(5, (((4,), ("z",), 0.25),))), 1.0)
@example(_XY6, 0.3)  # two blocks: the parity sectors
def test_block_levels_match_dense_eigh(specs, lam):
    h, v = (build_chain(spec) for spec in specs)
    solver = _SparseGround(h, v)
    owner = np.full(h.shape[0], -1)
    for k, b in enumerate(solver.blocks):
        assert (owner[b] == -1).all()
        owner[b] = k
    assert (owner >= 0).all()
    # no coupling of H or V crosses two blocks
    coupling = np.abs(h.toarray()) + np.abs(v.toarray())
    assert (coupling[owner[:, None] != owner[None, :]] == 0).all()
    _assert_levels_match_dense(solver, h, v, lam)
    for g in solver._levels(lam)[1].T:
        assert len(set(owner[np.flatnonzero(g)])) == 1


def test_xy_chain_splits_into_parity_sectors():
    solver = _SparseGround(xy_hamiltonian(12, 0.5), gap_witness_v(12))
    assert [len(b) for b in solver.blocks] == [2048, 2048]
    assert solver.method == "lanczos" and not solver.dense
    for b in solver.blocks:  # each block is one eigenspace of prod Z
        assert len({bin(r).count("1") % 2 for r in b.tolist()}) == 1


def _block_dtypes(solver):
    """Block number -> dtypes of its stored H and V blocks, dense stacks and Lanczos blocks alike."""
    dtypes = {k: {hs.dtype, vs.dtype} for nums, _, hs, vs in solver.dense for k in nums.tolist()}
    dtypes.update({k: {hb.dtype, vb.dtype} for k, _, hb, vb in solver.sparse})
    assert sorted(dtypes) == list(range(len(solver.blocks)))
    return dtypes


def _mirrored(n, terms):
    """The terms and their site-reversed images times (-1)^#y: a sum that R K fixes."""
    mirror = [(tuple(n - 1 - s for s in sites), labels, (-1) ** labels.count("y") * c) for sites, labels, c in terms]
    return tuple(terms) + tuple(mirror)


@st.composite
def _rk_symmetric_pairs(draw):
    n = draw(st.integers(3, 7))
    # Hopping by odd multiples of 1/16 that no sum of quarters cancels keeps the magnetization
    # (xx = yy) or parity (xx != yy) sectors connected; R maps each onto itself, and every block
    # is a union of them, so each block is fixed by R K.  Dyadic entries make the sums exact.
    xx, yy = draw(st.sampled_from([(3 / 16, 3 / 16), (3 / 8, 1 / 16)]))
    hop = tuple(((s, s + 1), (l, l), c) for s in range(n - 1) for l, c in (("x", xx), ("y", yy)))
    even = draw(st.booleans())  # keep only strings that flip an even number of sites: several blocks

    def extra():
        terms = draw(_real_chain_specs(n)).terms
        return tuple(t for t in terms if not even or sum(l in "xy" for l in t[1]) % 2 == 0)

    h = _mirrored(n, hop + extra())
    witness = gapwitness._witness_terms(n, False) if draw(st.booleans()) else ()
    v = _mirrored(n, witness + extra())
    return SpinChainSpec(n, h), SpinChainSpec(n, v)


def _assert_levels_match_dense(solver, h, v, lam):
    """The solver's ground window holds dense eigvalsh's levels within the window tolerance, orthonormally."""
    m = (h + lam * v).toarray()
    ref = np.linalg.eigvalsh(m)
    scale = max(abs(ref[0]), abs(ref[-1]), 1.0)
    w, vecs = solver._levels(lam)
    assert len(w) == np.sum(ref < ref[0] + gapwitness.DEGENERACY_TOL * max(abs(ref[0]), 1.0))
    assert np.abs(np.sort(w) - ref[: len(w)]).max() <= 1e-10 * scale
    assert np.abs(vecs.conj().T @ vecs - np.eye(len(w))).max() <= 1e-9
    assert np.linalg.norm(m @ vecs - vecs * w, axis=0).max() <= 1e-9 * scale


_XX6 = (SpinChainSpec(6, gapwitness._xy_terms(6, 0.0, False)), _XY6[1])
# one block of 128 whose third and fourth levels are one degenerate pair: a single Lanczos run
# returned one copy and the fifth level in place of the other
_HOP7 = tuple(((s, s + 1), (l, l), c) for s in range(6) for l, c in (("x", 3 / 8), ("y", 1 / 16)))
_PAIR7 = (
    SpinChainSpec(7, _mirrored(7, _HOP7 + (((1, 3), ("x", "z"), 0.25),))),
    SpinChainSpec(7, _mirrored(7, gapwitness._witness_terms(7, False))),
)


def test_lanczos_blocks_match_dense_eigh(monkeypatch):
    # every block above the limit but the 1s and 6s of _XX6; at lambda* = sqrt(2)/4 of
    # test_departed_state_at_four_fold_crossing, _XX6's ground level is four-fold, two copies in its block of 20
    for specs, lam, limit in [(_XY8, 0.0, 16), (_XY8, 0.2, 16), (_PAIR7, 0.0, 12), (_XX6, np.sqrt(2) / 4, 12)]:
        monkeypatch.setattr(gapwitness, "DENSE_LIMIT", limit)
        h, v = (build_chain(spec) for spec in specs)
        solver = _SparseGround(h, v)
        assert solver.method == "lanczos"
        _assert_levels_match_dense(solver, h, v, lam)


@pytest.mark.parametrize("limit", [192, gapwitness.DENSE_LIMIT, 4])
def test_limit_takes_the_whole_ground_level(monkeypatch, limit):
    # H = Z0 and V = X1 + X2 + X3: two blocks of 8, and at lambda = 0 the ground level is all of one
    monkeypatch.setattr(gapwitness, "DENSE_LIMIT", limit)
    h, v = _field(4, "z", [1.0, 0.0, 0.0, 0.0]), _field(4, "x", [0.0, 1.0, 1.0, 1.0])
    solver = _SparseGround(h, v)
    assert [len(b) for b in solver.blocks] == [8, 8]
    assert solver.method == ("dense" if limit >= 8 else "lanczos")
    assert solver.solve(0.0)[1]
    _assert_levels_match_dense(solver, h, v, 0.0)
    assert solver.expect(v, solver.limit(0.0)) == pytest.approx(-3.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(_rk_symmetric_pairs(), st.sampled_from([0.0, 0.5, -1.25, 2.0]))
@example(_XX6, 0.3)  # blocks of 1, 6, 15, 20, 15, 6, 1: dense and Lanczos, all taken by R K
@example(_XY6, 0.3)
@example(_PAIR7, 0.0)
def test_mirror_symmetric_chains_are_solved_real(specs, lam):
    h, v = (build_chain(spec) for spec in specs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gapwitness, "DENSE_LIMIT", 12)
        solver = _SparseGround(h, v)
    assert all(d == {np.dtype(float)} for d in _block_dtypes(solver).values())
    _assert_levels_match_dense(solver, h, v, lam)


def _lopsided_witness(n):
    """The three-site witness with each term weighted by its right bond's taper alone:
    its ends get 2/3 and 1/3, so no mirror maps it onto itself."""
    terms = []
    for c in range(1, n - 1):
        w = gapwitness._bond_taper(n - 1, c)
        terms += [((c - 1, c, c + 1), ("x", "z", "y"), w), ((c - 1, c, c + 1), ("y", "z", "x"), -w)]
    return build_chain(SpinChainSpec(n, tuple(terms)))


def test_blocks_without_a_real_form_stay_complex(monkeypatch):
    # R K does not fix the lopsided witness; on the odd sector V is the untapered witness,
    # so one size holds a real and a complex block
    n = 7
    h = xy_hamiltonian(n, 0.5, taper=True)
    even = sp.diags((np.array([bin(r).count("1") for r in range(2**n)]) % 2 == 0).astype(float))
    odd = sp.identity(2**n) - even
    lopsided = _lopsided_witness(n)
    mixed = even @ lopsided @ even + odd @ gap_witness_v(n) @ odd
    for limit in (12, gapwitness.DENSE_LIMIT):
        monkeypatch.setattr(gapwitness, "DENSE_LIMIT", limit)
        solver = _SparseGround(h, lopsided)
        assert solver.basis is None
        assert all(d == {np.dtype(complex)} for d in _block_dtypes(solver).values())
        _assert_levels_match_dense(solver, h, lopsided, 0.4)
        solver = _SparseGround(h, mixed)
        assert [0 in b for b in solver.blocks] == [True, False]  # the even sector first
        assert _block_dtypes(solver) == {0: {np.dtype(complex)}, 1: {np.dtype(float)}}
        _assert_levels_match_dense(solver, h, mixed, 0.4)
    # x0 y1 - y2 x3 is fixed by R K, but R swaps the blocks of 1000 and 0001: those two stay complex
    h = build_chain(SpinChainSpec(4, _mirrored(4, (((0, 1), ("x", "y"), 1.0), ((0,), ("z",), 0.25)))))
    v = _field(4, "z", [0.5, -0.25, -0.25, 0.5])
    solver = _SparseGround(h, v)
    assert [int(b[0]) for b in solver.blocks] == [0b0000, 0b0001, 0b0100, 0b0101]  # 1000 is in 0100's
    assert _block_dtypes(solver) == dict(enumerate([{np.dtype(t)} for t in (float, complex, complex, float)]))
    _assert_levels_match_dense(solver, h, v, 0.4)


@pytest.mark.parametrize("n", [7, 8])
def test_tapered_chain_blocks_are_stored_real(monkeypatch, n):
    # each witness term takes the mean taper of its two bonds, so the tapered pair is mirror-symmetric
    h, v = xy_hamiltonian(n, 0.5, taper=True), gap_witness_v(n, taper=True)
    for limit in (12, gapwitness.DENSE_LIMIT):
        monkeypatch.setattr(gapwitness, "DENSE_LIMIT", limit)
        solver = _SparseGround(h, v)
        assert solver.basis is not None
        assert all(d == {np.dtype(float)} for d in _block_dtypes(solver).values())
        _assert_levels_match_dense(solver, h, v, 0.4)


@pytest.mark.parametrize("n", [8, 12, 14])
@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_xy_chain_blocks_are_stored_real(n, gamma):
    solver = _SparseGround(xy_hamiltonian(n, gamma), gap_witness_v(n))
    assert solver.basis is not None  # the witness is imaginary, so the form is R K's
    assert all(d == {np.dtype(float)} for d in _block_dtypes(solver).values())


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("n, gamma, lam", [(7, 0.5, 0.3), (8, 0.0, 0.3), (8, 1.0, 0.0)])
def test_threaded_ground_windows_are_bit_identical_to_serial(monkeypatch, workers, n, gamma, lam):
    # dense stacks of 64 (n = 7) and of 56, 70 and 56 (n = 8, gamma = 0), then the same blocks by Lanczos,
    # threaded from any size; at gamma = 1 and lambda = 0 the ground level spans both parity blocks
    h, v = xy_hamiltonian(n, gamma), gap_witness_v(n)
    for limit, method in ((gapwitness.DENSE_LIMIT, "dense"), (12, "lanczos")):
        monkeypatch.setattr(gapwitness, "DENSE_LIMIT", limit)
        monkeypatch.setattr(gapwitness, "LANCZOS_THREAD_DIM", 1)
        solver = _SparseGround(h, v)
        assert solver.method == method
        windows = []
        for w in (1, workers):
            monkeypatch.setattr(core, "cpu_workers", lambda: w)
            windows.append(solver._solve_blocks(lam))
        (w1, v1), (w2, v2) = windows
        np.testing.assert_array_equal(w2, w1)
        np.testing.assert_array_equal(v2, v1)


def test_bisection_end_reuses_the_last_solve(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m.shape)
        return _ground_window(m)

    monkeypatch.setattr(gapwitness, "_ground_window", counting)
    curve = ground_curve(xy_hamiltonian(12, 0.5), gap_witness_v(12), np.linspace(0.0, 0.5, 6))
    rep = gap_upper_bound(curve, refine_iters=3)
    # two parity blocks per solve: six grid points and three bisection steps; the last step moved
    # lambda*, so the limit there is the bisection's own solve
    assert len(calls) == 2 * (6 + 3)
    assert rep.solves == 6 + 3 + 1


def test_many_small_blocks_take_a_few_dense_solves(monkeypatch):
    # a z-only chain is diagonal: 4096 blocks of one, solved as one stack per lambda
    n, lams = 12, [0.0, 0.5, 1.0]
    h = _field(n, "z", 0.1 * np.arange(1, n + 1))
    v = build_chain(SpinChainSpec(n, tuple(((s, s + 1), ("z", "z"), 1.0) for s in range(n - 1))))
    shapes = {"eigh": [], "eigvalsh": []}

    def counting(name):
        solver = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return solver(a, *args, **kwargs)

        return call

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, counting(name))
    curve = ground_curve(h, v, lams)
    assert len(curve.solver.blocks) == 2**n
    assert len(shapes["eigh"]) <= 3 * len(lams)
    for lam, e0 in zip(lams, curve.energies):
        assert e0 == pytest.approx((h + lam * v).diagonal().real.min(), abs=1e-12)
    # the full spectrum is one stacked eigvalsh over the 4096 blocks of one
    shapes["eigvalsh"].clear()
    diag = np.sort(h.diagonal().real)
    above = diag[diag > diag[0] + 1e-9 * max(np.abs(diag).max(), 1.0)]
    assert true_gap(h) == pytest.approx(above[0] - diag[0], abs=1e-12)
    assert shapes["eigvalsh"] == [(2**n, 1, 1)]


def test_exact_diagonalization_at_gamma_one_matches_fermions():
    # at gamma = 1 the parity sectors tie at every lambda; the earlier block leads, so the plateau holds
    lams = np.linspace(0.0, 2.0, 21)
    ed = gap_upper_bound(ground_curve(xy_hamiltonian(10, 1.0), gap_witness_v(10), lams))
    ff = gap_upper_bound(ground_curve(xy_majorana(10, 1.0), gap_witness_majorana(10), lams))
    # the fermion path resolves a crossing only to its 1e-9 zero-mode window (CHANGES.md, FOUND on
    # the fermion crossing), so epsilon and lambda* agree to 1e-7; ED follows the crossing to rounding
    assert abs(ed.epsilon - ff.epsilon) <= 1e-7
    assert abs(ed.lambda_star - ff.lambda_star) <= 1e-7
    assert abs(ed.lambda_star - 1 / np.sqrt(3)) <= 1e-13
    assert ed.transient_crossings == ff.transient_crossings
    assert abs(ed.plateau_drift - ff.plateau_drift) <= 1e-10


def cusp_decomposition_check(x, y, psi, n_dirs=120, tol=1e-8, hull_tol=1e-6):
    """True iff psi is a common eigenvector of X and Y; verifies the split.

    On success the operators block-decompose against psi and the range is
    conv(W(X_0,Y_0) u W(X_perp,Y_perp)); checked on sampled directions via
    support functions.
    """
    dirs = sphere_directions(2, n_dirs)
    xd = x.toarray() if hasattr(x, "toarray") else np.asarray(x, dtype=complex)
    yd = y.toarray() if hasattr(y, "toarray") else np.asarray(y, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    scale = max(np.abs(xd).max(), np.abs(yd).max(), 1.0)
    ex = float(np.real(psi.conj() @ xd @ psi))
    ey = float(np.real(psi.conj() @ yd @ psi))
    if (
        np.linalg.norm(xd @ psi - ex * psi) > tol * scale
        or np.linalg.norm(yd @ psi - ey * psi) > tol * scale
    ):
        return False
    # orthonormal complement of psi
    d = len(psi)
    q, _ = np.linalg.qr(np.column_stack([psi, np.eye(d)]))
    comp = q[:, 1:d]
    xp = comp.conj().T @ xd @ comp
    yp = comp.conj().T @ yd @ comp
    h_full = support_batch([xd, yd], dirs).values
    h_perp = support_batch([xp, yp], dirs).values
    h_point = dirs @ np.array([ex, ey])
    return bool(np.all(np.abs(h_full - np.maximum(h_point, h_perp)) <= hull_tol * scale))


def test_cusp_check_shared_eigenbasis():
    x = np.diag([0.0, 1.0, 3.0]).astype(complex)
    y = np.diag([2.0, -1.0, 0.5]).astype(complex)
    psi = np.array([1.0, 0, 0], dtype=complex)
    assert cusp_decomposition_check(x, y, psi)


@pytest.mark.parametrize("n_dirs", [0, -3])
def test_cusp_check_rejects_empty_direction_sets(n_dirs):
    # no sampled direction checks nothing, so it is no verdict
    x = np.diag([0.0, 1.0, 3.0]).astype(complex)
    y = np.diag([2.0, -1.0, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="at least one direction"):
        cusp_decomposition_check(x, y, np.array([1.0, 0, 0], dtype=complex), n_dirs=n_dirs)


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


def _majoranas(n):
    # c_2j = Z...Z X_j, c_2j+1 = Z...Z Y_j by Kronecker products, independent of build_chain
    out = []
    for j in range(n):
        for p in ("x", "y"):
            op = np.ones((1, 1))
            for s in range(n):
                op = np.kron(op, _PAULI_REF["z" if s < j else p if s == j else "i"])
            out.append(op)
    return out


def _from_majorana(form):
    c = _majoranas(len(form.a) // 2)
    pairs = zip(*np.nonzero(form.a))
    return 0.25j * sum(form.a[k, l] * c[k] @ c[l] for k, l in pairs)


@pytest.mark.parametrize("taper", [False, True])
@pytest.mark.parametrize("n", [3, 4, 6])
def test_majorana_forms_match_pauli_chains(n, taper):
    for gamma in (0.0, 0.3, 1.0):
        ref = xy_hamiltonian(n, gamma, taper).toarray()
        assert np.abs(_from_majorana(xy_majorana(n, gamma, taper)) - ref).max() < 1e-12
    ref = gap_witness_v(n, taper).toarray()
    assert np.abs(_from_majorana(gap_witness_majorana(n, taper)) - ref).max() < 1e-12
    a = xy_majorana(n, 0.3, taper).a
    assert np.array_equal(a, -a.T)


def test_majorana_form_strings():
    terms = (((0, 1, 2, 3), ("y", "z", "z", "y"), -0.4), ((2, 3), ("y", "x"), 1.1), ((1, 2, 3), ("x", "z", "x"), 0.7))
    ref = build_chain(SpinChainSpec(4, terms)).toarray()
    assert np.abs(_from_majorana(majorana_form(4, terms)) - ref).max() < 1e-12
    for bad in (((0, 2), ("x", "x"), 1.0), ((0, 1, 2), ("x", "x", "y"), 1.0), ((1,), ("z",), 1.0)):
        with pytest.raises(ValueError, match="not quadratic"):
            majorana_form(3, (bad,))
    with pytest.raises(ChainTooLargeError):
        xy_majorana(MAX_XY_SITES + 1, 0.5)
    with pytest.raises(ChainTooLargeError):
        gap_witness_majorana(2)


def _reports(h, v, lams, refine):
    curve, tg = ground_curve(h, v, lams), true_gap(h)
    try:
        return curve, tg, gap_upper_bound(curve, true_gap_value=tg, refine_iters=refine)
    except PlateauError:
        return curve, tg, None


def _compare_paths(n, gamma, taper, lams, refine, crossing_tol=1e-6):
    """Fermion against exact diagonalization on one chain; returns what the report comparison covered."""
    ce, tg_e, re = _reports(xy_hamiltonian(n, gamma, taper), gap_witness_v(n, taper), lams, refine)
    cf, tg_f, rf = _reports(xy_majorana(n, gamma, taper), gap_witness_majorana(n, taper), lams, refine)
    assert np.abs(ce.energies - cf.energies).max() <= 1e-10
    assert abs(tg_e - tg_f) <= 1e-10
    assert (ce.degenerate == cf.degenerate).all()
    clean = ~(ce.degenerate | cf.degenerate)
    assert np.abs(ce.e_h - cf.e_h)[clean].max(initial=0) <= 1e-10
    assert np.abs(ce.e_v - cf.e_v)[clean].max(initial=0) <= 1e-10
    if not clean.all():
        return "degenerate grid"
    assert (re is None) == (rf is None)
    if rf is None:
        return "no plateau"
    assert re.transient_crossings == rf.transient_crossings and re.consistent == rf.consistent
    # a jump at a level crossing is resolved to the 1e-9 degeneracy window on the fermion path
    at_crossing = ce.solver.solve(re.lambda_star)[1] or cf.solver.solve(rf.lambda_star)[1]
    tol = crossing_tol if at_crossing else 1e-10
    for key in ("epsilon", "lambda_star", "plateau_drift"):
        assert abs(getattr(re, key) - getattr(rf, key)) <= tol, key
    return "crossing" if at_crossing else "report"


@settings(max_examples=10, deadline=None)
@given(
    st.integers(3, 8),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    st.booleans(),
)
@example(6, 0.0, False)  # two modes cross at once: a four-fold crossing
@example(8, 0.5, True)  # the crossing is degenerate to 4e-14 at lambda*
@example(6, 1.0, False)  # a zero mode at every lambda
def test_fermion_path_matches_exact_diagonalization(n, gamma, taper):
    _compare_paths(n, gamma, taper, np.linspace(0.0, 1.5, 16), refine=20)


@pytest.mark.parametrize("n, gamma, refine", [(10, 0.5, 40), (12, 0.0, 12)])
def test_fermion_path_matches_lanczos(n, gamma, refine):
    covered = _compare_paths(n, gamma, False, np.linspace(0.0, 0.5, 6), refine, crossing_tol=1e-10)
    assert covered in ("report", "crossing")


def test_departed_state_at_four_fold_crossing():
    # at n=6, gamma=0 two modes cross zero together; past lambda* both are flipped
    h, v = xy_hamiltonian(6, 0.0), gap_witness_v(6)
    curve = ground_curve(h, v, np.linspace(0.0, 3.0, 31))
    rep = gap_upper_bound(curve)

    def e_h(lam):
        g = np.linalg.eigh((h + lam * v).toarray())[1][:, 0]
        return float(np.real(g.conj() @ h @ g))

    d = 1e-6
    past = 2 * e_h(rep.lambda_star + d) - e_h(rep.lambda_star + 2 * d)  # linear extrapolation to lambda*
    assert rep.epsilon == pytest.approx(past - curve.e_h[0], abs=1e-9)


@pytest.mark.parametrize("n, gamma", [(6, 1.0), (80, 0.5)])
def test_zero_modes_give_pure_states(n, gamma):
    # gamma=1: two exact zero modes; n=80, gamma=1/2: edge modes split by less than 1e-16
    h, v = xy_majorana(n, gamma), gap_witness_majorana(n)
    curve = ground_curve(h, v, [0.0, 0.3])
    assert curve.degenerate.all()
    for i in range(2):
        g = curve.states[..., i]
        assert np.isfinite(g).all()
        assert np.abs(g @ g + np.eye(2 * n)).max() < 1e-10
        assert curve.energies[i] == pytest.approx(curve.e_h[i] + curve.lams[i] * curve.e_v[i], abs=1e-10)
