from fractions import Fraction as F

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qgeom import core
from qgeom.su2 import (
    GroupElement,
    SpinKet,
    characteristic_function,
    clebsch_gordan,
    haar_quaternions,
    jz_convert,
    marvian_necessary_test,
    spin_combine,
    zeta_channel_simplex,
    zeta_map,
    _block_data,
    _rotated,
    _spin_half,
)

H = F(1, 2)


def test_cg_stretched():
    assert clebsch_gordan(H, H, H, H, 1, 1) == pytest.approx(1.0)


def test_cg_coherent_tops():
    j1 = H
    while j1 <= 3:
        j2 = H
        while j2 <= 3:
            assert clebsch_gordan(j1, j1, j2, j2, j1 + j2, j1 + j2) == pytest.approx(1.0)
            j2 += H
        j1 += H


def test_cg_singlet_signs_match_diagonalization():
    # oracle: diagonalize J^2 on two spin-1/2's; the singlet is the 0-eigenvector
    jx, jy, jz = core.spin_operators(H)
    ops = [core.tensor(a, np.eye(2)) + core.tensor(np.eye(2), a) for a in (jx, jy, jz)]
    j2 = sum(o @ o for o in ops)
    w, v = np.linalg.eigh(j2)
    singlet = v[:, 0]
    assert abs(w[0]) < 1e-12
    # basis order: |up,up>, |up,dn>, |dn,up>, |dn,dn>
    c_updn = clebsch_gordan(H, H, H, -H, 0, 0)
    c_dnup = clebsch_gordan(H, -H, H, H, 0, 0)
    assert c_updn == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert c_dnup == pytest.approx(-1 / np.sqrt(2), abs=1e-12)
    cg_vec = np.array([0, c_updn, c_dnup, 0])
    overlap = abs(np.vdot(cg_vec, singlet))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_cg_orthogonality_sum():
    # sum_j C(...)^2 = 1 for fixed (j1, m1, j2, m2)
    cases = [(1, 0, H, H), (F(3, 2), H, 1, -1), (2, 1, 2, 0)]
    for j1, m1, j2, m2 in cases:
        total = 0.0
        j = abs(F(j1) - F(j2))
        while j <= F(j1) + F(j2):
            total += clebsch_gordan(j1, m1, j2, m2, j, F(m1) + F(m2)) ** 2
            j += 1
        assert total == pytest.approx(1.0, abs=1e-12)


def test_cg_matrix_orthogonal():
    for j1, j2 in [(H, H), (1, H), (1, 1), (F(3, 2), 1), (2, 2)]:
        rows = []
        prod_basis = [(m1, m2) for m1 in _mrange(j1) for m2 in _mrange(j2)]
        coupled = []
        j = abs(j1 - j2)
        while j <= j1 + j2:
            for m in _mrange(j):
                coupled.append((j, m))
            j += 1
        mat = np.zeros((len(coupled), len(prod_basis)))
        for a, (j, m) in enumerate(coupled):
            for b, (m1, m2) in enumerate(prod_basis):
                mat[a, b] = clebsch_gordan(j1, m1, j2, m2, j, m)
        assert np.abs(mat @ mat.T - np.eye(len(coupled))).max() < 1e-10


def _mrange(j):
    out = []
    m = F(j)
    while m >= -F(j):
        out.append(m)
        m -= 1
    return out


def test_cg_selection_rules_and_errors():
    assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0  # triangle violation
    assert clebsch_gordan(1, 1, 1, 0, 2, 0) == 0.0  # m mismatch
    with pytest.raises(ValueError):
        clebsch_gordan(1, 2, 1, 0, 2, 2)  # |m| > j
    with pytest.raises(ValueError):
        clebsch_gordan(0.3, 0, 1, 0, 1, 0)


def test_spin_combine_stretched():
    up = SpinKet.from_terms([(H, H, 1.0)])
    out = spin_combine(up, up)
    d = out.as_dict()
    assert len(d) == 1
    ((j, m, tag), amp) = next(iter(d.items()))
    assert (j, m) == (1, 1)
    assert amp == pytest.approx(1.0)


def test_spin_combine_superposed_half_spin():
    alpha = SpinKet.from_terms([(0, 0, 1 / np.sqrt(2)), (H, H, 1 / np.sqrt(2))])
    out = spin_combine(alpha, alpha).as_dict()
    expect = {
        (F(0), F(0), "(0,0)"): 0.5,
        (F(1, 2), F(1, 2), "(0,1/2)"): 0.5,
        (F(1, 2), F(1, 2), "(1/2,0)"): 0.5,
        (F(1), F(1), "(1/2,1/2)"): 0.5,
    }
    assert set(out) == set(expect)
    for k, v in expect.items():
        assert out[k] == pytest.approx(v, abs=1e-12)


def test_spin_combine_rejects_tagged_input():
    tagged = SpinKet.from_terms([(1, 0, "(1,1)", 1.0)])
    plain = SpinKet.from_terms([(0, 0, 1.0)])
    with pytest.raises(ValueError):
        spin_combine(tagged, plain)


def test_characteristic_at_identity(rng):
    s = SpinKet.from_terms([(1, 0, 0.6), (2, -1, 0.8)])
    assert characteristic_function(s, GroupElement((0, 0, 0))) == pytest.approx(1.0)


def test_characteristic_z_rotation_phase():
    s = SpinKet.from_terms([(F(3, 2), F(1, 2), 1.0)])
    theta = 0.77
    val = characteristic_function(s, GroupElement((0, 0, theta)))
    assert val == pytest.approx(np.exp(1j * theta / 2), abs=1e-12)


def test_characteristic_multiplicative_under_combination(rng):
    a = SpinKet.from_terms([(0, 0, 0.6), (1, 1, 0.8j)])
    b = SpinKet.from_terms([(H, -H, 1 / np.sqrt(3)), (F(3, 2), H, np.sqrt(2 / 3))])
    comb = spin_combine(a, b)
    for _ in range(50):
        g = GroupElement(rng.normal(size=3))
        lhs = characteristic_function(comb, g)
        rhs = characteristic_function(a, g) * characteristic_function(b, g)
        assert abs(lhs - rhs) < 1e-9


def test_jz_convert_singlet_identity():
    phi = SpinKet.from_terms([(1, -1, 0.6), (2, -1, 0.8)])
    omega = SpinKet.from_terms([(0, 0, 1.0)])
    out = jz_convert(phi, omega)
    assert out.as_dict().keys() == phi.as_dict().keys()
    for k, v in phi.as_dict().items():
        assert abs(abs(out.as_dict()[k]) - abs(v)) < 1e-12


def test_jz_convert_golden_triple():
    phi = SpinKet.from_terms([(j, -1, 1 / np.sqrt(3)) for j in (1, 2, 3)])
    omega = SpinKet.from_terms([(0, 0, 1 / np.sqrt(2)), (1, 0, 1 / np.sqrt(2))])
    psi = jz_convert(phi, omega)
    probs = {float(j): abs(a) ** 2 for (j, m, t), a in psi.amps}
    expect = {1.0: 3 / 10, 2.0: 43 / 126, 3.0: 97 / 360, 4.0: 5 / 56}
    assert set(probs) == set(expect)
    for j, p in expect.items():
        assert probs[j] == pytest.approx(p, abs=1e-12)


def test_jz_convert_is_eigenstate():
    phi = SpinKet.from_terms([(1, -1, 0.6), (3, -1, 0.8)])
    omega = SpinKet.from_terms([(1, 1, 1.0)])
    out = jz_convert(phi, omega)
    assert out.jz_eigenvalue() == 0  # -1 + 1


def test_jz_convert_coherent_sector_plain_convolution():
    q = [0.2, 0.5, 0.3]
    w = [0.6, 0.4]
    phi = SpinKet.from_terms([(j, j, np.sqrt(v)) for j, v in enumerate(q) if v > 0])
    omega = SpinKet.from_terms([(j, j, np.sqrt(v)) for j, v in enumerate(w) if v > 0])
    out = jz_convert(phi, omega)
    probs = {float(j): abs(a) ** 2 for (j, m, t), a in out.amps}
    conv = np.convolve(q, w)
    for j, v in enumerate(conv):
        if v > 1e-15:
            assert probs[float(j)] == pytest.approx(v, abs=1e-12)


def test_jz_convert_rejects_non_eigenstate():
    phi = SpinKet.from_terms([(1, -1, 0.6), (2, 0, 0.8)])
    omega = SpinKet.from_terms([(0, 0, 1.0)])
    with pytest.raises(ValueError):
        jz_convert(phi, omega)


def _spin_combine_loop(a, b):
    # the former spin_combine body: its own (j1, m1) x (j2, m2) x j loop over clebsch_gordan
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


def _jz_convert_loop(phi, omega):
    # the former jz_convert after its input checks, with its own coupling loop
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


_AMP = st.tuples(st.floats(-1, 1), st.floats(-1, 1)).filter(lambda z: abs(complex(*z)) > 1e-3).map(lambda z: complex(*z))


@st.composite
def _plain_kets(draw):
    """Random plain-tagged kets with spins up to 5/2."""
    keys = draw(st.lists(st.integers(0, 5).flatmap(lambda two_j: st.tuples(
        st.just(F(two_j, 2)), st.integers(0, two_j).map(lambda k: F(two_j, 2) - k))), min_size=1, max_size=5, unique=True))
    return SpinKet.from_terms([(j, m, draw(_AMP)) for j, m in keys], normalize=True)


@st.composite
def _jz_inputs(draw):
    """Kets jz_convert accepts: one global m, or m = j throughout, a tag of two chosen per entry."""
    terms = []
    if draw(st.booleans()):  # a J_Z eigenstate: one m, at several j
        two_m = draw(st.integers(-3, 3))
        for two_j in draw(st.lists(st.integers(abs(two_m), 6).filter(lambda t: (t - two_m) % 2 == 0),
                                   min_size=1, max_size=3, unique=True)):
            terms.append((F(two_j, 2), F(two_m, 2)))
    else:  # the coherent family
        for two_j in draw(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True)):
            terms.append((F(two_j, 2), F(two_j, 2)))
    return SpinKet.from_terms([(j, m, draw(st.sampled_from(["", "(1,1)"])), draw(_AMP)) for j, m in terms],
                              normalize=True)


@settings(max_examples=60, deadline=None)
@given(_plain_kets(), _plain_kets())
def test_spin_combine_matches_its_former_loop_bit_for_bit(a, b):
    assert repr(spin_combine(a, b).amps) == repr(_spin_combine_loop(a, b).amps)


@settings(max_examples=80, deadline=None)
@given(_jz_inputs(), _jz_inputs())
def test_jz_convert_matches_its_former_loop_bit_for_bit(phi, omega):
    try:
        want = repr(_jz_convert_loop(phi, omega).amps)
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            jz_convert(phi, omega)
    else:
        assert repr(jz_convert(phi, omega).amps) == want


def test_jz_convert_with_accidentally_vanishing_couplings_keeps_its_sum_order():
    # <1 0; 1 0 | 1 0> = 0: the j = 1 block first appears with a zero coupling, before j = 2 and
    # after j = 0, so skipping zero couplings would sum the blocks in another order (and round otherwise)
    phi = SpinKet.from_terms([(1, 0, 0.6), (2, 0, 0.8)])
    omega = SpinKet.from_terms([(1, 0, "(1,1)", 0.28), (2, 0, 0.96)])
    assert repr(jz_convert(phi, omega).amps) == repr(_jz_convert_loop(phi, omega).amps)


def test_pair_products_compose_like_expm():
    # D(u_k^dag u_i) = D(u_k)^dag D(u_i): the Gram matrix of the rotated kets against the product
    # of two expm's of the samples' rotation vectors, 4 pi sign included
    s = SpinKet.from_terms([(H, -H, 0.5), (1, 0, 0.5j), (F(3, 2), H, "a", 0.5), (F(5, 2), F(-3, 2), -0.5)])
    q = haar_quaternions(12, seed=5)
    norm = np.linalg.norm(q[:, 1:], axis=1, keepdims=True)
    vs = 2 * np.arctan2(norm, q[:, :1]) * q[:, 1:] / norm
    kets = _rotated(_block_data(s), _spin_half(q))
    gram = kets.conj() @ kets.T
    for k, i in np.ndindex(gram.shape):
        expect = 0j
        for (j, _tag), block in s.blocks().items():
            vec = np.array([block.get(j - n, 0) for n in range(int(2 * j) + 1)], dtype=complex)
            jx, jy, jz = core.spin_operators(j)
            ui, uk = (expm(1j * (v[0] * jx + v[1] * jy + v[2] * jz)) for v in (vs[i], vs[k]))
            expect += vec.conj() @ uk.conj().T @ ui @ vec
        assert abs(gram[k, i] - expect) <= 1e-12


def test_marvian_rejects_vacuous_sample_counts():
    psi = SpinKet.from_terms([(1, 0, 1.0)])
    for samples in (1, 0, -1):
        with pytest.raises(ValueError, match="at least 2 samples"):
            marvian_necessary_test(psi, psi, samples=samples)


def test_marvian_identity_consistent():
    psi = SpinKet.from_terms([(1, 0, 0.6), (2, 1, 0.8)])
    verdict = marvian_necessary_test(psi, psi, samples=40, seed=1)
    assert verdict.consistent


def test_marvian_golden_triple_consistent():
    phi = SpinKet.from_terms([(j, -1, 1 / np.sqrt(3)) for j in (1, 2, 3)])
    omega = SpinKet.from_terms([(0, 0, 1 / np.sqrt(2)), (1, 0, 1 / np.sqrt(2))])
    psi = jz_convert(phi, omega)
    verdict = marvian_necessary_test(psi, phi, samples=60, seed=2)
    assert verdict.consistent


def test_marvian_detects_impossible():
    psi = SpinKet.from_terms([(H, H, 1.0)])
    phi = SpinKet.from_terms([(0, 0, 1 / np.sqrt(2)), (1, 1, 1 / np.sqrt(2))])
    verdict = marvian_necessary_test(psi, phi, samples=200, seed=3)
    assert not verdict.consistent
    assert verdict.certificate is not None
    assert abs(verdict.min_eig) > verdict.min_eig_bound > 0


def test_zeta_unital_and_trace_preserving(rng):
    rho = core.random_density(3, rng)
    assert abs(np.trace(zeta_map(rho)) - 1.0) < 1e-12
    assert np.abs(zeta_map(np.eye(3) / 3) - np.eye(3) / 3).max() < 1e-12


def test_zeta_simplex_vertices():
    for x in [(1.0, 0.0), (0.0, 1.0), (-0.8, -0.6)]:
        rep = zeta_channel_simplex(*x)
        assert rep.is_cptp
        assert abs(rep.choi_min_eig) < 1e-8


def test_zeta_simplex_interior_strict():
    rep = zeta_channel_simplex(0.3, 0.3)
    assert rep.is_cptp
    assert rep.choi_min_eig > 1e-4


def test_zeta_simplex_rejects_antiunitary_point():
    rep = zeta_channel_simplex(-1.0, -2.0)
    assert not rep.is_cptp
    assert rep.choi_min_eig < -0.1


def antiunitary_point_map(rho):
    """The covariant non-CP map (R rho R^dag)^T with R = exp(i pi J_Y), j = 1.

    R is the real signed permutation |m> -> (-1)^(1-m) |-m> (descending m).
    """
    r = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=float)
    return (r @ rho @ r.T).T


def test_antiunitary_point_matches_simplex_combination(rng):
    # (R rho R+)^T = -rho - 2 zeta(rho) + 4 zeta^2(rho)
    rho = core.random_density(3, rng)
    lhs = antiunitary_point_map(rho)
    rhs = -rho - 2 * zeta_map(rho) + 4 * zeta_map(zeta_map(rho))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_antiunitary_point_covariant(rng):
    jx, jy, jz = core.spin_operators(1)
    for _ in range(20):
        rho = core.random_density(3, rng)
        v = rng.normal(size=3)
        u = expm(1j * (v[0] * jx + v[1] * jy + v[2] * jz))
        lhs = antiunitary_point_map(u @ rho @ u.conj().T)
        rhs = u @ antiunitary_point_map(rho) @ u.conj().T
        assert np.abs(lhs - rhs).max() < 1e-9


def test_half_integer_validation_is_shared_with_core():
    assert core.as_half_integer(-1.5) == F(-3, 2)
    for bad in (F(1, 3), 0.3, 1 / 3):
        with pytest.raises(ValueError, match="not a half-integer"):
            core.as_half_integer(bad)
    with pytest.raises(ValueError):
        clebsch_gordan(1, F(1, 3), 1, 0, 1, F(1, 3))
    for j in (-1, -0.5):
        with pytest.raises(ValueError, match="invalid spin"):
            core.spin_operators(j)
    with pytest.raises(ValueError):
        core.spin_operators(0.3)
