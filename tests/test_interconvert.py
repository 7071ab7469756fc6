from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from qgeom import interconvert
from qgeom.interconvert import (
    CLUSTER_TOL,
    CirculantTestReport,
    LadderState,
    ProbVector,
    SingularCirculantError,
    accessible_states,
    aux_reachable,
    build_u1_kraus,
    circulant,
    convolve,
    cyclic_majorize,
    u1_convertible,
)


def pv(ws, offset=0):
    return ProbVector.from_weights(ws, offset=offset)


def random_prob(rng, max_diam=8):
    n = int(rng.integers(1, max_diam + 2))
    w = rng.random(n) + 0.05
    w /= w.sum()
    return pv(w, offset=int(rng.integers(-3, 4)))


def test_circulant_identity():
    assert np.allclose(circulant([1.0, 0.0, 0.0]), np.eye(3))


def test_circulant_elementary_permutation():
    p = circulant([0.0, 1.0, 0.0, 0.0])
    expect = np.zeros((4, 4))
    for i in range(4):
        expect[i, (i + 1) % 4] = 1.0
    assert np.allclose(p, expect)


def test_circulant_empty():
    with pytest.raises(ValueError):
        circulant([])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_circulant_commutative_semigroup(seed):
    rng = np.random.default_rng(seed)
    a = rng.random(5)
    b = rng.random(5)
    ca, cb = circulant(a), circulant(b)
    assert np.abs(ca @ cb - cb @ ca).max() < 1e-12
    conv = np.array([sum(a[k] * b[(n - k) % 5] for k in range(5)) for n in range(5)])
    assert np.abs(ca @ cb - circulant(conv)).max() < 1e-12


def test_cyclic_majorize_identity():
    w = cyclic_majorize([F(1, 2), F(1, 2), F(0), F(0), F(0)], [F(1, 2), F(1, 2), F(0), F(0), F(0)])
    assert w == [1, 0, 0, 0, 0]


def test_cyclic_majorize_pure_shift():
    q = [0.5, 0.3, 0.2, 0.0, 0.0]
    p = [q[(i - 1) % 5] for i in range(5)]  # shifted up by one
    w = cyclic_majorize(p, q)
    assert np.abs(np.array(w) - np.eye(5)[1]).max() < 1e-10


def test_cyclic_majorize_delta_source():
    p = [0.25, 0.25, 0.25, 0.25, 0.0]
    q = [1.0, 0.0, 0.0, 0.0, 0.0]
    w = cyclic_majorize(p, q)
    assert np.abs(np.array(w) - p).max() < 1e-12


def test_cyclic_majorize_singular_n12():
    # N = 12 embedding: 1 + x shares the root -1 with 1 - x^12, so
    # C((1/2, 1/2, 0, ..., 0)) is singular
    q = [F(1, 2), F(1, 2)] + [F(0)] * 10
    p = [F(1, 6), F(1, 3), F(1, 3), F(1, 6)] + [F(0)] * 8
    with pytest.raises(SingularCirculantError):
        cyclic_majorize(p, q)
    with pytest.raises(SingularCirculantError):
        cyclic_majorize([float(x) for x in p], [float(x) for x in q])


def _circulant_verdict(p, q, dim):
    """The circulant construction at the prime embedding `dim`, checked
    non-cyclically: the decision path that polynomial division replaced."""
    zero = F(0) if p.exact and q.exact else 0.0
    w = cyclic_majorize(
        list(p.weights) + [zero] * (dim - len(p.weights)),
        list(q.weights) + [zero] * (dim - len(q.weights)),
    )
    if w is None:
        return None
    w = ProbVector.from_weights(w)
    recon = convolve(w, q)
    if recon.offset != p.offset or len(recon.weights) != len(p.weights):
        return None
    if max(abs(float(a) - float(b)) for a, b in zip(recon.weights, p.weights)) > 1e-9:
        return None
    return w


def _int_weights(max_len, lo):
    """Integer weight lists with nonzero ends (trimmed supports)."""
    return st.lists(st.integers(lo, 9), min_size=1, max_size=max_len).filter(
        lambda ws: ws[0] > 0 and ws[-1] > 0
    )


@st.composite
def _ladder_pairs(draw):
    """(p, q) integer weight lists: p = w * q for a w that may have negative
    entries, or p drawn independently of q."""
    q = draw(_int_weights(4, 0))
    if draw(st.booleans()):
        w = draw(_int_weights(5, -4))
        assume(sum(w) > 0)
        p = list(np.convolve(w, q))
        assume(min(p) >= 0)
    else:
        p = draw(_int_weights(8, 0))
    return [int(x) for x in p], q, draw(st.integers(-3, 3)), draw(st.integers(-3, 3))


@settings(max_examples=100, deadline=None)
@given(_ladder_pairs(), st.booleans())
def test_division_matches_circulant_embedding(pair, exact):
    p_int, q_int, p_off, q_off = pair

    def vec(ws, off):
        total = sum(ws)
        return pv([F(x, total) if exact else x / total for x in ws], offset=off)

    p, q = vec(p_int, p_off), vec(q_int, q_off)
    rep = u1_convertible(p, q)
    oracle = _circulant_verdict(p.at_origin(), q.at_origin(), rep.embedding_dim)
    assert rep.exact == exact
    assert rep.singular_retries == 0
    assert rep.convertible == (oracle is not None)
    if oracle is None:
        return
    expect = oracle.shifted(p_off - q_off)
    if exact:
        assert rep.w == expect
    else:
        assert rep.w.offset == expect.offset
        assert len(rep.w.weights) == len(expect.weights)
        assert np.abs(rep.w.as_floats() - expect.as_floats()).max() <= 1e-9


def test_golden_quartet_to_pair_exact():
    p = pv([F(1, 6), F(1, 3), F(1, 3), F(1, 6)], offset=1)
    q = pv([F(1, 2), F(1, 2)], offset=0)
    rep = u1_convertible(p, q)
    assert rep.convertible
    assert rep.exact
    assert rep.embedding_dim == 11  # smallest prime > 2*3 + 1
    assert rep.singular_retries == 0
    assert rep.w.offset == 1
    assert rep.w.weights == (F(1, 3), F(1, 3), F(1, 3))


def test_golden_quartet_embedding_independence():
    # a larger prime embedding (N = 13) produces the same origin-shifted weights
    p13 = [F(1, 6), F(1, 3), F(1, 3), F(1, 6)] + [F(0)] * 9
    q13 = [F(1, 2), F(1, 2)] + [F(0)] * 11
    w = cyclic_majorize(p13, q13)
    assert w[:3] == [F(1, 3), F(1, 3), F(1, 3)]
    assert all(v == 0 for v in w[3:])


def test_basis_state_always_reachable(rng):
    for _ in range(5):
        p = random_prob(rng)
        q = pv([1.0], offset=int(rng.integers(-2, 3)))
        rep = u1_convertible(p, q)
        assert rep.convertible


def test_wider_support_not_reachable(rng):
    p = pv([0.5, 0.5])
    q = pv([0.25, 0.25, 0.25, 0.25])
    assert not u1_convertible(p, q).convertible


def test_build_kraus_golden_quartet():
    p = pv([F(1, 6), F(1, 3), F(1, 3), F(1, 6)], offset=1)
    q = pv([F(1, 2), F(1, 2)], offset=0)
    rep = u1_convertible(p, q)
    lch = build_u1_kraus(p, q, rep.w)
    assert lch.window_offset == 0
    ks = dict(zip(lch.shifts, lch.channel.kraus))
    s = 1 / np.sqrt(2)
    expect = {
        -1: {(0, 1): 1.0, (1, 2): s},
        -2: {(0, 2): s, (1, 3): s},
        -3: {(0, 3): s, (1, 4): 1.0},
    }
    for k, entries in expect.items():
        m = np.zeros((5, 5))
        for (i, j), val in entries.items():
            m[i, j] = val
        assert np.abs(ks[k] - m).max() < 1e-12


def test_build_kraus_identity_case():
    p = pv([0.25, 0.75], offset=2)
    w = pv([1.0], offset=0)
    lch = build_u1_kraus(p, p, w)
    assert len(lch.channel.kraus) == 1
    k = lch.channel.kraus[0]
    assert np.abs(k - np.diag(np.diag(k))).max() == 0.0  # single diagonal Kraus
    diag = np.diag(k).real
    assert np.allclose(diag[2 - lch.window_offset : 4 - lch.window_offset], 1.0)


def test_build_kraus_random_convertible(rng):
    for _ in range(5):
        q = random_prob(rng, max_diam=3)
        w = random_prob(rng, max_diam=3)
        p = convolve(w, q)
        rep = u1_convertible(p, q)
        assert rep.convertible
        lch = build_u1_kraus(p, q, rep.w)
        psi = LadderState.from_probs(p.as_floats(), offset=p.offset)
        out = lch.apply_to(psi)
        dim = out.shape[0]
        phi_vec = np.zeros(dim, dtype=complex)
        for i, val in enumerate(q.as_floats()):
            phi_vec[q.offset + i - lch.window_offset] = np.sqrt(val)
        fid = np.real(phi_vec.conj() @ out @ phi_vec)
        assert fid >= 1 - 1e-9


def test_build_kraus_interior_zero_support():
    # p has an interior zero; the channel completion on that index is
    # omitted, so the channel is sub-normalized off supp(p) but exact on it
    q = pv([0.5, 0.0, 0.5])
    w = pv([1.0])
    p = convolve(w, q)
    lch = build_u1_kraus(p, q, w)
    s = sum(k.conj().T @ k for k in lch.channel.kraus)
    diag = np.diag(s).real
    assert np.allclose(diag, [1.0, 0.0, 1.0])
    psi = LadderState.from_probs([0.5, 0.0, 0.5])
    out = lch.apply_to(psi)
    phi_vec = np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)], dtype=complex)
    assert np.real(phi_vec.conj() @ out @ phi_vec) >= 1 - 1e-12


def test_build_kraus_inconsistent_triple():
    p = pv([0.5, 0.5])
    q = pv([0.5, 0.5])
    w = pv([0.5, 0.5])
    with pytest.raises(ValueError):
        build_u1_kraus(p, q, w)
    # Fractions are held to equality: a residual of 1e-12 fails although VERIFY_TOL would pass it
    e = F(1, 10**12)
    with pytest.raises(ValueError):
        build_u1_kraus(pv([F(1, 4) + e, F(1, 2) - e, F(1, 4)]), pv([F(1, 2)] * 2), pv([F(1, 2)] * 2))
    # long division leaves w = (2/3, 0) >= 0, but w * q = (1/3, 1/3, 0) misses p
    assert not u1_convertible(pv([F(1, 3)] * 3), pv([F(1, 2)] * 2)).convertible


def test_build_kraus_float_residual_follows_verify_tol(monkeypatch):
    # w * q = (1/4, 1/2, 1/4); p differs from it by about 1e-12 in two entries
    q = pv([0.5, 0.5])
    w = pv([0.5, 0.5])
    p = pv([0.25 + 1e-12, 0.5 - 1e-12, 0.25])
    build_u1_kraus(p, q, w)
    monkeypatch.setattr(interconvert, "VERIFY_TOL", 1e-15)
    with pytest.raises(ValueError, match="p = w \\* q"):
        build_u1_kraus(p, q, w)


def _convolve_loop(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=60, deadline=None)
@given(_int_weights(6, 0), _int_weights(6, 0), st.integers(-3, 3), st.integers(-3, 3), st.booleans())
def test_convolve_is_np_convolve_and_exact_on_fractions(a, b, oa, ob, exact):
    # Fraction weights: the product equals a double loop exactly; floats: np.convolve, renormalized
    a = pv([F(x, sum(a)) for x in a] if exact else [x / sum(a) for x in a], offset=oa)
    b = pv([F(x, sum(b)) for x in b] if exact else [x / sum(b) for x in b], offset=ob)
    got = convolve(a, b)
    assert got.offset == oa + ob and got.exact == exact
    if exact:
        assert list(got.weights) == _convolve_loop(a.weights, b.weights)
    else:
        want = np.convolve(a.as_floats(), b.as_floats())
        assert np.array_equal(got.as_floats(), want / sum(want.tolist()))


def test_accessible_states_example():
    p = pv([F(1, 6), F(1, 3), F(1, 3), F(1, 6)])
    acc = accessible_states(p)
    found = None
    for q, w in acc["pairs"]:
        if len(q.weights) == 2 and np.abs(q.as_floats() - 0.5).max() < 1e-9:
            found = (q, w)
    assert found is not None
    assert np.abs(found[1].as_floats() - 1 / 3).max() < 1e-9


def test_accessible_states_delta():
    p = pv([1.0], offset=3)
    acc = accessible_states(p)
    assert len(acc["pairs"]) == 1
    q, w = acc["pairs"][0]
    assert q.weights == (1.0,) or q.weights == (F(1),)


def test_accessible_states_cross_oracle(rng):
    for _ in range(10):
        p = random_prob(rng, max_diam=6).at_origin()
        acc = accessible_states(p)
        assert len(acc["pairs"]) <= 2 ** p.diam
        for q, w in acc["pairs"]:
            rep = u1_convertible(p, q)
            assert rep.convertible


def _power(base, k):
    out = np.array([1.0])
    for _ in range(k):
        out = np.convolve(out, base)
    return out


def _has_state(pairs, q0, tol=1e-9):
    return any(len(q.weights) == len(q0) and np.abs(q.as_floats() - q0).max() < tol for q, _ in pairs)


POWERS = [((a, 1 - a), k) for a in (0.1, 0.2, 0.3, 0.45, 0.5) for k in range(2, 7)]
POWERS += [((1 / 3, 1 / 3, 1 / 3), k) for k in range(2, 5)]


@pytest.mark.parametrize("base, k", POWERS, ids=[f"{base[0]:.3g}-{len(base)}-pow{k}" for base, k in POWERS])
def test_accessible_states_of_a_power_are_its_lower_powers(base, k):
    # one k-fold root (or conjugate pair): the states are base^{*j}, j = 0..k, each once
    pairs = accessible_states(pv(_power(base, k)))["pairs"]
    assert len(pairs) == k + 1
    for j in range(k + 1):
        assert _has_state(pairs, _power(base, j))


def test_accessible_states_repeated_root_with_a_signed_cofactor():
    # (1 + x)^2 (1 - x + x^2) = 1 + x + x^3 + x^4: the double root's cofactor has a
    # negative coefficient, and the states are 1, (1 + x)/2, (1 + x^3)/2 and p
    p = pv([0.25, 0.25, 0.0, 0.25, 0.25])
    pairs = accessible_states(p)["pairs"]
    assert len(pairs) == 4
    for q0 in ([1.0], [0.5, 0.5], [0.5, 0.0, 0.0, 0.5], p.as_floats()):
        assert _has_state(pairs, np.array(q0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2]), st.integers(2, 3))
def test_accessible_states_find_a_repeated_factor(seed, degree, m):
    rng = np.random.default_rng(seed)
    if degree == 1:
        f = np.array([rng.uniform(0.1, 3.0), 1.0])
    else:
        r, th = rng.uniform(0.5, 2.0), rng.uniform(0.55, 0.95) * np.pi
        f = np.array([r * r, -2 * r * np.cos(th), 1.0])
    q0 = _power(f, m) / _power(f, m).sum()
    w0 = rng.random(int(rng.integers(1, 4))) + 0.05
    # roots of w0 closer than CLUSTER_TOL to f's would join its group
    far = [abs(z - r) > 2 * CLUSTER_TOL * abs(r) for z in np.roots(w0[::-1]) for r in np.roots(f[::-1])]
    assume(all(far))
    p = pv(np.convolve(q0, w0 / w0.sum()))
    pairs = accessible_states(p)["pairs"]
    assert _has_state(pairs, q0)
    for q, _ in pairs:
        assert u1_convertible(p, q).convertible


def test_aux_reachable_identity(rng):
    p = random_prob(rng)
    w = aux_reachable(p, p, 2)
    assert w is not None
    assert np.abs(w - np.eye(5)[2]).max() < 1e-8


def test_aux_reachable_shift():
    p = pv([0.3, 0.7])
    q = pv([0.3, 0.7], offset=1)
    w = aux_reachable(p, q, 1)
    assert w is not None
    assert np.abs(w - [0, 0, 1]).max() < 1e-8


def test_aux_reachable_midpoint():
    p = pv([0.3, 0.7])
    shifted = pv([0.3, 0.7], offset=1)
    mid = ProbVector.from_weights(0.5 * np.array([0.3, 0.7, 0]) + 0.5 * np.array([0, 0.3, 0.7]))
    w = aux_reachable(p, mid, 1)
    assert w is not None
    assert np.abs(w - [0, 0.5, 0.5]).max() < 1e-8


def test_aux_reachable_infeasible():
    # a delta cannot be a nonnegative mixture of shifted spread vectors
    p = pv([0.5, 0.5])
    q = pv([1.0])
    assert aux_reachable(p, q, 2) is None


def test_aux_reachable_delta_source_spans_window():
    # shifted deltas span every distribution inside the window
    p = pv([1.0])
    q = pv([0.5, 0.5])
    w = aux_reachable(p, q, 2)
    assert w is not None
    assert np.abs(w - [0, 0, 0.5, 0.5, 0]).max() < 1e-8


def test_reflexivity(rng):
    p = random_prob(rng)
    rep = u1_convertible(p, p)
    assert rep.convertible
    assert rep.w.diam == 0 and float(rep.w.weights[0]) == pytest.approx(1.0)


def test_transitivity(rng):
    for _ in range(5):
        qc = random_prob(rng, max_diam=2)
        w1 = random_prob(rng, max_diam=2)
        w2 = random_prob(rng, max_diam=2)
        b = convolve(w1, qc)
        a = convolve(w2, b)
        rab = u1_convertible(a, b)
        rbc = u1_convertible(b, qc)
        rac = u1_convertible(a, qc)
        assert rab.convertible and rbc.convertible and rac.convertible
        chained = convolve(rab.w, rbc.w)
        assert chained.offset == rac.w.offset
        assert np.abs(chained.as_floats() - rac.w.as_floats()).max() < 1e-8


def test_phase_independence(rng):
    for _ in range(5):
        q = random_prob(rng, max_diam=3)
        w = random_prob(rng, max_diam=3)
        p = convolve(w, q)
        ph_p = rng.uniform(0, 2 * np.pi, size=len(p.weights))
        ph_q = rng.uniform(0, 2 * np.pi, size=len(q.weights))
        psi = LadderState.from_probs(p.as_floats(), offset=p.offset, phases=ph_p)
        phi = LadderState.from_probs(q.as_floats(), offset=q.offset, phases=ph_q)
        plain = u1_convertible(
            LadderState.from_probs(p.as_floats(), offset=p.offset),
            LadderState.from_probs(q.as_floats(), offset=q.offset),
        )
        dressed = u1_convertible(psi, phi)
        assert plain.convertible == dressed.convertible == True


def test_support_arithmetic_necessary(rng):
    for _ in range(10):
        a = random_prob(rng)
        b = random_prob(rng)
        rep = u1_convertible(a, b)
        if rep.convertible:
            assert a.diam >= b.diam


def _aux_nnls(p, q, d, tol=1e-9):
    """Reference: nonnegative least squares for q = sum_m w_m Delta^m p, with a
    normalization row, accepted at a residual below tol."""
    lo = min(q.offset, p.offset - d)
    hi = max(q.offset + q.diam, p.offset + p.diam + d)
    a = np.zeros((hi - lo + 1, 2 * d + 1))
    for k, m in enumerate(range(-d, d + 1)):
        a[np.array(p.support) + m - lo, k] = p.as_floats()
    b = np.zeros(hi - lo + 1)
    b[np.array(q.support) - lo] = q.as_floats()
    w, _ = nnls(np.vstack([a, np.ones((1, 2 * d + 1))]), np.append(b, 1.0))
    if np.linalg.norm(a @ w - b) > tol or abs(w.sum() - 1.0) > 1e-8:
        return None
    return w


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3), st.sampled_from(["inside", "edge", "signed", "unrelated"]))
def test_aux_reachable_matches_nnls(seed, d, kind):
    rng = np.random.default_rng(seed)
    p = random_prob(rng, max_diam=5).shifted(int(rng.integers(-3, 4)))
    if kind == "unrelated":
        q = random_prob(rng, max_diam=7).shifted(int(rng.integers(-3, 4)))
    else:
        # q = w * p for weights w on the shifts start .. start + n - 1; at "edge"
        # the top shift is d (inside the window), d + 1 or d + 2 (outside)
        n = int(rng.integers(1, 2 * d + 2)) if kind != "signed" else int(rng.integers(3, 6))
        start = int(rng.integers(-d, d - n + 2)) if kind == "inside" else d - n + 1 + int(rng.integers(0, 3))
        w = rng.random(n) + 0.05
        if kind == "signed":  # one negative inner weight: q >= 0 but no nonnegative mixture
            w[rng.integers(1, n - 1)] = -rng.uniform(1e-3, 0.04)
        w /= w.sum()
        mix = np.convolve(w, p.as_floats())
        assume(mix.min() > 0)
        q = pv(mix, offset=p.offset + start)
    got, want = aux_reachable(p, q, d), _aux_nnls(p, q, d)
    assert (got is None) == (want is None)
    if got is not None:
        assert np.abs(got - want).max() <= 1e-12
