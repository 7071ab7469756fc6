"""Each stacked kernel against the per-sample loop it replaces.

The stacked paths do the same arithmetic as the loops (same operator sums,
same eigensolver per matrix, same expectation formula), so support samples
and sector bounds must agree bit for bit; characteristic values are
checked against an independent expm per rotation vector within rounding.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qgeom import core
from qgeom.core import spin_operators
from qgeom.numrange import DEGENERACY_GAP, support_batch, unit
from qgeom.su2 import SpinKet, characteristic_values
from qgeom.uncertainty import SectorPartition, sector_bound_operator, sector_sum_bound


def _support_loop(ops, directions):
    """One eigh per direction: (value, witness, point, gap) per row."""
    out = []
    for n in directions:
        n = unit(n)
        w, v = np.linalg.eigh(sum(ni * x for ni, x in zip(n, ops)))
        top = v[:, -1]
        scale = max(abs(w[-1]), abs(w[0]), 1e-30)
        gap = (w[-1] - w[-2]) / scale if len(w) > 1 else np.inf
        rho = np.outer(top, top.conj())
        point = np.array([np.trace(x @ rho).real for x in ops])
        out.append((w[-1], top, point, gap))
    return out


def _random_ops(rng, d, k, degenerate):
    if degenerate:
        # X_i = A_i (x) 1_2: every eigenvalue of n.X is doubly degenerate
        return [np.kron(core.random_hermitian(d // 2, rng), np.eye(2)) for _ in range(k)]
    return [core.random_hermitian(d, rng) for _ in range(k)]


def _assert_matches_loop(samples, ops, dirs):
    assert len(samples) == len(dirs)
    for s, (value, top, point, gap), n in zip(samples, _support_loop(ops, dirs), dirs):
        np.testing.assert_array_equal(s.direction, unit(n))
        assert s.value == value
        np.testing.assert_array_equal(s.witness, top)
        np.testing.assert_array_equal(s.point, point)
        assert s.gap == gap
        assert s.degenerate == (gap < DEGENERACY_GAP)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([1, 2, 3, 4, 6]),
    st.integers(1, 4),
    st.integers(1, 12),
    st.booleans(),
)
def test_support_batch_matches_loop(seed, d, k, n_dirs, degenerate):
    rng = np.random.default_rng(seed)
    degenerate = degenerate and d % 2 == 0
    ops = _random_ops(rng, d, k, degenerate)
    dirs = rng.normal(size=(n_dirs, k))
    samples = support_batch(ops, dirs)
    _assert_matches_loop(samples, ops, dirs)
    if degenerate:
        assert all(s.degenerate for s in samples)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3, 5]), st.integers(1, 4))
def test_support_batch_across_chunks(monkeypatch, seed, d, rows_per_chunk):
    rng = np.random.default_rng(seed)
    ops = [core.random_hermitian(d, rng) for _ in range(3)]
    dirs = rng.normal(size=(2 * rows_per_chunk + 1, 3))  # two full chunks and a remainder
    whole = support_batch(ops, dirs)
    with monkeypatch.context() as m:
        m.setattr(core, "STACK_ENTRIES", rows_per_chunk * d * d)
        assert len(core.stack_chunks(len(dirs), d)) == 3
        chunked = support_batch(ops, dirs)
    _assert_matches_loop(chunked, ops, dirs)
    for a, b in zip(whole, chunked):
        assert (a.value, a.gap) == (b.value, b.gap)
        np.testing.assert_array_equal(a.point, b.point)


def test_support_batch_validates_once_for_the_sweep():
    with pytest.raises(ValueError, match="direction length"):
        support_batch([core.PAULI_X, core.PAULI_Z], np.ones((5, 3)))
    with pytest.raises(ValueError, match="zero direction"):
        support_batch([core.PAULI_X, core.PAULI_Z], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        support_batch([core.PAULI_X, np.array([[0, 1], [0, 0]])], [[1.0, 0.0]])


def _random_partition(rng, x):
    """Breakpoints at the eigenvalues of x plus a few random interior points."""
    w = np.linalg.eigvalsh(x)
    extra = rng.uniform(w[0], w[-1], size=rng.integers(0, 4))
    bp = np.unique(np.concatenate([[w[0] - 1e-3, w[-1] + 1e-3], w, extra]))
    return SectorPartition(tuple(bp))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5))
def test_sector_sum_bound_matches_double_loop(seed, d):
    rng = np.random.default_rng(seed)
    x, y = core.random_hermitian(d, rng), core.random_hermitian(d, rng)
    px, py = _random_partition(rng, x), _random_partition(rng, y)
    xs = [sector_bound_operator(x, a, b) for a, b in px.sectors()]
    ys = [sector_bound_operator(y, a, b) for a, b in py.sectors()]
    c_loop = min(np.linalg.eigvalsh(xi + yj)[0] for xi in xs for yj in ys)
    c, delta = sector_sum_bound(x, y, px, py)
    assert c == float(c_loop)
    assert delta == px.delta + py.delta


_SPINS = [F(0), F(1, 2), F(1), F(3, 2), F(2), F(5, 2)]


@st.composite
def _spin_kets(draw):
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        j = draw(st.sampled_from(_SPINS))
        m = j - draw(st.integers(0, int(2 * j)))
        tag = draw(st.sampled_from(["", "a"]))
        amp = complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
        terms.append((j, m, tag, amp))
    if sum(abs(t[3]) for t in terms) < 1e-3:
        terms.append((F(1, 2), F(1, 2), "", 1.0))
    return SpinKet.from_terms(terms, normalize=True)


def _chi_loop(s, v):
    """<s| exp(i v.J) |s> with one expm per (j, tag) block and rotation vector."""
    total = 0j
    for (j, _tag), block in s.blocks().items():
        vec = np.zeros(int(2 * j) + 1, dtype=complex)
        for m, a in block.items():
            vec[int(j - m)] = a
        jx, jy, jz = spin_operators(j)
        total += vec.conj() @ expm(1j * (v[0] * jx + v[1] * jy + v[2] * jz)) @ vec
    return total


@settings(max_examples=30, deadline=None)
@given(_spin_kets(), st.integers(0, 10**6), st.integers(1, 6))
def test_characteristic_values_match_expm_per_vector(s, seed, n):
    rng = np.random.default_rng(seed)
    # angles up to 6 pi: past the 4 pi period of half-integer blocks
    vs = rng.normal(size=(n, 3))
    vs *= rng.uniform(0, 6 * np.pi, size=(n, 1)) / np.linalg.norm(vs, axis=1, keepdims=True)
    chi = characteristic_values(s, vs)
    assert chi.shape == (n,)
    for c, v in zip(chi, vs):
        assert abs(c - _chi_loop(s, v)) <= 1e-10


@pytest.mark.parametrize("j", [F(1, 2), F(1), F(3, 2), F(2)])
def test_characteristic_values_two_pi_sign(j):
    # a 2 pi rotation is -1 on half-integer spins and +1 on integer spins
    s = SpinKet.from_terms([(j, j, 0.6), (j, j - 1, 0.8j)])
    v = np.array([0.3, -1.1, 0.7])
    turned = v * (1 + 2 * np.pi / np.linalg.norm(v))
    chi, chi_turned = characteristic_values(s, [v, turned])
    assert abs(chi_turned - (-1) ** int(2 * j) * chi) <= 1e-10
    assert characteristic_values(s, np.zeros((0, 3))).shape == (0,)
