"""Each stacked kernel against the per-sample loop it replaces.

Support sweeps solve the top eigenpair by eigvalsh and shifted inverse
iteration, so they are held to a per-matrix eigh loop within tolerances
fixed from the dtype (values within a few d eps scale, witnesses up to
phase, points within c eps scale / gap), with face rows, which go through
eigh, identical to the loop's; characteristic values are checked against
expm of each rotation vector within rounding, the Marvian test against its
row-by-row quaternion/expm loop, the Gauss-Newton flat-face census against
the old rank and shape tests on every reported face and against scipy's
Nelder-Mead from every candidate, and the variance branch and bound's
bracket against a grid plus Nelder-Mead.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import minimize

from qgeom import core
from qgeom.core import spin_operators
from qgeom.numrange import (
    CANDIDATE_GAP,
    DEGENERACY_GAP,
    FACE_GAP,
    FACE_MERGE_TOL,
    FACE_RANK_TOL,
    FLAT_GAP,
    _face_points,
    classify_qutrit_jnr,
    sphere_directions,
    support_batch,
    unit,
)
from qgeom.su2 import (
    SpinKet,
    _block_data,
    _rotated,
    _spin_half,
    characteristic_values,
    haar_quaternions,
    marvian_necessary_test,
)
from qgeom.uncertainty import min_sum_variances
from conftest import expectation
from test_uncertainty import paraboloid_certificate


def _support_loop(ops, directions):
    """One eigh per direction: (value, witness, point, gap, face, scale) per row."""
    out = []
    for n in directions:
        n = unit(n)
        w, v = np.linalg.eigh(sum(ni * x for ni, x in zip(n, ops)))
        top = v[:, -1]
        scale = max(abs(w[-1]), abs(w[0]), 1e-30)
        gap = (w[-1] - w[-2]) / scale if len(w) > 1 else np.inf
        point = np.array([((top.conj() @ x) * top).sum().real for x in ops])
        out.append((w[-1], top, point, gap, v[:, w >= w[-1] - FACE_GAP * scale], scale))
    return out


def _random_ops(rng, d, k, degenerate):
    if degenerate:
        # X_i = A_i (x) 1_2: every eigenvalue of n.X is doubly degenerate
        return [np.kron(core.random_hermitian(d // 2, rng), np.eye(2)) for _ in range(k)]
    return [core.random_hermitian(d, rng) for _ in range(k)]


EPS = np.finfo(float).eps


def _assert_matches_loop(sweep, ops, dirs):
    """The sweep against one eigh per direction, with tolerances fixed from the dtype.

    Values agree within 4 d eps scale and gaps within 8 d eps, witnesses up
    to phase (1 - |<v_eigh, v>| within 8 d eps + 8 (d eps / gap)^2), and
    points within 8 d eps |X| (1 + 1/gap), the eigenvector conditioning eigh
    shares.  Face rows are solved by eigh, so their keys, bases, witnesses
    and points are the loop's bit for bit.
    """
    loop = _support_loop(ops, dirs)
    d = len(ops[0])
    op_scale = max(np.abs(x).max() for x in ops)
    assert len(sweep.values) == len(dirs)
    for r, ((value, top, point, gap, face, scale), n) in enumerate(zip(loop, dirs)):
        np.testing.assert_array_equal(sweep.directions[r], unit(n))
        assert abs(sweep.values[r] - value) <= 4 * d * EPS * scale
        assert sweep.gaps[r] == gap or abs(sweep.gaps[r] - gap) <= 8 * d * EPS
        if face.shape[1] > 1:
            np.testing.assert_array_equal(sweep.faces[r], face)
            np.testing.assert_array_equal(sweep.witnesses[r], top)
            np.testing.assert_array_equal(sweep.points[r], point)
            continue
        assert 1 - abs(np.vdot(top, sweep.witnesses[r])) <= 8 * d * EPS + 8 * (d * EPS / gap) ** 2
        assert np.abs(sweep.points[r] - point).max() <= 8 * d * EPS * op_scale * (1 + 1 / gap)
    # a face is kept for exactly the rows whose top eigenspace has two or more vectors
    assert sorted(sweep.faces) == [r for r, row in enumerate(loop) if row[4].shape[1] > 1]
    assert set(np.flatnonzero(sweep.degenerate)) <= set(sweep.faces)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 16, 32]),
    st.integers(1, 4),
    st.integers(1, 12),
    st.booleans(),
)
def test_support_batch_matches_loop(seed, d, k, n_dirs, degenerate):
    rng = np.random.default_rng(seed)
    degenerate = degenerate and d % 2 == 0
    ops = _random_ops(rng, d, k, degenerate)
    dirs = rng.normal(size=(n_dirs, k))
    sweep = support_batch(ops, dirs)
    _assert_matches_loop(sweep, ops, dirs)
    if degenerate:
        assert sweep.degenerate.all()


def _planted(rng, d, gap):
    """U diag(lambda) U^dag with lambda_max = 0.77, a top gap `gap` (absolute) and,
    for d > 2, lambda_min = -1.3: FACE_GAP sits at gap 7.7e-8 (d = 2) or 1.3e-7."""
    lam = np.concatenate([[-1.3], rng.uniform(-1.3, 0.77 - gap, size=max(d - 3, 0)), [0.77 - gap, 0.77]])[-d:]
    u = core.random_unitary(d, rng)
    return (u * lam) @ u.conj().T


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5, 8, 16, 32]), st.floats(-7, -1), st.integers(1, 6))
def test_support_batch_resolves_planted_top_gaps(seed, d, log_gap, rows):
    # row i of the sweep along e_i solves exactly the planted matrix H_i; the
    # smallest gaps fall below FACE_GAP (eigh face rows)
    rng = np.random.default_rng(seed)
    ops = [_planted(rng, d, 10.0**log_gap) for _ in range(rows)]
    ops = [(h + h.conj().T) / 2 for h in ops]
    _assert_matches_loop(support_batch(ops, np.eye(rows)), ops, np.eye(rows))


_NAMED = {
    "pauli": [core.PAULI_X, core.PAULI_Y, core.PAULI_Z],
    "spin1": list(spin_operators(1)),
    "spin5/2": list(spin_operators(F(5, 2))),
    "diagonal": [np.diag([1.0, 2.0, 2.0, -3.0]), np.diag([0.5, -1.0, 4.0, 0.0])],
    "zero": [np.zeros((3, 3)), np.zeros((3, 3))],
}


@pytest.mark.parametrize("name", sorted(_NAMED))
def test_support_batch_matches_loop_on_named_operators(name):
    ops = _NAMED[name]
    k = len(ops)
    dirs = np.concatenate([np.eye(k), -np.eye(k), sphere_directions(k, 40)])
    _assert_matches_loop(support_batch(ops, dirs), ops, dirs)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3, 5]), st.integers(1, 4), st.booleans())
def test_support_batch_across_chunks(monkeypatch, seed, d, rows_per_chunk, degenerate):
    rng = np.random.default_rng(seed)
    degenerate = degenerate and d % 2 == 0
    ops = _random_ops(rng, d, 3, degenerate)
    dirs = rng.normal(size=(2 * rows_per_chunk + 1, 3))  # two full chunks and a remainder
    whole = support_batch(ops, dirs)
    with monkeypatch.context() as m:
        m.setattr(core, "STACK_ENTRIES", rows_per_chunk * d * d)
        assert len(core.stack_chunks(len(dirs), d)) == 3
        chunked = support_batch(ops, dirs)
    _assert_matches_loop(chunked, ops, dirs)
    for name in ("values", "gaps", "points", "witnesses"):
        np.testing.assert_array_equal(getattr(whole, name), getattr(chunked, name))
    assert sorted(whole.faces) == sorted(chunked.faces)
    for r, basis in whole.faces.items():
        np.testing.assert_array_equal(basis, chunked.faces[r])


@pytest.mark.parametrize("k", range(1, 7))
def test_support_batch_normalises_rows_as_unit_does(k):
    # scaled Gaussian rows, norms from 1e-3 to 1e3: the stacked normalisation
    # rounds exactly as unit() on each row
    rng = np.random.default_rng([7, k])
    rows = rng.normal(size=(500, k)) * 10.0 ** rng.uniform(-3, 3, size=(500, 1))
    ops = [core.random_hermitian(2, rng) for _ in range(k)]
    np.testing.assert_array_equal(support_batch(ops, rows).directions, [unit(r) for r in rows])


def test_support_batch_of_no_rows_is_empty():
    sweep = support_batch([core.PAULI_X, core.PAULI_Z], np.empty((0, 2)))
    assert sweep.directions.shape == sweep.points.shape == (0, 2)
    assert sweep.values.shape == sweep.gaps.shape == (0,) and sweep.witnesses.shape == (0, 2)
    assert sweep.faces == {}


def test_support_batch_validates_once_for_the_sweep():
    with pytest.raises(ValueError, match="direction length"):
        support_batch([core.PAULI_X, core.PAULI_Z], np.ones((5, 3)))
    with pytest.raises(ValueError, match="zero direction"):
        support_batch([core.PAULI_X, core.PAULI_Z], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        support_batch([core.PAULI_X, np.array([[0, 1], [0, 0]])], [[1.0, 0.0]])


def _face_rank(ops, basis):
    """Rank of the Bloch components of the operators compressed to `basis` (the old face rank)."""
    reduced = np.stack([basis.conj().T @ x @ basis for x in ops])
    bloch = np.einsum("kij,pji->kp", reduced, np.stack([core.PAULI_X, core.PAULI_Y, core.PAULI_Z])).real / 2
    sv = np.linalg.svd(bloch, compute_uv=False)
    return int((sv > FACE_RANK_TOL * max(sv[0], 1e-30)).sum())


def _fit_face_shape(points, rank):
    """The old shape filter: PCA segment test (ratio 1e-6), conic discriminant for ellipses."""
    c = points - points.mean(axis=0)
    sv = np.linalg.svd(c, compute_uv=False)
    if rank <= 0 or sv[0] < 1e-12:
        return "point", 0
    if rank == 1 or sv[1] < 1e-6 * sv[0]:
        return "segment", 1
    _, _, vt = np.linalg.svd(c, full_matrices=False)
    x, y = (c @ vt[:2].T).T
    _, _, vvt = np.linalg.svd(np.stack([x * x, x * y, y * y, x, y, np.ones_like(x)], axis=1))
    a, b, cc = vvt[-1][:3]
    if b * b - 4 * a * cc >= 0 and sv[1] < 1e-3 * sv[0]:
        return "segment", 1
    return "ellipse", 2


def _top_two(ops, normal):
    """(relative top-two gap, top-two eigenvectors) of normal.X by its own eigh."""
    w, v = np.linalg.eigh(sum(ni * x for ni, x in zip(normal, ops)))
    return (w[-1] - w[-2]) / max(abs(w[-1]), abs(w[0]), 1e-30), v[:, -2:]


def _triple(kind, rng):
    """A qutrit triple: real symmetric (0), complex Hermitian (1) or real symmetric rotated by a unitary (2)."""
    if kind == 1:
        return [core.random_hermitian(3, rng) for _ in range(3)]
    ops = [(a + a.T) / 2 for a in rng.normal(size=(3, 3, 3))]
    if kind == 2:
        u = core.random_unitary(3, rng)
        ops = [u @ x @ u.conj().T for x in ops]
    return ops


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 2))
def test_reported_flat_faces_are_sound(seed, kind):
    ops = _triple(kind, np.random.default_rng(seed))
    cls = classify_qutrit_jnr(*ops, sweep=600)
    for f in cls.faces:
        gap, basis = _top_two(ops, f.normal)
        assert gap < FLAT_GAP and abs(np.linalg.norm(f.normal) - 1) < 1e-12
        shape, dim = _fit_face_shape(_face_points(ops, basis), _face_rank(ops, basis))
        assert (f.shape, f.dim) == (shape, dim)
    assert (cls.e, cls.s) == (sum(f.dim == 2 for f in cls.faces), sum(f.dim == 1 for f in cls.faces))
    for i, f in enumerate(cls.faces):
        assert all(np.linalg.norm(f.normal - g.normal) >= FACE_MERGE_TOL for g in cls.faces[:i])


def _scipy_polish(ops, n0):
    """Reference flat-face polish: scipy Nelder-Mead on one candidate."""
    n0 = unit(n0)
    t1 = np.cross(n0, np.eye(3)[np.argmin(np.abs(n0))])
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n0, t1)

    def gap_at(u):
        w = np.linalg.eigvalsh(sum(ni * x for ni, x in zip(unit(n0 + u[0] * t1 + u[1] * t2), ops)))
        return (w[-1] - w[-2]) / max(abs(w[-1]), abs(w[0]), 1e-30)

    options = {"xatol": 1e-14, "fatol": 1e-16, "maxiter": 400}
    r = minimize(gap_at, np.zeros(2), method="Nelder-Mead", options=options)
    return unit(n0 + r.x[0] * t1 + r.x[1] * t2), r.fun


def _scipy_classification(ops, sweep):
    """[(normal, dim)] of the faces found by Nelder-Mead from every candidate, merged as classify merges."""
    swept = support_batch(ops, sphere_directions(3, sweep))
    order = np.argsort(swept.gaps)[: np.count_nonzero(swept.gaps <= CANDIDATE_GAP)]
    faces = []
    for n0 in swept.directions[order]:
        n, gap = _scipy_polish(ops, n0)
        if gap < FLAT_GAP and all(np.linalg.norm(n - m) >= FACE_MERGE_TOL for m, _ in faces):
            _, basis = _top_two(ops, n)
            faces.append((n, _fit_face_shape(_face_points(ops, basis), _face_rank(ops, basis))[1]))
    return faces


@pytest.mark.parametrize("kind", [0, 1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_classification_matches_scipy_nelder_mead_oracle(seed, kind):
    # a Gauss-Newton start may reach another face than Nelder-Mead from the same start, so the
    # face sets are compared, each face against the oracle face with the nearest normal
    ops = _triple(kind, np.random.default_rng([19, seed, kind]))
    cls = classify_qutrit_jnr(*ops)
    ref = _scipy_classification(ops, 2000)
    assert len(cls.faces) == len(ref)
    for f in cls.faces:
        n, dim = min(ref, key=lambda r: np.linalg.norm(r[0] - f.normal))
        assert np.linalg.norm(f.normal - n) <= 1e-9 and f.dim == dim


def _grid_nelder_mead_min(x, y, grid=41, refine_from=5):
    """Reference minimum of lambda_min((X - a)^2 + (Y - b)^2): the best of a
    grid over the spectral box and Nelder-Mead from its best cells."""
    x2, y2, eye = x @ x, y @ y, np.eye(x.shape[0])

    def shifted(a, b):
        a, b = np.asarray(a)[..., None, None], np.asarray(b)[..., None, None]
        return x2 - 2 * a * x + a * a * eye + y2 - 2 * b * y + b * b * eye

    wx, wy = np.linalg.eigvalsh(x), np.linalg.eigvalsh(y)
    xs, ys = np.meshgrid(np.linspace(wx[0], wx[-1], grid), np.linspace(wy[0], wy[-1], grid), indexing="ij")
    xs, ys = xs.ravel(), ys.ravel()
    vals = np.linalg.eigvalsh(shifted(xs, ys))[:, 0]
    best = vals.min()
    options = {"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000}
    for i in np.argsort(vals, kind="stable")[:refine_from]:
        r = minimize(lambda p: np.linalg.eigvalsh(shifted(*p))[0], [xs[i], ys[i]], method="Nelder-Mead", options=options)
        best = min(best, r.fun)
    return max(float(best), 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6), st.booleans())
@example(seed=213, d=3, spin=False)  # a round whose live simplices all split at existing midpoints
def test_min_sum_variances_matches_grid_nelder_mead(seed, d, spin):
    rng = np.random.default_rng(seed)
    if spin:
        ops = spin_operators(F(d - 1, 2))
        x, y = ops[rng.integers(3)], ops[rng.integers(3)]
    else:
        x, y = core.random_hermitian(d, rng), core.random_hermitian(d, rng)
    b = min_sum_variances(x, y)
    assert b.sector_bound <= _grid_nelder_mead_min(x, y) <= b.value + 1e-10
    assert b.sector_bound <= b.value <= b.sector_bound + b.delta
    assert b.meta["converged"] and b.delta <= max(1e-11 * max(1.0, b.value), 1e-9)
    at = [expectation(op, b.certificate_state) for op in (x, y)]
    np.testing.assert_allclose(at, b.minimizer, rtol=0, atol=1e-6)
    assert paraboloid_certificate(x, y, b)


def test_min_sum_variances_closes_a_shallow_valley():
    # combinations of the spin-5/2 J_s: lambda_min is nearly flat along its
    # valley, where a plain (<X>, <Y>) fixed-point step shrinks the error by
    # about 2% per step; the branch and bound closes the bracket all the same
    ops = spin_operators(F(5, 2))
    x = np.tensordot([-0.880, -1.361, 0.723], ops, axes=1)
    y = np.tensordot([0.099, -0.828, -1.456], ops, axes=1)
    b = min_sum_variances(x, y)
    assert b.sector_bound <= _grid_nelder_mead_min(x, y) <= b.value + 1e-10
    assert b.meta == {"method": "planar", "evaluations": b.meta["evaluations"], "converged": True}
    at = [expectation(op, b.certificate_state) for op in (x, y)]
    np.testing.assert_allclose(at, b.minimizer, rtol=0, atol=1e-6)


def _variance_cases():
    for j in (F(1, 2), 1, F(3, 2), 2, F(5, 2), 3):
        jx, jy, _ = spin_operators(j)
        yield f"spin-{j}", jx, jy, "radial"  # minimisers on a circle
    jx, _, _ = spin_operators(F(3, 2))
    yield "x-equals-y", jx, jx, "planar"
    yield "commuting-diagonal", np.diag([0.0, 1.0, 3.0, -2.0]), np.diag([2.0, -1.0, 0.0, 0.5]), "planar"
    yield "identity", np.eye(3), np.diag([1.0, 0.0, -1.0]), "planar"


@pytest.mark.parametrize("name, x, y, method", list(_variance_cases()), ids=[c[0] for c in _variance_cases()])
def test_variance_bracket_contains_the_grid_minimum(name, x, y, method):
    b = min_sum_variances(x, y)
    assert b.meta["method"] == method and b.meta["converged"]
    assert b.sector_bound <= _grid_nelder_mead_min(x, y) <= b.value + 1e-10
    assert b.delta <= max(1e-11 * max(1.0, b.value), 1e-10)


def test_variance_search_evaluates_few_points(monkeypatch):
    # the spin-3 pair is searched along one radius; meta counts every stacked eigvalsh row
    jx, jy, _ = spin_operators(3)
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        solved.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    b = min_sum_variances(jx, jy)
    monkeypatch.undo()
    assert b.meta["method"] == "radial" and b.meta["converged"]
    # three more: the spectral box's two and the certificate's density check
    assert sum(solved) - 3 == b.meta["evaluations"] <= 40


_SPINS = [F(0), F(1, 2), F(1), F(3, 2), F(2), F(5, 2)]


@st.composite
def _spin_kets(draw, spins=_SPINS):
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        j = draw(st.sampled_from(spins))
        m = j - draw(st.integers(0, int(2 * j)))
        tag = draw(st.sampled_from(["", "a"]))
        amp = complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
        terms.append((j, m, tag, amp))
    if sum(abs(t[3]) for t in terms) < 1e-3:
        terms.append((F(1, 2), F(1, 2), "", 1.0))
    return SpinKet.from_terms(terms, normalize=True)


def _chi_rows(s, vs):
    """<s| exp(i v.J) |s> for each row v of vs, by a stacked expm per (j, tag) block."""
    total = np.zeros(len(vs), dtype=complex)
    for (j, _tag), block in s.blocks().items():
        vec = np.zeros(int(2 * j) + 1, dtype=complex)
        for m, a in block.items():
            vec[int(j - m)] = a
        jx, jy, jz = spin_operators(j)
        u = expm(1j * (vs[:, 0, None, None] * jx + vs[:, 1, None, None] * jy + vs[:, 2, None, None] * jz))
        total += ((vec.conj() @ u)[:, None, :] @ vec[:, None])[:, 0, 0]
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
    assert np.abs(chi - _chi_rows(s, vs)).max() <= 1e-10


@pytest.mark.parametrize("j", [F(1, 2), F(1), F(3, 2), F(2)])
def test_characteristic_values_two_pi_sign(j):
    # a 2 pi rotation is -1 on half-integer spins and +1 on integer spins
    s = SpinKet.from_terms([(j, j, 0.6), (j, j - 1, 0.8j)])
    v = np.array([0.3, -1.1, 0.7])
    turned = v * (1 + 2 * np.pi / np.linalg.norm(v))
    chi, chi_turned = characteristic_values(s, [v, turned])
    assert abs(chi_turned - (-1) ** int(2 * j) * chi) <= 1e-10
    assert characteristic_values(s, np.zeros((0, 3))).shape == (0,)


@pytest.mark.parametrize("j", [10, 20, 30])
def test_characteristic_values_match_expm_at_large_spin(j):
    # the closed form keeps its digits where a (2j+1)^2 monomial sum would lose them
    rng = np.random.default_rng(j)
    amps = rng.normal(size=2 * j + 1) + 1j * rng.normal(size=2 * j + 1)
    s = SpinKet.from_terms([(j, j - k, a) for k, a in enumerate(amps)], normalize=True)
    vs = rng.normal(size=(8, 3))
    vs *= rng.uniform(0, 4 * np.pi, size=(8, 1)) / np.linalg.norm(vs, axis=1, keepdims=True)
    assert np.abs(characteristic_values(s, vs) - _chi_rows(s, vs)).max() <= 1e-12


def _quat_mul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def _quat_to_rotvec(a):
    """Unit quaternion -> rotation vector with angle in [0, 2pi)."""
    nv = np.linalg.norm(a[1:])
    angle = 2.0 * np.arctan2(nv, np.clip(a[0], -1.0, 1.0))
    if nv < 1e-15:
        return (angle, 0.0, 0.0) if angle > 1e-12 else (0.0, 0.0, 0.0)
    return tuple(angle * (a[1:] / nv))


def _marvian_loop(psi, phi, samples, seed, zero_tol=1e-8):
    """The Marvian test row by row: M_ik = f(g_i g_k^-1) through quaternion
    products, rotation vectors and a stacked expm per spin block.

    Returns (consistent, used, skipped, min_eig, scale), scale sizing the
    rounding error of min_eig.
    """
    quats = haar_quaternions(samples, seed=seed)
    inv = quats * [1, -1, -1, -1]
    n = len(quats)
    m = np.zeros((n, n), dtype=complex)
    denoms = np.zeros((n, n), dtype=complex)
    bad = np.zeros((n, n), dtype=bool)
    for i in range(n):
        vs = np.array([_quat_to_rotvec(_quat_mul(quats[i], qk)) for qk in inv])
        denoms[i] = denom = _chi_rows(phi, vs)
        bad[i] = np.abs(denom) < zero_tol
        ok = ~bad[i]
        m[i, ok] = [a / b for a, b in zip(_chi_rows(psi, vs[ok]).tolist(), denom[ok].tolist())]
    keep = list(range(n))
    while True:
        sub = bad[np.ix_(keep, keep)]
        counts = sub.sum(axis=0) + sub.sum(axis=1)
        if counts.max(initial=0) == 0:
            break
        keep.pop(int(np.argmax(counts)))
        if not keep:
            break
    if len(keep) < 2:
        return True, len(keep), n - len(keep), 0.0, 1.0
    sub = m[np.ix_(keep, keep)]
    w = np.linalg.eigvalsh((sub + sub.conj().T) / 2)
    # rounding of chi is absolute, so an entry's error grows like 1 / |chi_phi|^2
    scale = n / np.abs(denoms[np.ix_(keep, keep)]).min() ** 2
    return bool(w[0] >= -1e-6 * max(w[-1], 1e-30)), len(keep), n - len(keep), float(w[0]), scale


@settings(max_examples=30, deadline=None)
@given(_spin_kets(), _spin_kets(), st.integers(2, 40), st.integers(0, 10**6), st.sampled_from([1e-8, 0.3]))
# j = 0 alone: M is all ones, and min_eig is eigh's rounding of a zero eigenvalue
@example(SpinKet.from_terms([(0, 0, 1 + 1j)], normalize=True), SpinKet.from_terms([(0, 0, 8 + 1j)], normalize=True), 2, 0, 1e-8)
def test_marvian_test_matches_quaternion_expm_loop(psi, phi, samples, seed, zero_tol):
    # zero_tol = 0.3 drops many samples, so the greedy coverage loss is compared too
    verdict = marvian_necessary_test(psi, phi, samples=samples, seed=seed, zero_tol=zero_tol)
    consistent, used, skipped, min_eig, scale = _marvian_loop(psi, phi, samples, seed, zero_tol)
    assert (verdict.consistent, verdict.used, verdict.skipped) == (consistent, used, skipped)
    # 1e-10, unless small chi_phi amplify the rounding of the entries
    assert abs(verdict.min_eig - min_eig) <= max(1e-10, 1e-13 * scale)
    assert abs(verdict.min_eig - min_eig) <= verdict.min_eig_bound
    assert (verdict.certificate is None) == consistent


@settings(max_examples=30, deadline=None)
@given(_spin_kets(spins=[F(k, 2) for k in range(21)]), st.integers(2, 30), st.integers(0, 10**6))
def test_gram_of_rotated_kets_is_chi_of_pair_products(s, n, seed):
    # D is a representation: <D(u_k) s|D(u_i) s> = chi_s(u_k^dag u_i), for every ordered pair
    u = _spin_half(haar_quaternions(n, seed=seed))
    kets = _rotated(_block_data(s), u)
    gram = kets.conj() @ kets.T
    g = np.einsum("kba,ibc->kiac", u.conj(), u).reshape(-1, 2, 2)
    # u = w + i (x, y, z).sigma, and the rotation vector has angle 2 atan2(|xyz|, w) along xyz
    xyz = np.column_stack([g[:, 0, 1].imag, g[:, 0, 1].real, g[:, 0, 0].imag])
    norm = np.linalg.norm(xyz, axis=1)
    t = 2 * np.arctan2(norm, g[:, 0, 0].real)
    vs = xyz * np.divide(t, norm, out=np.full_like(t, 2.0), where=norm > 0)[:, None]
    assert np.abs(gram - characteristic_values(s, vs).reshape(n, n)).max() <= 1e-12
