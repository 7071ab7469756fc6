import os
import signal
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from qgeom import core, numrange
from qgeom.core import PAULI_X, PAULI_Y, PAULI_Z
from qgeom.numrange import (
    CANDIDATE_GAP,
    CommonEigenvectorError,
    DegenerateTripleError,
    _polish_flat_directions,
    _positively_spanning,
    classify_qutrit_jnr,
    jnr_approximate,
    one_shot_distinguishable,
    sphere_directions,
    support_batch,
    unit,
)

PAULI3 = [PAULI_X, PAULI_Y, PAULI_Z]


def _sym(a, b):
    m = np.zeros((3, 3), dtype=complex)
    m[a, b] = m[b, a] = 1.0
    return m


def test_support_pauli_triple(rng):
    for _ in range(5):
        n = unit(rng.normal(size=3))
        s = support_batch(PAULI3, [n])
        assert s.values[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(s.points[0] - n).max() < 1e-9


def test_support_single_operator_interval(rng):
    x = core.random_hermitian(5, rng)
    w = np.linalg.eigvalsh(x)
    assert support_batch([x], [1.0]).values[0] == pytest.approx(w[-1])
    assert -support_batch([x], [-1.0]).values[0] == pytest.approx(w[0])


def test_support_commuting_diagonals():
    x = np.diag([1.0, 2.0, 5.0])
    y = np.diag([3.0, -1.0, 0.0])
    s = support_batch([x, y], [unit([2.0, 1.0])])
    # joint eigenvalue pairs: (1,3), (2,-1), (5,0); direction picks (5,0)
    assert np.abs(s.points[0] - [5.0, 0.0]).max() < 1e-9


def test_support_dimension_mismatch():
    with pytest.raises(ValueError):
        support_batch([PAULI_X, np.eye(3)], [[1, 0]])
    with pytest.raises(ValueError):
        support_batch(PAULI3, [[1, 0]])


def test_jnr_pauli_ball():
    dirs = sphere_directions(3, 1000)
    body = jnr_approximate(PAULI3, dirs)
    assert body.inner_in_outer()
    assert not body.unbounded
    norms = np.linalg.norm(body.inner_vertices, axis=1)
    assert norms.max() < 1 + 1e-9
    # inner hull reaches within 0.01 of the sphere everywhere
    probes = sphere_directions(3, 3000)
    h_inner = (body.inner_vertices @ probes.T).max(axis=0)
    assert (1 - h_inner).max() < 0.01


def test_jnr_commuting_diagonals_hull():
    x = np.diag([1.0, 2.0, 5.0])
    y = np.diag([3.0, -1.0, 0.0])
    body = jnr_approximate([x, y], sphere_directions(2, 120))
    eigpts = np.array([[1, 3], [2, -1], [5, 0]], dtype=float)
    # every inner vertex is a convex combination of the joint eigenvalues
    for p in body.inner_vertices:
        dists = np.linalg.norm(eigpts - p, axis=1)
        # barycentric solve
        m = np.vstack([eigpts.T, np.ones(3)])
        lam, *_ = np.linalg.lstsq(m, np.array([p[0], p[1], 1.0]), rcond=None)
        assert lam.min() > -1e-8
    # each extreme joint eigenvalue appears among the inner vertices
    for ep in eigpts:
        assert np.linalg.norm(body.inner_vertices - ep, axis=1).min() < 1e-9


def test_antipodal_support_states_orthogonal(rng):
    for _ in range(5):
        ops = [core.random_hermitian(4, rng) for _ in range(3)]
        n = unit(rng.normal(size=3))
        s = support_batch(ops, [n, -n])
        if s.degenerate.any():
            continue
        assert abs(np.vdot(s.witnesses[0], s.witnesses[1])) ** 2 < 1e-9


def test_face_enrichment_solves_each_direction_once(monkeypatch):
    # W(X, Y) is the triangle (0, 0), (1, 1), (1, -1); its edges are the faces
    # at 0, 135 and -135 degrees, where the top eigenvalue is doubly degenerate
    x = np.diag([1.0, 1.0, 0.0])
    y = _sym(0, 1)
    calls = []
    kernel = numrange._top_pairs
    monkeypatch.setattr(numrange, "_top_pairs", lambda mats: calls.append(mats.shape) or kernel(mats))
    body = jnr_approximate([x, y], sphere_directions(2, 8))
    # one sweep, then one sweep of each degenerate face (its reduced operators)
    assert calls == [(8, 3, 3)] + [(numrange.FACE_DIRS, 2, 2)] * 3
    assert body.meta == {"method": "support-sweep", "faces": 3}
    for corner in ([1.0, 1.0], [1.0, -1.0]):
        assert np.linalg.norm(body.inner_vertices - corner, axis=1).min() < 1e-9


def test_unbounded_flag():
    # only "up" directions: outer set is an unbounded slab
    dirs = np.array([[1.0, 0.0], [0.8, 0.6], [0.8, -0.6]])
    body = jnr_approximate([PAULI_X, PAULI_Z], dirs)
    assert body.unbounded
    # {x <= 1, -x <= 1, z <= 1} recedes along -z, where n.u = 0 for the first two
    assert jnr_approximate([PAULI_X, PAULI_Z], [[1, 0], [-1, 0], [0, 1]]).unbounded
    slab = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]]
    assert jnr_approximate(PAULI3, slab).unbounded
    assert not _positively_spanning(np.array([[1.0, 0.0], [-1.0, 0.0]]))  # rank 1 < 2
    assert not jnr_approximate([PAULI_X, PAULI_Z], sphere_directions(2, 12)).unbounded
    assert not jnr_approximate(PAULI3, sphere_directions(3, 40)).unbounded


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 23), min_size=1, max_size=8))
def test_positively_spanning_in_the_plane_matches_angular_gaps(steps):
    # angles on a 24-step grid, rounded so that opposite normals cancel exactly;
    # the normals positively span R^2 iff every angular gap between them is below pi
    th = 2 * np.pi * np.array(steps) / 24
    normals = np.round(np.column_stack([np.cos(th), np.sin(th)]), 12)
    s = np.unique(steps)
    gaps = np.diff(np.append(s, s[0] + 24))
    assert _positively_spanning(normals) == bool(gaps.max() < 12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3).filter(any), min_size=1, max_size=8))
def test_positively_spanning_in_space_matches_the_hull(rows):
    # the normals positively span R^3 iff 0 lies strictly inside their convex hull
    normals = np.array(rows, dtype=float)
    try:
        inside = bool(np.all(ConvexHull(normals).equations[:, -1] < -1e-9))
    except QhullError:  # fewer than four affinely independent normals: a flat hull
        inside = False
    assert _positively_spanning(normals) == inside


def _linprog_spanning(normals):
    """The LP that decided every set before the k + 1 normal certificate."""
    k = normals.shape[1]
    if len(normals) < k + 1 or np.linalg.matrix_rank(normals) < k:
        return False
    res = linprog(np.zeros(len(normals)), A_eq=normals.T, b_eq=np.zeros(k), bounds=[(1, None)] * len(normals),
                  method="highs")
    return res.success


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(1, 60), st.floats(0.0, 1.0), st.integers(0, 10**6))
def test_positively_spanning_matches_linprog_on_random_normals(k, m, crowd, seed):
    # crowd > 0 pushes the normals toward the half-space n_0 >= 0, where spanning fails or holds narrowly
    normals = np.random.default_rng(seed).normal(size=(m, k))
    normals[:, 0] = (1 - crowd) * normals[:, 0] + crowd * (np.abs(normals[:, 0]) - 0.05)
    assert _positively_spanning(normals) == _linprog_spanning(normals)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_sphere_directions_span_without_linprog(monkeypatch, k):
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **kw: pytest.fail("linprog called"))
    assert _positively_spanning(sphere_directions(k, 2000))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_support_sublinear(seed):
    rng = np.random.default_rng(seed)
    ops = [core.random_hermitian(4, rng) for _ in range(3)]
    n1 = rng.normal(size=3)
    n2 = rng.normal(size=3)

    def h(n):
        m = sum(ni * xi for ni, xi in zip(n, ops))
        return np.linalg.eigvalsh(m)[-1]

    assert h(n1 + n2) <= h(n1) + h(n2) + 1e-10


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_translation_covariance(seed):
    rng = np.random.default_rng(seed)
    ops = [core.random_hermitian(3, rng) for _ in range(2)]
    c = float(rng.normal())
    n = unit(rng.normal(size=2))
    s0 = support_batch(ops, [n])
    s1 = support_batch([ops[0] + c * np.eye(3), ops[1]], [n])
    assert np.abs(s1.points[0] - (s0.points[0] + np.array([c, 0.0]))).max() < 1e-8


def spectrahedron_contains(center, gens, y, tol=1e-9):
    """Membership y in Spec(center; gens): lambda_min(center + sum y_i G_i) >= -tol."""
    m = core.as_hermitian(center).astype(complex)
    for yi, g in zip(np.asarray(y, dtype=float), gens):
        m = m + yi * core.as_hermitian(g)
    return bool(np.linalg.eigvalsh(m)[0] >= -tol)


def test_spectrahedron_trivial():
    assert spectrahedron_contains(np.eye(3), [_sym(0, 1)], [0.0])


def test_spectrahedron_elliptope():
    gens = [_sym(0, 1), _sym(0, 2), _sym(1, 2)]
    eye = np.eye(3)
    assert spectrahedron_contains(eye, gens, [1, 1, 1])  # vertex
    assert spectrahedron_contains(eye, gens, [1, -1, -1])  # another vertex
    assert not spectrahedron_contains(eye, gens, [1, 1, -1])  # det = -4, outside
    assert not spectrahedron_contains(eye, gens, [1.1, 1.1, 1.1])
    assert spectrahedron_contains(eye, gens, [0, 0, 0])


def test_spectrahedron_polar_duality_sampled(rng):
    # y in Spec(1; -X) iff h_W(y) <= 1
    ops = [core.random_hermitian(3, rng) for _ in range(3)]
    for _ in range(40):
        y = rng.normal(size=3)
        h = np.linalg.eigvalsh(sum(yi * xi for yi, xi in zip(y, ops)))[-1]
        member = spectrahedron_contains(np.eye(3), [-x for x in ops], y, tol=1e-12)
        assert member == (h <= 1 + 1e-12)


def test_polar_pairing(rng):
    # boundary of W and boundary of the polar spectrahedron pair to x.y = 1
    ops = [core.random_hermitian(3, rng) + 2.2 * np.eye(3) for _ in range(2)]
    # shift so that 0 is interior to W (expectations strictly positive works)
    for _ in range(25):
        n = unit(rng.normal(size=2))
        s = support_batch(ops, [n])
        if s.degenerate[0] or s.values[0] <= 1e-6:
            continue
        y = n / s.values[0]  # boundary point of the polar spectrahedron
        assert abs(s.points[0] @ y - 1.0) < 1e-6


def test_classify_refuses_commuting():
    with pytest.raises(CommonEigenvectorError):
        classify_qutrit_jnr(np.diag([1.0, 2, 3]), np.diag([2.0, 1, 5]), np.diag([0.0, 1, -1]))


def test_classify_refuses_linearly_dependent():
    x = _sym(0, 1)
    with pytest.raises(DegenerateTripleError):
        classify_qutrit_jnr(x, 2 * x + np.eye(3), _sym(0, 2))


def test_classify_elliptope_polar_four_ellipses():
    cls = classify_qutrit_jnr(-_sym(0, 1), -_sym(0, 2), -_sym(1, 2))
    assert (cls.e, cls.s) == (4, 0)
    assert all(f.gap < 1e-8 for f in cls.faces)


def test_classify_elliptope_margin_outside_faces():
    # every candidate merges into one of the four faces; the margin is the
    # smallest gap among the directions that were no candidates
    ops = [-_sym(0, 1), -_sym(0, 2), -_sym(1, 2)]
    cls = classify_qutrit_jnr(*ops)
    gaps = support_batch(ops, sphere_directions(3, 2000)).gaps
    assert gaps.min() < CANDIDATE_GAP
    assert cls.min_unpolished_gap == gaps[gaps > CANDIDATE_GAP].min()


def _segment_triple():
    # x3 has the top eigenspace span(e0, e1), where x1 and x2 both compress to multiples of sigma_x
    x2 = np.array([[0, 2, 0], [2, 0, 1], [0, 1, 5]], dtype=complex)
    return [_sym(0, 1), x2, np.diag([1.0, 1.0, 0.0]).astype(complex)]


def test_classify_segment_triple():
    cls = classify_qutrit_jnr(*_segment_triple())
    assert cls.s == 1
    assert cls.e <= 2


def test_flat_polish_keeps_an_exact_segment_normal():
    # at a segment's normal B has rank 1: its null space is a plane, and its last singular vector
    # may point off the face, so a row below FLAT_GAP takes a step only if it lowers the gap
    normals, gaps, _ = _polish_flat_directions(_segment_triple(), np.eye(3)[2:])
    assert np.array_equal(normals, np.eye(3)[2:]) and gaps[0] == 0.0


def test_flat_polish_drops_rows_that_stopped_moving(monkeypatch):
    # no flat face: every candidate stays above FLAT_GAP and stops once its step is below rounding
    rng = np.random.default_rng([7, 1, 1])
    ops = [core.random_hermitian(3, rng) for _ in range(3)]
    steps = []
    top_pair = numrange._top_pair

    def counting(ops, n):
        steps.append(len(n))
        return top_pair(ops, n)

    monkeypatch.setattr(numrange, "_top_pair", counting)
    runs = {}
    for tol in (numrange.POLISH_STEP_TOL, 0.0):
        monkeypatch.setattr(numrange, "POLISH_STEP_TOL", tol)
        steps.clear()
        runs[tol] = classify_qutrit_jnr(*ops), len(steps) - 1
    (cls, n_steps), (full, full_steps) = runs.values()
    assert cls == full and not cls.faces and cls.min_unpolished_gap is not None
    assert full_steps == numrange.POLISH_MAXITER and n_steps <= 12


def test_classify_random_constraints(rng):
    for _ in range(10):
        ops = [core.random_hermitian(3, rng) for _ in range(3)]
        cls = classify_qutrit_jnr(*ops, sweep=800)
        assert cls.s <= 1
        assert cls.e <= 4
        if cls.s == 1:
            assert cls.e <= 2


def test_one_shot_same_unitary():
    u = core.random_unitary(3, np.random.default_rng(5))
    ok, _ = one_shot_distinguishable(u, u)
    assert not ok


def test_one_shot_identity_vs_z():
    ok, psi = one_shot_distinguishable(np.eye(2), PAULI_Z)
    assert ok
    assert abs(psi.conj() @ PAULI_Z @ psi) < 1e-9
    # the witness is |+>-like: equal weights on both eigenvectors
    assert abs(abs(psi[0]) - abs(psi[1])) < 1e-9


def test_one_shot_small_arc():
    v = np.diag([1.0, np.exp(1j * np.pi / 100)])
    ok, n = one_shot_distinguishable(np.eye(2), v)
    assert not ok
    # returned separating direction actually separates
    lam = np.array([1.0, np.exp(1j * np.pi / 100)])
    pts = np.stack([lam.real, lam.imag], axis=1)
    assert (pts @ n).min() > 0


def test_one_shot_rejects_non_unitary():
    with pytest.raises(ValueError):
        one_shot_distinguishable(np.eye(2) * 2, np.eye(2))


def test_one_shot_random_consistency(rng):
    for _ in range(10):
        u = core.random_unitary(4, rng)
        v = core.random_unitary(4, rng)
        ok, wit = one_shot_distinguishable(u, v)
        m = u.conj().T @ v
        if ok:
            assert abs(wit.conj() @ m @ wit) < 1e-8
        else:
            lam = np.linalg.eigvals(m)
            pts = np.stack([lam.real, lam.imag], axis=1)
            assert (pts @ wit).min() > -1e-9


def _zero_in_hull_lp(lam):
    """Reference verdict: some convex weights w give sum w_i lambda_i = 0 (a feasibility LP)."""
    a_eq = np.stack([lam.real, lam.imag, np.ones(len(lam))])
    res = linprog(np.zeros(len(lam)), A_eq=a_eq, b_eq=[0.0, 0.0, 1.0], bounds=[(0, None)] * len(lam), method="highs")
    return res.status == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6), st.sampled_from(["haar", "narrow-arc", "wide-arc"]))
def test_one_shot_matches_the_hull_lp(seed, d, kind):
    rng = np.random.default_rng(seed)
    u = core.random_unitary(d, rng)
    if kind == "haar":
        v = core.random_unitary(d, rng)
    else:
        # spectrum of U^dag V in an arc of width 0.5 pi - 0.95 pi or 1.05 pi - 1.5 pi, ends included
        width = np.pi * (rng.uniform(0.5, 0.95) if kind == "narrow-arc" else rng.uniform(1.05, 1.5))
        theta = rng.uniform(0, 2 * np.pi) + np.concatenate([[0.0, width], rng.uniform(0, width, d)])[:d]
        w = core.random_unitary(d, rng)
        v = u @ w @ np.diag(np.exp(1j * theta)) @ w.conj().T
    m = u.conj().T @ v
    lam = np.linalg.eigvals(m)
    ok, wit = one_shot_distinguishable(u, v)
    assert ok == _zero_in_hull_lp(lam)
    if ok:
        assert abs(np.linalg.norm(wit) - 1) < 1e-12
        assert abs(wit.conj() @ m @ wit) < 1e-12
    else:
        assert abs(np.linalg.norm(wit) - 1) < 1e-12
        assert (np.stack([lam.real, lam.imag], axis=1) @ wit).min() > 0


def _sweep_at(workers, ops, dirs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "cpu_workers", lambda: workers)
        return support_batch(ops, dirs)


@settings(max_examples=12, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([32, 48, 64, 80]),
    st.sampled_from([2, 3]),
    st.integers(1, 3),
    st.integers(-1, 1),
    st.booleans(),
)
def test_threaded_support_batch_is_bit_identical_to_serial(seed, d, workers, chunks, edge, degenerate):
    # row counts one short of, at and one past the edge of `chunks` threaded chunks; degenerate operators
    # (A (x) 1_2) make every row an eigh row with a face
    rng = np.random.default_rng(seed)
    if degenerate:
        ops = [np.kron(core.random_hermitian(d // 2, rng), np.eye(2)) for _ in range(3)]
    else:
        ops = [core.random_hermitian(d, rng) for _ in range(3)]
    rows = max(1, chunks * (core.STACK_ENTRIES // workers // (d * d)) + edge)
    dirs = rng.normal(size=(rows, 3))
    serial, threaded = _sweep_at(1, ops, dirs), _sweep_at(workers, ops, dirs)
    for name in ("directions", "values", "points", "witnesses", "gaps"):
        np.testing.assert_array_equal(getattr(threaded, name), getattr(serial, name))
    assert list(threaded.faces) == list(serial.faces) == (list(range(rows)) if degenerate else [])
    for r, basis in serial.faces.items():
        np.testing.assert_array_equal(threaded.faces[r], basis)


def test_forked_child_runs_a_threaded_sweep(monkeypatch):
    # the parent's pool threads do not survive fork; the child must start its own instead of waiting on them
    monkeypatch.setattr(core, "cpu_workers", lambda: 2)
    rng = np.random.default_rng(5)
    ops = [core.random_hermitian(32, rng) for _ in range(3)]
    dirs = sphere_directions(3, 300)
    values = support_batch(ops, dirs).values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork() of a process with threads
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(support_batch(ops, dirs).values, values) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its threaded sweep within 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_concurrent_callers_share_the_pool_under_fast_switching(monkeypatch):
    # more workers than CPUs, eight callers at once and a switch interval of 1 us: a lost or misplaced
    # chunk write would show in some caller's arrays
    monkeypatch.setattr(core, "cpu_workers", lambda: 3)
    rng = np.random.default_rng(8)
    ops = [core.random_hermitian(32, rng) for _ in range(3)]
    dirs = rng.normal(size=(400, 3))
    serial = _sweep_at(1, ops, dirs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as callers:
            sweeps = list(callers.map(lambda _: support_batch(ops, dirs), range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for sweep in sweeps:
        for name in ("values", "points", "witnesses", "gaps"):
            np.testing.assert_array_equal(getattr(sweep, name), getattr(serial, name))
