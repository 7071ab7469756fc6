import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qgeom import core, entangle
from qgeom.core import PAULI_X, PAULI_Y, PAULI_Z, partial_transpose, tensor
from qgeom.entangle import (
    Graph,
    ProductAnsatz,
    clique_matrix,
    ppt_max,
    ppt_numerical_range,
    qubit_qudit_sep_max,
    seesaw_product_max,
    sep_numerical_range,
)
from qgeom.numrange import jnr_approximate, sphere_directions, support_batch
from conftest import expectation


def bell_projector():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def gellmann_basis(d):
    """Orthonormal (HS) traceless Hermitian basis of su(d), d^2 - 1 matrices."""
    basis = []
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1 / np.sqrt(2)
            basis.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j / np.sqrt(2)
            m[j, i] = 1j / np.sqrt(2)
            basis.append(m)
    for k in range(1, d):
        diag = np.zeros(d)
        diag[:k] = 1.0
        diag[k] = -k
        diag /= np.sqrt(k * (k + 1))
        basis.append(np.diag(diag).astype(complex))
    return basis


def in_ppt_polar(rho, dims, tol):
    """Polar membership: lambda_max(sum_i x_i G~_i) <= 1 + tol.

    The PPT set is polar to the joint numerical range of the generators
    G~_i = -d (G_i (+) G_i^Gamma) on C^2d, where x_i = Tr(rho G_i) are the
    coordinates of rho in the Gell-Mann basis G_i of su(d).
    """
    d = rho.shape[0]
    m = np.zeros((2 * d, 2 * d), dtype=complex)
    for g in gellmann_basis(d):
        x = expectation(g, rho)
        m[:d, :d] -= d * x * g
        m[d:, d:] -= d * x * partial_transpose(g, dims, 0)
    return bool(np.linalg.eigvalsh(m)[-1] <= 1 + tol)


def test_seesaw_product_operator(rng):
    a = core.random_hermitian(2, rng)
    a = a @ a.conj().T  # PSD
    b = core.random_hermitian(3, rng)
    b = b @ b.conj().T
    h = tensor(a, b)
    res = seesaw_product_max(h, (2, 3), restarts=8, seed=3)
    expect = np.linalg.eigvalsh(a)[-1] * np.linalg.eigvalsh(b)[-1]
    assert res.lower == pytest.approx(expect, rel=1e-9)
    assert res.witness.expectation(h) == pytest.approx(res.lower, abs=1e-9)


def test_seesaw_bell():
    res = seesaw_product_max(bell_projector(), (2, 2), restarts=8, seed=0)
    assert res.lower == pytest.approx(0.5, abs=1e-9)


def test_seesaw_tripartite(rng):
    # product operator over three factors
    mats = []
    for d in (2, 2, 2):
        m = core.random_hermitian(d, rng)
        mats.append(m @ m.conj().T)
    h = tensor(*mats)
    res = seesaw_product_max(h, (2, 2, 2), restarts=8, seed=1)
    expect = np.prod([np.linalg.eigvalsh(m)[-1] for m in mats])
    assert res.lower == pytest.approx(expect, rel=1e-8)


def _per_restart_seesaw(h, dims, starts):
    """The see-saw one start at a time: (value, factors) per start."""
    n = len(dims)
    ht = h.reshape(dims + dims)
    out = []
    for factors in starts:
        factors = list(factors)
        prev = val = -np.inf
        for _ in range(entangle.SEESAW_SWEEPS):
            for k in range(n):
                args = [ht, list(range(2 * n))]
                for i, f in enumerate(factors):
                    if i != k:
                        args += [f.conj(), [i], f, [n + i]]
                red = np.einsum(*args, [k, n + k])
                w, v = np.linalg.eigh((red + red.conj().T) / 2)
                factors[k] = v[:, -1]
                val = float(w[-1])
            if val - prev < entangle.SEESAW_TOL:
                break
            prev = val
        out.append((val, factors))
    return out


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([(4,), (2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 4)]),
    st.integers(1, 32),
)
def test_lockstep_seesaw_matches_per_restart_loop(seed, dims, restarts):
    rng = np.random.default_rng(seed)
    h = core.random_hermitian(int(np.prod(dims)), rng)
    draws = np.random.default_rng(seed)
    starts = [[core.random_pure(d, draws) for d in dims] for _ in range(restarts)]
    schmidt = entangle._schmidt_factors(np.linalg.eigh(h)[1][None, :, -1], dims)
    runs = _per_restart_seesaw(h, dims, starts + [[f[0] for f in schmidt]])
    best = max(runs[:-1], key=lambda run: run[0])  # max keeps the first of equal values
    if runs[-1][0] - best[0] > entangle.SEESAW_TOL:
        best = runs[-1]
    res = seesaw_product_max(h, dims, restarts=restarts, seed=seed)
    assert res.lower == pytest.approx(best[0], abs=1e-12)
    for got, want in zip(res.witness.factors, best[1]):
        np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([(4,), (2, 2), (3, 3), (2, 2, 2), (3, 4)]),
    st.integers(1, 32),
    st.integers(1, 5),
)
def test_seesaw_stack_rows_equal_one_row_calls(seed, dims, restarts, rows):
    # every row of a stack rounds as seesaw_product_max does alone
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    hs = np.array([core.random_hermitian(d, rng) for _ in range(rows)])
    lower, sweeps, stopped, *factors = entangle._seesaw_stack(hs, dims, restarts, seed)
    for i, h in enumerate(hs):
        one = seesaw_product_max(h, dims, restarts=restarts, seed=seed)
        assert lower[i] == one.lower
        for got, want in zip(factors, one.witness.factors):
            np.testing.assert_array_equal(got[i], want)
        assert (sweeps[i], stopped[i]) == (one.meta["sweeps"], one.meta["converged"])


@pytest.mark.parametrize("dims, seed", [((2, 2), 456), ((2, 3), 474), ((2, 3), 898)])
def test_schmidt_start_closes_seeded_seesaw_misses(dims, seed):
    # eight random restarts alone stop 0.39, 0.11 and 0.30 below the product maximum here
    h = core.random_hermitian(dims[0] * dims[1], np.random.default_rng(seed))
    res = seesaw_product_max(h, dims, restarts=8, seed=seed)
    assert res.lower >= qubit_qudit_sep_max(h, dims).lower - 1e-9
    assert res.witness.expectation(h) == pytest.approx(res.lower, abs=1e-9)


def test_qubit_qudit_product_degenerate(rng):
    x = core.random_hermitian(3, rng)
    h = tensor(np.eye(2), x)
    b = qubit_qudit_sep_max(h, (2, 3), directions=200)
    lam = np.linalg.eigvalsh(x)[-1]
    assert b.lower == pytest.approx(lam, abs=1e-9)
    assert b.upper == pytest.approx(lam, abs=1e-9)


def test_qubit_qudit_bell_brackets():
    h = bell_projector()
    gaps = []
    for dirs in (100, 400):
        b = qubit_qudit_sep_max(h, (2, 2), directions=dirs)
        assert b.lower <= 0.5 + 1e-9
        assert b.upper >= 0.5 - 1e-9
        # the witness attains the reported lower bound
        assert b.witness.expectation(h) == pytest.approx(b.lower, abs=1e-9)
        gaps.append(b.upper - b.lower)
    assert gaps[1] <= gaps[0] + 1e-9


def test_qubit_qudit_h0_proportional_identity(rng):
    # no identity component on the qubit side: H_0 = 0
    from qgeom.entangle import _pauli_reductions

    bs = [core.random_hermitian(3, rng) for _ in range(3)]
    h = sum(tensor(s, b) for s, b in zip((PAULI_X, PAULI_Y, PAULI_Z), bs))
    hs = _pauli_reductions(h, (2, 3))
    assert np.abs(hs[0]).max() < 1e-12
    full = qubit_qudit_sep_max(h, (2, 3))
    # a sweep on W(H_1, H_2, H_3) alone attains product values, so it stays below
    reduced = 0.5 * np.linalg.norm(support_batch(hs[1:], sphere_directions(3, 500)).points, axis=1).max()
    assert reduced <= full.lower + 1e-12
    assert full.upper - full.lower <= entangle.SEP_TOL


def test_qubit_qudit_sandwiches_seesaw(rng):
    # 50 random qubit-qutrit observables: lower <= see-saw best <= upper
    for _ in range(50):
        h = core.random_hermitian(6, rng)
        b = qubit_qudit_sep_max(h, (2, 3), directions=250)
        ss = seesaw_product_max(h, (2, 3), restarts=12, seed=5)
        assert b.lower <= ss.lower + 1e-8
        assert ss.lower <= b.upper + 1e-8


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3)]))
def test_qubit_qudit_bracket_against_outside_oracles(seed, dims):
    # PPT = SEP on 2x2 and 2x3 (Horodecki), so the certified ppt_max bracket
    # and the branch-and-bound bracket hold the same maximum
    rng = np.random.default_rng(seed)
    h = core.random_hermitian(2 * dims[1], rng)
    b = qubit_qudit_sep_max(h, dims)
    ppt = ppt_max(h, dims)
    assert b.lower <= ppt.upper + 1e-12
    assert ppt.value <= b.upper + 1e-12
    if b.meta["converged"]:
        assert abs(b.lower - ppt.value) <= 2e-9
    assert b.witness.expectation(h) == pytest.approx(b.lower, abs=1e-10)
    assert seesaw_product_max(h, dims, restarts=8, seed=seed).lower <= b.upper + 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("side", [0, 1])
def test_qubit_qudit_local_operators_are_exact(rng, d, side):
    # A (x) 1 and 1 (x) X: the product maximum is the local lambda_max
    local = core.random_hermitian((2, d)[side], rng)
    h = tensor(local, np.eye(d)) if side == 0 else tensor(np.eye(2), local)
    top = np.linalg.eigvalsh(local)[-1]
    b = qubit_qudit_sep_max(h, (2, d))
    assert b.meta["converged"]
    assert b.lower == pytest.approx(top, abs=1e-12)
    assert top - 1e-12 <= b.upper <= top + entangle.SEP_TOL
    assert b.witness.expectation(h) == pytest.approx(top, abs=1e-12)


# (seed, lower, upper, evaluations) of the search that solved every edge
# midpoint of every split, on random_hermitian(6) at (2, 3)
_EVERY_MIDPOINT = [
    (0, 2.976811731299814, 2.9768117316666256, 576),
    (1, 2.256423833777361, 2.256423834472859, 894),
    (2, 3.162272163445495, 3.1622721638030256, 471),
]


@pytest.mark.parametrize("seed,lower,upper,evaluations", _EVERY_MIDPOINT)
def test_qubit_qudit_solves_each_sphere_point_once(monkeypatch, seed, lower, upper, evaluations):
    # neighbouring triangles share edge midpoints; each is solved once and
    # counted once, and the converged bracket does not move.  A kernel row
    # H_0 + r.H gives back its sphere point r by least squares.
    from scipy.spatial import cKDTree

    h = core.random_hermitian(6, np.random.default_rng(seed))
    hs = entangle._pauli_reductions(h, (2, 3))
    basis = np.stack([hs[1:].real, hs[1:].imag], axis=1).reshape(3, -1).T
    solved = []

    def recording(mats):
        rest = (mats - hs[0]).reshape(len(mats), -1)
        solved.extend(np.linalg.lstsq(basis, np.concatenate([rest.real, rest.imag], axis=1).T, rcond=None)[0].T)
        return top_pairs(mats)

    top_pairs = entangle._top_pairs
    monkeypatch.setattr(entangle, "_top_pairs", recording)
    b = qubit_qudit_sep_max(h, (2, 3))
    solved = np.array(solved)
    assert np.abs(np.linalg.norm(solved, axis=1) - 1).max() < 1e-9
    assert not cKDTree(solved).query_pairs(1e-9)
    assert b.meta["converged"] and len(solved) == b.meta["evaluations"] < evaluations
    assert abs(b.lower - lower) <= entangle.SEP_TOL and abs(b.upper - upper) <= entangle.SEP_TOL


@pytest.mark.parametrize("budget", [1, 20])
def test_qubit_qudit_small_budget_still_certifies(rng, budget):
    # the 6 samples of the octahedron always run, and a split reserves 3 of the budget
    h = core.random_hermitian(6, rng)
    b = qubit_qudit_sep_max(h, (2, 3), directions=budget)
    evaluations = {1: 6, 20: 20}[budget]
    assert b.meta == {"method": "bloch-branch-and-bound", "evaluations": evaluations, "converged": False}
    ppt = ppt_max(h, (2, 3))
    assert b.lower <= ppt.upper + 1e-12 and ppt.value <= b.upper + 1e-12
    assert b.witness.expectation(h) == pytest.approx(b.lower, abs=1e-10)


def _bloch_bracket(h, d, budget):
    """qubit_qudit_sep_max at `budget`, checked against f(r) = lambda_max(H_0 + r.H)/2
    on 4000 sphere points, each a product value, so none may exceed upper."""
    b = qubit_qudit_sep_max(h, (2, d), directions=budget)
    red = entangle._pauli_reductions(h, (2, d))
    r = sphere_directions(3, 4000)
    sampled = 0.5 * np.linalg.eigvalsh(red[0] + np.einsum("ni,ijk->njk", r, red[1:]))[:, -1].max()
    assert b.meta["evaluations"] <= max(budget, 6) and max(b.lower, sampled) <= b.upper
    assert b.witness.expectation(h) == pytest.approx(b.lower, abs=1e-10)
    return b


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4), st.sampled_from([6, 40, 300]))
def test_qubit_qudit_bracket_holds_the_sampled_maximum(seed, d, budget):
    _bloch_bracket(core.random_hermitian(2 * d, np.random.default_rng(seed)), d, budget)


@pytest.mark.parametrize("budget", [6, 40, 300])
@pytest.mark.parametrize("case", ["xx+yy", "heisenberg", "a(x)1", "1(x)x"])
def test_qubit_qudit_bracket_holds_continuum_and_local_maxima(rng, case, budget):
    # XX + YY and XX + YY + ZZ attain their product maximum 1 on a circle and on a
    # sphere of product states; A (x) 1 and 1 (x) X attain the local lambda_max
    a, x = core.random_hermitian(2, rng), core.random_hermitian(3, rng)
    h, top = {"xx+yy": (tensor(PAULI_X, PAULI_X) + tensor(PAULI_Y, PAULI_Y), 1.0),
              "heisenberg": (sum(tensor(p, p) for p in (PAULI_X, PAULI_Y, PAULI_Z)), 1.0),
              "a(x)1": (tensor(a, np.eye(3)), np.linalg.eigvalsh(a)[-1]),
              "1(x)x": (tensor(np.eye(2), x), np.linalg.eigvalsh(x)[-1])}[case]
    b = _bloch_bracket(h, len(h) // 2, budget)
    assert b.lower <= top + 1e-12 and top <= b.upper + 1e-12


def test_sep_range_closes_every_bracket_at_the_default_budget():
    # a (2, 3) range whose hardest bracket takes 1235 of the 2048 samples (the
    # median 316): every bracket closes within the fixed budget sep-jnr runs at
    rng = np.random.default_rng(3)
    ops = [core.random_hermitian(6, rng) for _ in range(3)]
    body = sep_numerical_range(ops, (2, 3), sphere_directions(3, 200))
    assert body.meta["converged"] and body.inner_in_outer(tol=1e-9)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3)]), st.sampled_from([40, 300, 4096]))
def test_lockstep_branch_and_bound_matches_one_row_calls(seed, dims, budget):
    # rows retire in different rounds: random, product (a continuum of maxima
    # may run out the budget) and a multiple of the identity (closes at once)
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    hs = [core.random_hermitian(d, rng) for _ in range(4)]
    hs += [tensor(core.random_hermitian(2, rng), core.random_hermitian(dims[1], rng)), 0.5 * np.eye(d)]
    hs = np.array(hs, dtype=complex)
    lower, upper, beta, alpha, evaluations = entangle._qubit_qudit_stack(hs, budget)
    for r, h in enumerate(hs):
        b = qubit_qudit_sep_max(h, dims, directions=budget)
        assert (b.lower, b.upper, b.meta["evaluations"]) == (lower[r], upper[r], evaluations[r])
        np.testing.assert_array_equal(b.witness.factors[0], alpha[r])
        np.testing.assert_array_equal(b.witness.factors[1], beta[r])


def test_sep_range_runs_directions_in_bounded_lockstep_stacks(monkeypatch):
    # two directions per lockstep stack (a direction budgets SEP_BUDGET samples) and small
    # kernel chunks: every row still rounds as its own sep-max, and each offset is that
    # call's certified upper
    ops = [core.random_hermitian(6, np.random.default_rng(k)) for k in range(2)]
    dirs = sphere_directions(2, 5)
    monkeypatch.setattr(core, "STACK_ENTRIES", 2 * -(-entangle.SEP_BUDGET // 36) * 36)
    calls, stacks = [], []
    kernel, lockstep = entangle._top_pairs, entangle._qubit_qudit_stack
    monkeypatch.setattr(entangle, "_top_pairs", lambda mats: calls.append(len(mats)) or kernel(mats))
    monkeypatch.setattr(entangle, "_qubit_qudit_stack", lambda hs, b: stacks.append(len(hs)) or lockstep(hs, b))
    body = sep_numerical_range(ops, (2, 3), dirs)
    assert stacks == [2, 2, 1]
    hs = np.array([sum(c * x for c, x in zip(n, ops)) for n in body.outer_normals])
    runs = [qubit_qudit_sep_max(h, (2, 3)) for h in hs]
    assert body.outer_offsets.tolist() == [b.upper for b in runs]
    # a sample gathers its row's four 3 x 3 reductions
    assert max(calls) <= core.STACK_ENTRIES // (4 * 9)
    assert body.meta == {"outer_rigorous": True, "method": "bloch-branch-and-bound",
                         "evaluations": sum(b.meta["evaluations"] for b in runs), "converged": True}
    for vertex, b in zip(body.inner_vertices, runs):
        v = b.witness.vector()
        assert np.abs(vertex - [np.vdot(v, x @ v).real for x in ops]).max() < 1e-12


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind, dims", [("seesaw", (2, 2, 8)), ("bloch", (2, 16)), ("ppt", (4, 8))])
def test_range_bodies_do_not_depend_on_chunks_or_workers(monkeypatch, kind, dims, workers):
    # a STACK_ENTRIES of two rows' budget cuts the range stack into chunks of one row (two workers)
    # or two rows (one worker), from D = THREAD_MIN_DIM on, where chunks run on threads
    d = int(np.prod(dims))
    assert d >= core.THREAD_MIN_DIM
    ops = [core.random_hermitian(d, np.random.default_rng(k)) for k in range(2)]
    dirs = sphere_directions(2, 5)
    restarts = 2
    per_row = {"seesaw": restarts + 1, "bloch": -(-entangle.SEP_BUDGET // d**2), "ppt": 1}[kind]

    def body():
        if kind == "ppt":
            b = ppt_numerical_range(ops, dims, dirs)
        else:
            b = sep_numerical_range(ops, dims, dirs, restarts=restarts, seed=3)
        return b.outer_offsets.tobytes(), b.inner_vertices.tobytes(), b.meta

    want = body()
    monkeypatch.setattr(core, "cpu_workers", lambda: workers)
    monkeypatch.setattr(core, "STACK_ENTRIES", 2 * per_row * d * d)
    rows = [len(range(5)[c]) for c in core.stack_chunks(len(dirs), d, workers, per_row)]
    assert rows == ([2, 2, 1] if workers == 1 else [1] * 5)
    assert body() == want


def test_sep_range_single_subsystem_equals_jnr(rng):
    ops = [core.random_hermitian(3, rng) for _ in range(2)]
    dirs = sphere_directions(2, 60)
    sep = sep_numerical_range(ops, (3,), dirs)
    jnr = jnr_approximate(ops, dirs)
    assert np.abs(sep.outer_offsets - jnr.outer_offsets).max() < 1e-12


def test_sep_range_embedded_qubit_triple():
    # A_i = 0 (+) sigma_i (+) 0 on two qubits: separable range strictly inside
    ops = []
    for s in (PAULI_X, PAULI_Y, PAULI_Z):
        a = np.zeros((4, 4), dtype=complex)
        a[1:3, 1:3] = s
        ops.append(a)
    dirs = sphere_directions(3, 120)
    sep = sep_numerical_range(ops, (2, 2), dirs)
    jnr = jnr_approximate(ops, dirs)
    assert sep.meta["outer_rigorous"]
    gaps = jnr.outer_offsets - sep.outer_offsets
    assert gaps.min() > -1e-8  # W_SEP inside W
    assert gaps.max() > 0.05  # strictly inside along some direction
    # pointwise containment of separable inner vertices in W's outer set
    s = jnr.outer_normals @ sep.inner_vertices.T - jnr.outer_offsets[:, None]
    assert s.max() < 1e-8


def test_sep_range_heuristic_path_consistent(rng):
    # qutrit-qutrit split: see-saw per direction, outer flagged heuristic
    ops = [core.random_hermitian(9, rng) for _ in range(2)]
    dirs = sphere_directions(2, 16)
    body = sep_numerical_range(ops, (3, 3), dirs, restarts=6, seed=2)
    # the see-saw's work is the sum of the per-direction calls' sweeps
    runs = [seesaw_product_max(n[0] * ops[0] + n[1] * ops[1], (3, 3), restarts=6, seed=2) for n in body.outer_normals]
    assert body.meta == {"outer_rigorous": False, "method": "seesaw", "converged": True,
                         "sweeps": sum(b.meta["sweeps"] for b in runs)}
    assert body.inner_in_outer(tol=1e-9)
    # W_SEP sits inside the full joint numerical range pointwise
    jnr = jnr_approximate(ops, dirs)
    s = jnr.outer_normals @ body.inner_vertices.T - jnr.outer_offsets[:, None]
    assert s.max() < 1e-8


def test_sep_and_ppt_ranges_flag_an_unbounded_outer_set():
    # two directions cannot positively span R^3: the outer set is unbounded, as for jnr
    ops = [core.random_hermitian(4, np.random.default_rng(k)) for k in range(3)]
    for dirs, unbounded in ((sphere_directions(3, 2), True), (sphere_directions(3, 40), False)):
        assert jnr_approximate(ops, dirs).unbounded is unbounded
        assert sep_numerical_range(ops, (2, 2), dirs, restarts=2).unbounded is unbounded
        assert ppt_numerical_range(ops, (2, 2), dirs).unbounded is unbounded


def test_ppt_duality_qubit_qutrit():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rho = core.random_density(6, rng, rank=int(rng.integers(1, 7)))
        is_ppt = np.linalg.eigvalsh(partial_transpose(rho, (2, 3), 0))[0] >= -1e-10
        assert in_ppt_polar(rho, (2, 3), tol=1e-7) == is_ppt


def test_ppt_max_identity():
    res = ppt_max(np.eye(4), (2, 2))
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_ppt_equals_seesaw_two_qubits(rng):
    for k in range(5):
        h = core.random_hermitian(4, rng)
        pv = ppt_max(h, (2, 2)).value
        sv = seesaw_product_max(h, (2, 2), restarts=16, seed=k).lower
        assert abs(pv - sv) < 1e-4


def test_ppt_value_ordering_qutrit_pair(rng):
    v = np.zeros(9, dtype=complex)
    v[0] = v[4] = v[8] = 1 / np.sqrt(3)
    h = np.outer(v, v.conj())
    res = ppt_max(h, (3, 3))
    ss = seesaw_product_max(h, (3, 3), restarts=16, seed=2)
    assert res.value >= ss.lower - 1e-7
    assert res.value <= np.linalg.eigvalsh(h)[-1] + 1e-9
    # the PPT iterate is feasible on both cones
    assert np.linalg.eigvalsh(res.state)[0] > -1e-8
    assert np.linalg.eigvalsh(partial_transpose(res.state, (3, 3), 0))[0] > -1e-8


def test_ppt_range_contains_maximally_mixed(rng):
    ops = [core.random_hermitian(4, rng) for _ in range(2)]
    body = ppt_numerical_range(ops, (2, 2), sphere_directions(2, 24), tol=1e-7)
    center = np.array([expectation(x, np.eye(4) / 4) for x in ops])
    assert body.outer_contains(center, tol=1e-6)
    assert body.inner_in_outer(tol=1e-6)


def test_gellmann_orthonormal():
    basis = gellmann_basis(3)
    assert len(basis) == 8
    for i, a in enumerate(basis):
        assert abs(np.trace(a)) < 1e-12
        for j, b in enumerate(basis):
            ip = np.trace(a.conj().T @ b).real
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3)]), st.data())
def test_ppt_duality_random_states(seed, dims, data):
    # rho is PPT iff it lies in the polar of W(G~), for states of every rank
    d = dims[0] * dims[1]
    rho = core.random_density(d, np.random.default_rng(seed), rank=data.draw(st.integers(1, d)))
    lam = np.linalg.eigvalsh(partial_transpose(rho, dims, 0))[0]
    assume(abs(lam) > 1e-7)
    assert in_ppt_polar(rho, dims, tol=1e-9) == (lam > 0)


def test_ppt_duality_separable_always_inside(rng):
    for _ in range(100):
        ra = core.random_density(2, rng)
        rb = core.random_density(2, rng)
        t = rng.random()
        rho = t * tensor(ra, rb) + (1 - t) * tensor(
            core.random_density(2, rng), core.random_density(2, rng)
        )
        assert in_ppt_polar(rho, (2, 2), tol=1e-8)


def test_ppt_duality_excludes_bell():
    assert not in_ppt_polar(bell_projector(), (2, 2), tol=1e-8)


def test_chain_of_inclusions(rng):
    for _ in range(5):
        h = core.random_hermitian(4, rng)
        ss = seesaw_product_max(h, (2, 2), restarts=16, seed=0).lower
        pv = ppt_max(h, (2, 2)).value
        lam = np.linalg.eigvalsh(h)[-1]
        assert ss <= pv + 1e-5
        assert pv <= lam + 1e-9


def test_clique_matrix_empty_and_validation():
    g = Graph(3, [])
    assert np.abs(clique_matrix(g)).max() == 0.0
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        clique_matrix(Graph(5, []))


def test_clique_matrix_single_edge():
    a = clique_matrix(Graph(2, [(0, 1)]))
    assert a.shape == (4, 4)
    w = np.linalg.eigvalsh(a)
    assert w[0] > -1e-12  # PSD
    assert w[-1] == pytest.approx(1.0)
    res = seesaw_product_max(a, (2, 2), restarts=16, seed=0)
    assert res.lower == pytest.approx(0.5, abs=1e-8)


def test_clique_matrix_triangle():
    a = clique_matrix(Graph(3, [(0, 1), (0, 2), (1, 2)]))
    assert np.abs(a - a.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(a)[0] > -1e-12
    res = seesaw_product_max(a, (3, 3), restarts=32, seed=0)
    assert res.lower == pytest.approx(2 / 3, abs=1e-8)


def test_block_positivity_screening(rng):
    # SWAP is block positive: <ab|SWAP|ab> = |<a|b>|^2 >= 0
    d = 3
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    res = seesaw_product_max(-swap, (d, d), restarts=16, seed=0)
    assert res.lower <= 1e-9
    for _ in range(10000):
        a = core.random_pure(d, rng)
        b = core.random_pure(d, rng)
        v = np.kron(a, b)
        assert np.real(v.conj() @ swap @ v) >= -1e-9


def assert_ppt_state(rho, dims, tol):
    # partial transpose on factor A by its own reshape, not core.partial_transpose
    da, db = dims
    pt = rho.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(rho.shape)
    assert abs(np.trace(rho) - 1) <= tol
    assert np.linalg.eigvalsh(rho)[0] >= -tol
    assert np.linalg.eigvalsh(pt)[0] >= -tol


def test_ppt_max_brackets_the_triangle_clique_value():
    # Friedland-Lim (acceptance c04): the PPT maximum of the triangle clique matrix is 2/3
    tri = clique_matrix(Graph(3, [(0, 1), (0, 2), (1, 2)]))
    res = ppt_max(tri, (3, 3))
    assert res.value <= 2 / 3 <= res.upper
    assert res.converged and res.upper - res.value <= 1e-9
    assert_ppt_state(res.state, (3, 3), 1e-10)


def test_ppt_max_closes_a_direction_that_once_gave_an_infeasible_iterate():
    rng = np.random.default_rng(3)
    for size in (9, 4, 6, 4, 4, 4):
        core.random_hermitian(size, rng)
    triple = [core.random_hermitian(9, rng) for _ in range(3)]
    h = sum(c * x for c, x in zip(sphere_directions(3, 20)[4], triple))
    res = ppt_max(h, (3, 3))
    assert res.converged and res.upper - res.value <= 1e-9
    assert_ppt_state(res.state, (3, 3), 1e-10)
    assert res.value == pytest.approx(np.trace(res.state @ h).real, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 3)]))
@example(seed=898, dims=(2, 3))  # eight random see-saw restarts alone stop 0.3 below the maximum here
@example(seed=816, dims=(2, 3))  # the default budget of 4096 stops 3e-9 short of closing
def test_ppt_max_bracket_against_outside_oracles(seed, dims):
    rng = np.random.default_rng(seed)
    h = core.random_hermitian(dims[0] * dims[1], rng)
    tol = 1e-9
    res = ppt_max(h, dims, tol=tol)
    assert res.value <= res.upper + 1e-12 and res.upper - res.value <= tol
    assert_ppt_state(res.state, dims, 1e-10)
    assert res.value == pytest.approx(np.trace(res.state @ h).real, abs=1e-12)
    assert res.upper <= np.linalg.eigvalsh(h)[-1] + 1e-12
    lower = seesaw_product_max(h, dims, restarts=8, seed=seed).lower
    assert lower <= res.upper + 1e-12
    if dims != (3, 3):
        # PPT = SEP on 2x2 and 2x3 (Horodecki), so the product maximum meets it;
        # the see-saw is a local ascent, so the certified bracket is the oracle
        sep = qubit_qudit_sep_max(h, dims, directions=16384)
        assert sep.lower >= res.value - tol - 1e-9
        assert res.value <= sep.upper + 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("c", [0.0, 2.5, -0.7])
def test_ppt_max_of_a_multiple_of_the_identity_closes_at_once(dims, c):
    d = dims[0] * dims[1]
    res = ppt_max(c * np.eye(d), dims)
    assert res.iterations == 1 and res.converged
    assert res.value == pytest.approx(c, abs=1e-12) and res.upper == pytest.approx(c, abs=1e-12)
    assert_ppt_state(res.state, dims, 1e-10)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_ppt_max_of_a_local_sum_returns_its_product_optimum(rng, dims):
    # the maximum of A (x) 1 + 1 (x) B is lambda_max(A) + lambda_max(B), at the product of the top
    # eigenvectors, which is X's top eigenvector from the first step on: its product rounding closes the
    # bracket on that step with a pure state of Schmidt rank 1
    a, b = (core.random_hermitian(k, rng) for k in dims)
    h = np.kron(a, np.eye(dims[1])) + np.kron(np.eye(dims[0]), b)
    res = ppt_max(h, dims)
    assert res.converged and res.iterations == 1 and res.value <= res.upper
    assert res.value == pytest.approx(np.linalg.eigvalsh(a)[-1] + np.linalg.eigvalsh(b)[-1], abs=1e-9)
    assert res.value == pytest.approx(np.trace(res.state @ h).real, abs=1e-12)
    assert_ppt_state(res.state, dims, 1e-10)
    w, v = np.linalg.eigh(res.state)
    assert w[-1] == pytest.approx(1, abs=1e-12)
    schmidt = np.linalg.svd(v[:, -1].reshape(dims), compute_uv=False)
    assert schmidt[1] <= 1e-12


def test_ppt_max_closes_on_the_entangled_tiles_optimum():
    # Tiles UPB (Bennett et al., PRL 82, 5385 (1999)): no product state is orthogonal to all five tiles, so
    # H = 1 - sum tiles, the projector onto their complement, stays below 1 on product states (0.9716), while
    # its normalised projector is a PPT entangled state with <H> = 1: the X rounding closes the bracket
    e, s2 = np.eye(3), np.sqrt(2)
    tiles = [np.kron(e[0], e[0] - e[1]) / s2, np.kron(e[0] - e[1], e[2]) / s2, np.kron(e[2], e[1] - e[2]) / s2,
             np.kron(e[1] - e[2], e[0]) / s2, np.kron(e.sum(0), e.sum(0)) / 3]
    h = np.eye(9) - sum(np.outer(t, t) for t in tiles)
    res = ppt_max(h, (3, 3))
    assert res.converged and res.value <= res.upper
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert_ppt_state(res.state, (3, 3), 1e-10)
    assert np.linalg.matrix_rank(res.state, tol=1e-8) == 4
    assert seesaw_product_max(h, (3, 3), restarts=16, seed=0).lower < 0.972 < res.value


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3)]), st.floats(0.0, 1.0), st.floats(0.1, 10.0))
def test_ppt_and_bloch_brackets_overlap_where_ppt_is_sep(seed, dims, local, size):
    # PPT = SEP on 2x2 and 2x3 (Horodecki), so two certified solvers bracket one maximum; `local` weights
    # a sum of local terms, whose optimum is a product state, against a generic Hermitian
    rng = np.random.default_rng(seed)
    a, b, g = (core.random_hermitian(k, rng) for k in (2, dims[1], 2 * dims[1]))
    h = size * (local * (np.kron(a, np.eye(dims[1])) + np.kron(np.eye(2), b)) + (1 - local) * g)
    ppt, sep = ppt_max(h, dims), qubit_qudit_sep_max(h, dims)
    assert max(ppt.value, sep.lower) <= min(ppt.upper, sep.upper) + 1e-9


def _project_state(m):
    """Frobenius projection onto {rho >= 0, Tr rho = 1} (eigenvalue simplex), and the top
    eigenvector of m, which is also the projection's."""
    m = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(m)
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(u) + 1)
    k = ks[u - (css - 1) / ks > 0][-1]
    tau = (css[k - 1] - 1) / k
    lam = np.maximum(w - tau, 0)
    return (v * lam) @ v.conj().T, v[:, -1]


def _ppt_max_loop(h, dims, tol, every=1):
    """The ADMM of entangle.ppt_max on one matrix, one step at a time, with the rounding,
    the dual bound and the stop test on step 1, every `every`-th step after it and the
    last: (value, upper, iterations, state), RuntimeError if the state fails its checks."""
    d = h.shape[0]

    def bound(w):
        return w[-1] + core.ROUNDING * d * max(-w[0], w[-1])

    w = np.linalg.eigvalsh(h)
    scale = max(-w[0], w[-1]) or 1.0
    mixed = np.eye(d, dtype=complex) / d
    z, u, beta = mixed, np.zeros_like(mixed), 1.0
    value, upper, rho = -np.inf, bound(w), mixed
    for it in range(1, entangle.PPT_MAX_ITER + 1):
        check = (it - 1) % every == 0 or it == entangle.PPT_MAX_ITER
        x, top = _project_state(z - u + h / (scale * beta))
        if check:
            # two roundings: X mixed with 1/d until X^G >= 0, and the top Schmidt term of X's top eigenvector
            m = np.linalg.eigvalsh(partial_transpose(x, dims, 0))[0]
            t = -m / (1 / d - m) if m < 0 else 0.0
            cand = (1 - t) * x + t * mixed
            v = expectation(h, cand)
            a, _, b = np.linalg.svd(top.reshape(dims))
            ab = np.kron(a[:, 0], b[0])
            if (vp := (ab.conj() @ h @ ab).real) > v:
                v, cand = vp, np.outer(ab, ab.conj())
            if v > value:
                value, rho = v, cand
        wt, vt = np.linalg.eigh(partial_transpose(x + u, dims, 0))
        z_prev = z
        z = partial_transpose((vt * np.maximum(wt, 0)) @ vt.conj().T, dims, 0)
        u = partial_transpose((vt * np.minimum(wt, 0)) @ vt.conj().T, dims, 0)
        if check:
            upper = min(upper, bound(np.linalg.eigvalsh(h - beta * scale * u)))
            if upper - value <= tol:
                break
        r, s = np.linalg.norm(x - z), beta * np.linalg.norm(z - z_prev)
        if r > 10 * s:
            beta, u = 2 * beta, u / 2
        elif s > 10 * r:
            beta, u = beta / 2, 2 * u
    w_rho = np.linalg.eigvalsh(rho)
    w_ppt = np.linalg.eigvalsh(partial_transpose(rho, dims, 0))
    trace = np.trace(rho).real
    if w_rho[0] < -1e-8 or w_ppt[0] < -1e-8 or abs(trace - 1) > 1e-8:
        raise RuntimeError(f"PPT iterate is not a state (trace {trace:.12g})")
    return value, upper, it, rho


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 3)]))
def test_stacked_ppt_max_matches_per_direction_loop(seed, dims):
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    triple = [core.random_hermitian(d, rng) for _ in range(3)]
    hs = np.array([sum(c * x for c, x in zip(n, triple)) for n in sphere_directions(3, 12, seed=seed)])
    tol = 1e-8
    upper, states, value, iterations = entangle._ppt_max_stack(hs, dims, tol)
    for i, h in enumerate(hs):
        want_value, want_upper, want_iterations, _ = _ppt_max_loop(h, dims, tol, every=entangle.PPT_CHECK_EVERY)
        scale = np.abs(np.linalg.eigvalsh(h)).max()
        assert iterations[i] == want_iterations
        assert abs(upper[i] - want_upper) <= 1e-14 * scale
        assert abs(value[i] - want_value) <= 1e-14 * scale
        assert value[i] <= upper[i]
        assert_ppt_state(states[i], dims, 1e-8)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 2), (2, 3), (3, 3)]))
def test_strided_ppt_max_brackets_overlap_the_per_step_loop(seed, dims):
    # the stop test every PPT_CHECK_EVERY steps against the per-step test it replaced: the iterates
    # agree until a row stops, so the strided row stops no earlier, and both brackets hold the maximum
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    triple = [core.random_hermitian(d, rng) for _ in range(3)]
    hs = np.array([sum(c * x for c, x in zip(n, triple)) for n in sphere_directions(3, 6, seed=seed)])
    tol = 1e-8
    upper, _, value, iterations = entangle._ppt_max_stack(hs, dims, tol)
    for i, h in enumerate(hs):
        step_value, step_upper, step_iterations, _ = _ppt_max_loop(h, dims, tol)
        assert iterations[i] >= step_iterations
        assert upper[i] - value[i] <= tol and step_upper - step_value <= tol
        assert max(value[i], step_value) <= min(upper[i], step_upper) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.lists(st.integers(1, 4), min_size=1, max_size=4), st.data())
def test_reduced_operator_matches_dense_contraction(seed, dims, data):
    rng = np.random.default_rng(seed)
    dims = tuple(dims)
    h = core.random_hermitian(int(np.prod(dims)), rng)
    rows = data.draw(st.integers(1, 4))
    factors = [np.array([core.random_pure(d, rng) for _ in range(rows)]) for d in dims]
    k = data.draw(st.integers(0, len(dims) - 1))
    red = entangle._reduced_operator(np.broadcast_to(h.reshape(dims + dims), (rows,) + dims * 2), dims, factors, k)
    assert red.shape == (rows, dims[k], dims[k])
    for r in range(rows):
        # <others|: the product of the other factors' columns with the identity on k
        others = tensor(*[np.eye(d) if i == k else f[r][:, None] for i, (d, f) in enumerate(zip(dims, factors))])
        np.testing.assert_allclose(red[r], others.conj().T @ h @ others, atol=1e-12)
