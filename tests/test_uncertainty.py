from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag
from scipy.optimize import minimize

from qgeom import core, uncertainty
from qgeom.core import PAULI_X, PAULI_Z, spin_operators
from qgeom.numrange import jnr_approximate, sphere_directions, support_batch
from qgeom.uncertainty import min_sum_variances
from conftest import expectation

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def variance(x, rho):
    """<X^2> - <X>^2 over rho, clipped at zero against rounding."""
    x = core.as_hermitian(x)
    rho = np.asarray(rho, dtype=complex)
    v = expectation(x @ x, rho) - expectation(x, rho) ** 2
    if v < -1e-12:
        raise ValueError(f"variance evaluated to {v}")
    return max(v, 0.0)


def paraboloid_certificate(x, y, bound, directions=None):
    """Tangency check of the bound against W(X, Y, X^2 + Y^2).

    Over sampled boundary states, <X^2 + Y^2> - <X>^2 - <Y>^2 must stay
    above the bound, and the certificate state must attain it.
    """
    x = core.as_hermitian(x)
    y = core.as_hermitian(y)
    if directions is None:
        directions = sphere_directions(3, 600)
    p = support_batch([x, y, x @ x + y @ y], directions).points
    if (p[:, 2] - p[:, 0] ** 2 - p[:, 1] ** 2).min() < bound.value - 1e-6:
        return False
    attained = variance(x, bound.certificate_state) + variance(y, bound.certificate_state)
    return bool(abs(attained - bound.value) <= 1e-6)


def sector_bound_operator(x, a, b):
    """A_(a,b) = X^2 - (a+b) X + ab; <A> <= Delta^2 X whenever a <= <X> <= b."""
    if a > b:
        raise ValueError(f"sector requires a <= b, got ({a}, {b})")
    x = core.as_hermitian(x)
    return x @ x - (a + b) * x + a * b * np.eye(x.shape[0])


def default_partition(x, tol):
    """Breakpoints: the eigenvalues of X, midpoint-refined until the sector
    error (max width / 2)^2 is at most tol."""
    bp = np.unique(np.round(np.linalg.eigvalsh(core.as_hermitian(x)), 12))
    if len(bp) == 1:
        bp = bp[0] + np.array([-1e-8, 0.0, 1e-8])
    while sector_error(bp) > tol:
        bp = np.sort(np.concatenate([bp, (bp[:-1] + bp[1:]) / 2]))
    return bp


def sector_error(bp):
    return float((np.diff(bp).max() / 2) ** 2)


def sector_ranges(x, y, px, py):
    """W(A_X, A_Y) for every pair of sectors of the breakpoints px, py."""
    xs = [sector_bound_operator(x, a, b) for a, b in zip(px[:-1], px[1:])]
    ys = [sector_bound_operator(y, a, b) for a, b in zip(py[:-1], py[1:])]
    return [jnr_approximate([xi, yj], sphere_directions(2, 180)) for xi in xs for yj in ys]


def in_padded_cover(bodies, px, py, points, tol):
    """Per (Delta^2 X, Delta^2 Y) point: membership in the union of the sector
    ranges, each padded by the Minkowski rectangle [0, delta_X] x [0, delta_Y]
    through its outer half-spaces, h_{W + R}(n) = h_W(n) + h_R(n)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    inside = np.zeros(len(pts), dtype=bool)
    dx, dy = sector_error(px), sector_error(py)
    for body in bodies:
        n = body.outer_normals
        pad = dx * np.clip(n[:, 0], 0, None) + dy * np.clip(n[:, 1], 0, None)
        inside |= np.all(pts @ n.T <= body.outer_offsets + pad + tol, axis=1)
    return inside


def test_variance_eigenstate_zero():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert variance(PAULI_Z, rho) == 0.0


def test_variance_plus_state():
    assert variance(PAULI_Z, PLUS) == pytest.approx(1.0)


def test_variance_maximally_mixed():
    assert variance(PAULI_Z, np.eye(2) / 2) == pytest.approx(1.0)


def test_min_sum_common_eigenvector():
    b = min_sum_variances(PAULI_Z, PAULI_Z)
    assert b.value == pytest.approx(0.0, abs=1e-10)


def test_min_sum_spin_half_and_one():
    jx, jy, _ = spin_operators(0.5)
    assert min_sum_variances(jx, jy).value == pytest.approx(0.25, abs=1e-9)
    jx, jy, _ = spin_operators(1)
    assert min_sum_variances(jx, jy).value == pytest.approx(7 / 16, abs=1e-9)


def test_min_sum_symmetric_and_shift_invariant(rng):
    x = core.random_hermitian(3, rng)
    y = core.random_hermitian(3, rng)
    v1 = min_sum_variances(x, y).value
    v2 = min_sum_variances(y, x).value
    assert abs(v1 - v2) < 1e-9
    v3 = min_sum_variances(x + 1.7 * np.eye(3), y).value
    assert abs(v1 - v3) < 1e-9
    # turning a spin pair about J_Z and shifting it leaves every Var X + Var Y, and so the
    # minimum, unchanged; the pair stays rotation-symmetric about its new centre
    for j in (F(1, 2), 1, F(5, 2)):
        jx, jy, _ = spin_operators(j)
        plain = min_sum_variances(jx, jy).value
        for theta, a, b in [(0.7, 0.3, -1.1), (2.9, -2.5, 0.4), (-1.3, 0.0, 3.0)]:
            c, s, eye = np.cos(theta), np.sin(theta), np.eye(len(jx))
            bound = min_sum_variances(c * jx + s * jy + a * eye, -s * jx + c * jy + b * eye)
            assert abs(bound.value - plain) <= 1e-10
            assert bound.meta["method"] == "radial" and bound.meta["converged"]
    # a reducible pair, J(1/2) + J(1), is rotation-symmetric too; its minimum is spin 1/2's
    blocks = [spin_operators(F(1, 2)), spin_operators(1)]
    bound = min_sum_variances(*(block_diag(blocks[0][k], blocks[1][k]) for k in (0, 1)))
    assert bound.meta["method"] == "radial" and bound.meta["converged"]
    assert abs(bound.value - 0.25) <= 1e-10
    # 1e-3 off the spin-1 pair the circle of minimisers breaks, and the triangles close it
    jx, jy, _ = spin_operators(1)
    bound = min_sum_variances(jx, 1.001 * jy)
    assert bound.meta["method"] == "planar" and bound.meta["converged"]
    assert bound.value - bound.sector_bound <= 1e-11 * max(1.0, bound.value)


def test_min_sum_certificate_self_consistent():
    jx, jy, _ = spin_operators(1)
    b = min_sum_variances(jx, jy)
    # equality condition: the certificate's expectations equal the minimizer
    ex = expectation(jx, b.certificate_state)
    ey = expectation(jy, b.certificate_state)
    assert abs(ex - b.minimizer[0]) < 1e-6
    assert abs(ey - b.minimizer[1]) < 1e-6
    attained = variance(jx, b.certificate_state) + variance(jy, b.certificate_state)
    assert attained >= b.value - 1e-6


def test_sector_operator_eigenvalue_point():
    x = np.diag([1.0, 3.0]).astype(complex)
    a = sector_bound_operator(x, 1.0, 1.0)
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert expectation(a, rho) == pytest.approx(0.0)


def test_sector_operator_qubit_full_range():
    # A_(-1,1) on sigma_z vanishes identically; the bound 0 <= Delta^2 holds
    a = sector_bound_operator(PAULI_Z, -1.0, 1.0)
    assert np.abs(a).max() == 0.0
    assert expectation(a, PLUS) <= variance(PAULI_Z, PLUS)
    # equality is attained when <X> sits on a sector endpoint
    a01 = sector_bound_operator(PAULI_Z, 0.0, 1.0)
    assert expectation(a01, PLUS) == pytest.approx(variance(PAULI_Z, PLUS))


def test_sector_operator_bound_holds_inside(rng):
    x = core.random_hermitian(3, rng)
    w = np.linalg.eigvalsh(x)
    a, b = w[0], w[-1]
    op = sector_bound_operator(x, a, b)
    for _ in range(50):
        rho = core.random_density(3, rng)
        assert expectation(op, rho) <= variance(x, rho) + 1e-10


def test_sector_operator_violated_outside_precondition():
    # a state with <X> outside [a, b] may exceed the variance
    x = np.diag([0.0, 1.0, 4.0]).astype(complex)
    op = sector_bound_operator(x, 0.0, 1.0)
    rho = np.diag([0.0, 0.0, 1.0]).astype(complex)  # <X> = 4 outside [0, 1]
    assert expectation(op, rho) > variance(x, rho) + 1.0


def test_sector_operator_order_error():
    with pytest.raises(ValueError):
        sector_bound_operator(PAULI_Z, 1.0, -1.0)


@pytest.mark.parametrize(
    "x, y", [(np.eye(2), PAULI_Z), (PAULI_Z, 2.5 * np.eye(2)), (np.zeros((1, 1)), np.ones((1, 1))), spin_operators(0)[:2]]
)
def test_sector_bound_brackets_identity_operator(x, y):
    # an operator proportional to 1 makes the box a segment or a point, so simplices degenerate
    b = min_sum_variances(x, y)
    c, delta, value = b.sector_bound, b.delta, b.value
    assert value == pytest.approx(0.0, abs=1e-12)
    assert c <= 0.0 <= c + delta
    assert c <= value <= c + delta
    assert b.meta["converged"]


@pytest.mark.parametrize("seed", range(60))
def test_sector_bound_brackets_value_in_floating_point(seed):
    rng = np.random.default_rng([15, seed])
    d = 1 + seed % 6
    if seed % 2:
        ops = spin_operators(F(d - 1, 2))
        x, y = ops[rng.integers(3)], ops[rng.integers(3)]
    else:
        x, y = core.random_hermitian(d, rng), core.random_hermitian(d, rng)
    b = min_sum_variances(x, y)
    assert b.sector_bound <= b.value <= b.sector_bound + b.delta


def test_cover_commuting_contains_origin():
    x = np.diag([0.0, 1.0]).astype(complex)
    y = np.diag([1.0, 0.0]).astype(complex)
    px, py = default_partition(x, 0.01), default_partition(y, 0.01)
    assert in_padded_cover(sector_ranges(x, y, px, py), px, py, (0.0, 0.0), tol=1e-8).all()


def test_cover_contains_sampled_variances(rng):
    # the uncertainty range V(X, Y) lies in the padded union of the sector ranges
    jx, jy, _ = spin_operators(1)
    px = default_partition(jx, tol=0.02)
    py = default_partition(jy, tol=0.02)
    pts = []
    for _ in range(10000):
        psi = core.random_pure(3, rng)
        rho = np.outer(psi, psi.conj())
        pts.append((variance(jx, rho), variance(jy, rho)))
    assert in_padded_cover(sector_ranges(jx, jy, px, py), px, py, pts, tol=1e-8).all()


def test_cover_degenerate_y_axis():
    x = PAULI_Z.astype(complex)
    y = np.zeros((2, 2), dtype=complex)
    for body in sector_ranges(x, y, default_partition(x, 0.05), default_partition(y, 0.05)):
        assert np.abs(body.inner_vertices[:, 1]).max() < 1e-7


def test_paraboloid_certificate_spin_half():
    jx, jy, _ = spin_operators(0.5)
    b = min_sum_variances(jx, jy)
    assert paraboloid_certificate(jx, jy, b)


def test_paraboloid_certificate_commuting():
    b = min_sum_variances(PAULI_Z, PAULI_Z)
    assert paraboloid_certificate(PAULI_Z, PAULI_Z, b)


def _direct_random_restart_min(x, y, rng, restarts=12):
    # independent oracle: minimize the variance sum over pure states directly
    d = x.shape[0]

    def f(params):
        v = params[:d] + 1j * params[d:]
        n = np.linalg.norm(v)
        if n < 1e-12:
            return 1e6
        v = v / n
        rho = np.outer(v, v.conj())
        return variance(x, rho) + variance(y, rho)

    best = np.inf
    for _ in range(restarts):
        p0 = rng.normal(size=2 * d)
        r = minimize(f, p0, method="Nelder-Mead", options={"maxiter": 4000, "fatol": 1e-12})
        best = min(best, r.fun)
    return best


def test_min_sum_matches_random_restart_oracle(rng):
    x = core.random_hermitian(4, rng)
    y = core.random_hermitian(4, rng)
    b = min_sum_variances(x, y)
    direct = _direct_random_restart_min(x, y, rng)
    assert b.value <= direct + 1e-6
    assert direct <= b.value + 1e-3
    assert paraboloid_certificate(x, y, b, directions=sphere_directions(3, 400))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(0.2, 2.0), min_size=1, max_size=4), st.floats(-2, 2), st.floats(-2, 2))
def test_radial_search_matches_planar_on_charge_ladders(amps, a, b):
    # A lowers the charge diag(0, 1, ..., d-1) by one, so exp(i theta diag) turns (A + A^+, -i(A - A^+))
    # by theta; with unequal amplitudes the generator has a diagonal part that least squares must find
    lower = np.diag(np.asarray(amps, dtype=complex), k=-1)
    eye = np.eye(len(amps) + 1)
    x, y = lower + lower.conj().T + a * eye, -1j * (lower - lower.conj().T) + b * eye
    radial = min_sum_variances(x, y)
    assert radial.meta["method"] == "radial" and radial.meta["converged"]
    # on a circle of minimisers the triangles cannot close, but their bracket must overlap the radius's
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uncertainty, "_rotation", lambda x, y: None)
        mp.setattr(uncertainty, "EVALUATION_CAP", 2000)
        planar = min_sum_variances(x, y)
    assert planar.meta["method"] == "planar"
    assert radial.sector_bound <= planar.value and planar.sector_bound <= radial.value
    assert radial.value - radial.sector_bound <= 1e-11 * max(1.0, radial.value)
