from fractions import Fraction as F

import numpy as np
import pytest
from scipy.optimize import minimize

from qgeom import core
from qgeom.core import PAULI_X, PAULI_Z, spin_operators
from qgeom.numrange import jnr_approximate, sphere_directions, support_batch
from qgeom.uncertainty import (
    SectorPartition,
    _sector_operators,
    _sector_search,
    default_partition,
    min_sum_variances,
    sector_bound_operator,
)

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def variance(x, rho):
    """<X^2> - <X>^2 over rho, clipped at zero against rounding."""
    x = core.as_hermitian(x)
    rho = np.asarray(rho, dtype=complex)
    v = core.expectation(x @ x, rho) - core.expectation(x, rho) ** 2
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


def sector_ranges(x, y, px, py):
    """W(X_i, Y_j) for every sector pair (i, j) of the partitions px, py."""
    xs, ys = _sector_operators(x, px)[0], _sector_operators(y, py)[0]
    return [jnr_approximate([xi, yj], sphere_directions(2, 180)) for xi in xs for yj in ys]


def in_padded_cover(bodies, px, py, points, tol):
    """Per (Delta^2 X, Delta^2 Y) point: membership in the union of the sector
    ranges, each padded by the Minkowski rectangle [0, delta_X] x [0, delta_Y]
    through its outer half-spaces, h_{W + R}(n) = h_W(n) + h_R(n)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    inside = np.zeros(len(pts), dtype=bool)
    for body in bodies:
        n = body.outer_normals
        pad = px.delta * np.clip(n[:, 0], 0, None) + py.delta * np.clip(n[:, 1], 0, None)
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


def test_min_sum_certificate_self_consistent():
    jx, jy, _ = spin_operators(1)
    b = min_sum_variances(jx, jy)
    # equality condition: the certificate's expectations equal the minimizer
    ex = core.expectation(jx, b.certificate_state)
    ey = core.expectation(jy, b.certificate_state)
    assert abs(ex - b.minimizer[0]) < 1e-6
    assert abs(ey - b.minimizer[1]) < 1e-6
    attained = variance(jx, b.certificate_state) + variance(jy, b.certificate_state)
    assert attained >= b.value - 1e-6


def test_sector_operator_eigenvalue_point():
    x = np.diag([1.0, 3.0]).astype(complex)
    a = sector_bound_operator(x, 1.0, 1.0)
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert core.expectation(a, rho) == pytest.approx(0.0)


def test_sector_operator_qubit_full_range():
    # A_(-1,1) on sigma_z vanishes identically; the bound 0 <= Delta^2 holds
    a = sector_bound_operator(PAULI_Z, -1.0, 1.0)
    assert np.abs(a).max() == 0.0
    assert core.expectation(a, PLUS) <= variance(PAULI_Z, PLUS)
    # equality is attained when <X> sits on a sector endpoint
    a01 = sector_bound_operator(PAULI_Z, 0.0, 1.0)
    assert core.expectation(a01, PLUS) == pytest.approx(variance(PAULI_Z, PLUS))


def test_sector_operator_bound_holds_inside(rng):
    x = core.random_hermitian(3, rng)
    w = np.linalg.eigvalsh(x)
    a, b = w[0], w[-1]
    op = sector_bound_operator(x, a, b)
    for _ in range(50):
        rho = core.random_density(3, rng)
        assert core.expectation(op, rho) <= variance(x, rho) + 1e-10


def test_sector_operator_violated_outside_precondition():
    # a state with <X> outside [a, b] may exceed the variance
    x = np.diag([0.0, 1.0, 4.0]).astype(complex)
    op = sector_bound_operator(x, 0.0, 1.0)
    rho = np.diag([0.0, 0.0, 1.0]).astype(complex)  # <X> = 4 outside [0, 1]
    assert core.expectation(op, rho) > variance(x, rho) + 1.0


def test_sector_operator_order_error():
    with pytest.raises(ValueError):
        sector_bound_operator(PAULI_Z, 1.0, -1.0)


def test_sector_sum_single_sector_coarse():
    # two-point spectra admit one sector spanning the whole range
    from qgeom.core import PAULI_X, PAULI_Y

    px = SectorPartition((-1.0, 1.0))
    py = SectorPartition((-1.0, 1.0))
    c, _, _ = _sector_search(PAULI_X, PAULI_Y, px, py)
    coarse = np.linalg.eigvalsh(
        sector_bound_operator(PAULI_X, -1, 1) + sector_bound_operator(PAULI_Y, -1, 1)
    )[0]
    assert c == pytest.approx(coarse)
    assert px.delta + py.delta == pytest.approx(2.0)


def test_sector_sum_rejects_partition_missing_eigenvalue():
    jx, jy, _ = spin_operators(1)
    with pytest.raises(ValueError):
        _sector_search(jx, jy, SectorPartition((-1.0, 1.0)), SectorPartition((-1.0, 0.0, 1.0)))


def test_sector_sum_refined_hits_table():
    jx, jy, _ = spin_operators(1)
    px = default_partition(jx, tol=2.5e-4)
    py = default_partition(jy, tol=2.5e-4)
    c, _, _ = _sector_search(jx, jy, px, py)
    delta = px.delta + py.delta
    assert delta < 1e-3
    assert abs(c - 7 / 16) < 1e-3
    v = min_sum_variances(jx, jy).value
    assert c <= v + 1e-9
    assert v <= c + delta + 1e-9


@pytest.mark.parametrize(
    "x, y", [(np.eye(2), PAULI_Z), (PAULI_Z, 2.5 * np.eye(2)), (np.zeros((1, 1)), np.ones((1, 1))), spin_operators(0)[:2]]
)
def test_sector_bound_brackets_identity_operator(x, y):
    # an operator proportional to 1 has one eigenvalue, which must be a breakpoint
    px, py = default_partition(x), default_partition(y)
    assert px.covers(x) and py.covers(y)
    b = min_sum_variances(x, y)
    c, delta, value = b.sector_bound, b.delta, b.value
    assert value == pytest.approx(0.0, abs=1e-12)
    # in 1x1 the best pair's float lambda_min is -1.1e-16, below -delta_X - delta_Y = -5e-17
    assert c <= 0.0 <= c + delta
    assert c <= value <= c + delta


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


def test_sector_refinement_monotone():
    jx, jy, _ = spin_operators(1)
    prev = -np.inf
    for tol in (0.5, 0.1, 0.01):
        px = default_partition(jx, tol=tol)
        py = default_partition(jy, tol=tol)
        c, _, _ = _sector_search(jx, jy, px, py)
        assert c >= prev - 1e-9
        prev = c


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
