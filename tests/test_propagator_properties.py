"""Block marches, the dense propagator and the solver on random problems.

A block march equals its columns marched one at a time, bit for bit.  The
dense propagator of a time-independent field, built by powering one step,
equals the marched identity up to the rounding of the powers.  A solve
satisfies the two-time identity and agrees with the dense oracle, column by
column when a block of shifts is solved at once, where each column also
agrees with its own single-vector solve, and a block solve is linear in its
right-hand sides.  A solve deflated by the slow modes of A_h takes no more
iterations than its undeflated time-dependent twin, and both agree with the
dense oracle.  Under backward Euler with a certified
M-matrix, a nonnegative shift gives a nonnegative profile of unit mass.
Within one GMRES cycle the least-squares estimate never increases.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from profile_shift import (
    ADVECTION_MODES,
    CoefficientField,
    Domain,
    ProfileShift,
    ThetaStepper,
    TimeGrid,
    apply_Q,
    build_grid,
    check_mass,
    check_positivity,
    dense_propagator,
    solve_profile_shift,
)
from profile_shift import fredholm
from profile_shift.cli import MASS_TOL, ORACLE_AGREEMENT_TOL
from profile_shift.fredholm import _gmres_identity_minus_q

TOL = 1e-10


def block_solve(stepper, block):
    return _gmres_identity_minus_q(stepper, block, tol=TOL, max_iter=200, restart=50)[0]


def fields(a, f, q, time_dependent):
    """Constant field, or one whose a, f and q all vary in time."""
    if not time_dependent:
        return CoefficientField(
            dimension=f.size,
            a=lambda x, t: a,
            f=lambda x, t: f,
            q=lambda x, t: q,
            delta=float(np.linalg.eigvalsh(a)[0]),
        )
    return CoefficientField(
        dimension=f.size,
        a=lambda x, t: (1.0 + 0.5 * np.sin(3.0 * t)) * a,
        f=lambda x, t: np.cos(2.0 * t) * f,
        q=lambda x, t: (1.0 + t) * q,
        delta=0.5 * float(np.linalg.eigvalsh(a)[0]),
        time_dependent=True,
    )


@st.composite
def steppers(
    draw,
    side=(100, 10),
    time_dependent=st.booleans(),
    steps=st.integers(1, 6),
    mixed=st.floats(-0.9, 0.9),
    thetas=st.sampled_from([0.5, 0.75, 1.0]),
    modes=st.sampled_from(ADVECTION_MODES),
):
    """Stepper on a random masked 1D or 2D grid, at most side[dim - 1] nodes a side.

    ``mixed`` draws a_xy / sqrt(a_xx a_yy) in 2D.
    """
    dim = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(1, side[dim - 1])) for _ in range(dim))
    cells = int(np.prod(shape))
    inside = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    inside[draw(st.integers(0, cells - 1))] = True
    diag = [draw(st.floats(0.1, 5.0)) for _ in range(dim)]
    a = np.diag(diag)
    if dim == 2:
        a[0, 1] = a[1, 0] = draw(mixed) * np.sqrt(diag[0] * diag[1])
    f = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(dim)])
    q = draw(st.floats(0.0, 2.0))
    coeffs = fields(a, f, q, draw(time_dependent))
    grid = build_grid(Domain(dim, ((0.0, 1.0), (0.0, 2.0))[:dim], inside.reshape(shape)), shape)
    timegrid = TimeGrid(
        T=draw(st.floats(0.05, 2.0)),
        steps=draw(steps),
        theta=draw(thetas),
    )
    return ThetaStepper(coeffs, grid, timegrid, draw(modes))


@st.composite
def marches(draw):
    """(stepper, block, start index, keep)."""
    stepper = draw(steppers())
    grid, timegrid = stepper.grid, stepper.timegrid
    width = draw(st.integers(1, 5))
    block = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        (grid.size, width)
    )
    block[:, draw(st.lists(st.booleans(), min_size=width, max_size=width))] = 0.0
    start = draw(st.integers(0, timegrid.steps))
    return stepper, block, start, draw(st.booleans())


@given(marches())
def test_block_march_equals_column_marches(march):
    stepper, block, start, keep = march
    got = stepper.run(block, start_index=start, keep=keep)
    columns = [stepper.run(column, start_index=start, keep=keep) for column in block.T]
    slices = (stepper.timegrid.steps - start + 1,) if keep else ()
    assert got.shape == slices + block.shape
    assert all(np.array_equal(got[..., j], column) for j, column in enumerate(columns))


@given(steppers(side=(24, 5), time_dependent=st.just(False), steps=st.integers(1, 512)))
def test_dense_propagator_equals_marched_identity(stepper):
    q = dense_propagator(
        stepper.coeffs, stepper.grid, stepper.timegrid, stepper.advection_mode, stepper=stepper
    )
    marched = stepper.run(np.eye(stepper.grid.size))
    # Strong decay can leave all of Q below the smallest normal number,
    # where neither route keeps relative precision.
    bound = 1e-12 * np.abs(marched).max() + np.finfo(float).tiny
    assert np.abs(q - marched).max() <= bound


@given(steppers(), st.integers(0, 2**32 - 1))
def test_solution_satisfies_two_time_identity_and_matches_dense_oracle(stepper, seed):
    problem = (stepper.coeffs, stepper.grid, stepper.timegrid, stepper.advection_mode)
    gamma = np.random.default_rng(seed).standard_normal(stepper.grid.size)
    tol = 1e-10
    report = solve_profile_shift(ProfileShift(gamma), *problem, tol=tol, stepper=stepper)
    zeta = report.zeta
    # the trajectory is the march of zeta, bit for bit, whichever march it came from
    assert report.trajectory.values.tobytes() == stepper.run(zeta, keep=True).tobytes()
    defect = zeta - apply_Q(zeta, *problem, stepper=stepper) - gamma
    assert np.linalg.norm(defect) <= tol * np.linalg.norm(gamma)
    q = dense_propagator(*problem, stepper=stepper)
    expected = np.linalg.solve(np.eye(stepper.grid.size) - q, gamma)
    assert np.linalg.norm(zeta - expected) <= ORACLE_AGREEMENT_TOL * np.linalg.norm(expected)


def counting_marches(solve):
    """(solve(), the number of ThetaStepper.run calls it made)."""
    run = ThetaStepper.run
    with mock.patch.object(ThetaStepper, "run", autospec=True, side_effect=run) as counted:
        result = solve()
    return result, counted.call_count


@given(
    steppers(time_dependent=st.just(False), steps=st.integers(1, 512)),
    st.integers(0, 2**32 - 1),
)
def test_deflation_costs_no_iterations_and_keeps_the_answer(stepper, seed):
    # N_t up to 512 draws both sides of the projector's cost gate (86 steps
    # for eigsh, 172 for eigs).  The plain solve runs on the same stepper,
    # so on the same Q, with the projector taken away (M = I); the
    # time-dependent twin of the field would give the same Q, but it
    # reassembles A_h at every step.
    problem = (stepper.coeffs, stepper.grid, stepper.timegrid, stepper.advection_mode)
    gamma = np.random.default_rng(seed).standard_normal(stepper.grid.size)

    def solve():
        return solve_profile_shift(ProfileShift(gamma), *problem, tol=TOL, stepper=stepper)

    deflated, deflated_marches = counting_marches(solve)
    with mock.patch.object(fredholm, "_slow_projector", return_value=None):
        plain, plain_marches = counting_marches(solve)
    assert plain.deflated_modes == 0
    assert deflated.iterations <= plain.iterations
    assert deflated_marches <= plain_marches
    # Each zeta solves (I - Q) zeta = gamma to within TOL ||gamma||, so the
    # two differ by at most 2 TOL ||gamma|| ||(I - Q)^-1||.
    q = dense_propagator(*problem, stepper=stepper)
    system = np.eye(stepper.grid.size) - q
    inverse_norm = 1.0 / np.linalg.svd(system, compute_uv=False)[-1]
    gap = np.linalg.norm(deflated.zeta - plain.zeta)
    assert gap <= 2.0 * TOL * np.linalg.norm(gamma) * inverse_norm * (1.0 + 1e-8)
    expected = np.linalg.solve(system, gamma)
    for zeta in (deflated.zeta, plain.zeta):
        assert np.linalg.norm(zeta - expected) <= ORACLE_AGREEMENT_TOL * np.linalg.norm(expected)


@given(
    steppers(mixed=st.just(0.0), thetas=st.just(1.0), modes=st.just("upwind")),
    st.integers(0, 2**32 - 1),
)
def test_nonnegative_shift_gives_nonnegative_unit_mass_profile(stepper, seed):
    # Upwind drift with no mixed term: every step matrix B = I - dt A_h is
    # an M-matrix with row sums >= 1, so S = B^-1 >= 0 with ||S||_inf <= 1
    # (the time-dependent fields keep that sign pattern at every t).
    assert stepper.m_matrix_certified
    problem = (stepper.coeffs, stepper.grid, stepper.timegrid, stepper.advection_mode)
    rng = np.random.default_rng(seed)
    gamma = np.where(rng.random(stepper.grid.size) < 0.5, 0.0, rng.random(stepper.grid.size))
    gamma[rng.integers(stepper.grid.size)] = 1.0
    report = solve_profile_shift(ProfileShift(gamma, nonneg=True), *problem, tol=TOL, stepper=stepper)
    # The solve's post-check bounds r = (I - Q) zeta - gamma by
    # ||r||_inf <= ||r||_2 <= TOL ||gamma||_2.  (I - Q)^-1 = sum Q^k >= 0 maps
    # gamma to a nonnegative profile, so zeta, and every slice that the
    # nonnegative, non-expanding steps make of it, sits at most
    # ||(I - Q)^-1||_inf ||r||_inf below zero: alpha times that once
    # normalized.  The march's own rounding, of order eps against TOL, is
    # left out.
    q = dense_propagator(*problem, stepper=stepper)
    resolvent_norm = np.abs(np.linalg.inv(np.eye(stepper.grid.size) - q)).sum(axis=1).max()
    bound = report.alpha * resolvent_norm * TOL * np.linalg.norm(gamma)
    assert check_positivity(report.normalized, positivity_tol=bound).passed
    assert check_mass(report.normalized) <= MASS_TOL


@given(steppers(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_block_solve_meets_each_column_bound_and_matches_dense_oracle(stepper, k, seed):
    problem = (stepper.coeffs, stepper.grid, stepper.timegrid, stepper.advection_mode)
    rng = np.random.default_rng(seed)
    gammas = rng.standard_normal((stepper.grid.size, k))
    zeta = block_solve(stepper, gammas)
    assert zeta.shape == gammas.shape
    defect = zeta - stepper.run(zeta) - gammas
    assert np.all(np.linalg.norm(defect, axis=0) <= TOL * np.linalg.norm(gammas, axis=0))
    q = dense_propagator(*problem, stepper=stepper)
    expected = np.linalg.solve(np.eye(stepper.grid.size) - q, gammas)
    gap = np.linalg.norm(zeta - expected, axis=0)
    assert np.all(gap <= ORACLE_AGREEMENT_TOL * np.linalg.norm(expected, axis=0))
    # each column agrees with its own single-vector solve, and a block of
    # one column is that solve
    singles = [
        solve_profile_shift(ProfileShift(g), *problem, tol=TOL, stepper=stepper).zeta
        for g in gammas.T
    ]
    for column, single in zip(zeta.T, singles):
        assert np.linalg.norm(column - single) <= ORACLE_AGREEMENT_TOL * np.linalg.norm(single)
    assert np.array_equal(block_solve(stepper, gammas[:, :1])[:, 0], singles[0])
    gammas[:, rng.integers(k)] = 0.0
    with pytest.raises(ValueError, match="nonzero"):
        block_solve(stepper, gammas)


@given(
    steppers(),
    st.floats(0.25, 4.0),
    st.floats(0.25, 4.0),
    st.sampled_from([-1.0, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_block_solve_is_linear(stepper, a, b, sign, seed):
    g1, g2 = np.random.default_rng(seed).standard_normal((2, stepper.grid.size))
    a *= sign
    z1, z2, z3 = block_solve(stepper, np.column_stack([g1, g2, a * g1 + b * g2])).T
    scale = abs(a) * np.linalg.norm(z1) + b * np.linalg.norm(z2) + np.linalg.norm(z3)
    assert np.linalg.norm(z3 - (a * z1 + b * z2)) <= 10 * TOL * scale


@given(
    steppers(side=(24, 5), time_dependent=st.just(True), thetas=st.sampled_from([0.5, 1.0])),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_gmres_estimate_never_increases_in_a_cycle(stepper, k, seed):
    # A time-dependent field takes no projector (M = I), and a restart of
    # M >= ceil(M / k) iterations with one cycle allowed makes the solve a
    # single cycle.  Its estimates are least-squares residuals over a
    # growing search space, so none exceeds the one before.
    block = np.random.default_rng(seed).standard_normal((stepper.grid.size, k))
    zeta, history, _, deflated = _gmres_identity_minus_q(
        stepper, block, tol=TOL, max_iter=1, restart=stepper.grid.size
    )
    assert deflated == 0
    assert all(later <= earlier * (1.0 + 1e-12) for earlier, later in zip(history, history[1:]))
    defect = zeta - stepper.run(zeta) - block
    assert np.all(np.linalg.norm(defect, axis=0) <= TOL * np.linalg.norm(block, axis=0))
