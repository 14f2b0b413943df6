"""The two spectral routes on random problems.

On a symmetric, time-independent generator the generator route (eigvalsh of
A_h) gives the rho(Q) and cond(I - Q) that the dense route finds in the
powered Q, within the rounding that Q carries.  On upwind drift the report
is the dense route's, bit for bit as the eigvals and SVDs of the dense Q
always gave it.
"""

import numpy as np
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from profile_shift import (
    ADVECTION_MODES,
    ThetaStepper,
    TimeGrid,
    absorb,
    anisotropic,
    box2d,
    build_grid,
    dense_propagator,
    drift,
    heat,
    interval,
    spectral_analysis,
)
from profile_shift.fredholm import _dense_spectrum

EPS = np.finfo(float).eps


@st.composite
def grids(draw):
    """A 1D or 2D box grid with at most 150 nodes."""
    dim = draw(st.sampled_from([1, 2]))
    sides = [draw(st.floats(0.5, 3.0)) for _ in range(dim)]
    if dim == 1:
        return build_grid(interval(0.0, sides[0]), [draw(st.integers(1, 150))])
    shape = [draw(st.integers(1, 12)) for _ in range(2)]
    return build_grid(box2d((0.0, sides[0]), (0.0, sides[1])), shape)


def timegrids():
    return st.builds(
        TimeGrid, T=st.floats(0.05, 2.0), steps=st.integers(1, 64), theta=st.floats(0.5, 1.0)
    )


@st.composite
def symmetric_steppers(draw):
    """Heat, absorption or (2D) anisotropic diffusion with axy^2 < axx ayy."""
    grid = draw(grids())
    kinds = ["heat", "absorb"] + (["anisotropic"] if grid.dimension == 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "heat":
        coeffs = heat(grid.dimension)
    elif kind == "absorb":
        coeffs = absorb(draw(st.floats(0.0, 2.0)), grid.dimension)
    else:
        axx, ayy = draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0))
        axy = draw(st.floats(-0.95, 0.95)) * np.sqrt(axx * ayy)
        coeffs = anisotropic(axx, axy, ayy, draw(st.floats(0.0, 2.0)))
    return ThetaStepper(coeffs, grid, draw(timegrids()), draw(st.sampled_from(ADVECTION_MODES)))


@st.composite
def drift_steppers(draw):
    """Upwind drift on at least two nodes, where A_h is not symmetric."""
    grid = draw(grids().filter(lambda grid: grid.size > 1))
    velocity = [
        draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
        for _ in range(grid.dimension)
    ]
    coeffs = drift(velocity, draw(st.floats(0.0, 2.0)))
    return ThetaStepper(coeffs, grid, draw(timegrids()), "upwind")


def rounding_bound(stepper) -> float:
    """Bound, to first order, on how far the two routes' rho and each singular
    value of I - Q may lie apart on a symmetric negative definite A_h.

    The exact Q = S^N_t is symmetric, with S = B^-1 C, B = I - theta dt A_h,
    C = I + (1 - theta) dt A_h, ||S||_2 <= 1 and ||B^-1||_2 <= 1.  Let
    a = ||A_h||_1 >= ||A_h||_2 and eps = 2.2e-16, twice the unit roundoff.
    - Step: each column of the dense S passes the stepper's check
      ||r|| <= 16 eps (||B|| ||s|| + ||C e_j||), whose residual is itself
      rounded by at most 10 eps at nine nonzeros a row; as ||B^-1|| <= 1 and
      ||s|| <= 2, a column is off by at most 32 eps (2 ||B|| + ||C||), and S
      by sqrt(M) times that in the 2-norm.
    - Powering: each of Q's products XY is rounded by at most
      gamma_M ||X||_F ||Y||_F <= gamma_M M, and binary powering doubles the
      earlier error at each squaring, so the powered Q is off by at most
      N_t (error of S + 2 M gamma_M).
    - Generator route: eigvalsh is off by at most M eps a, and
      |d mu / d lambda| = N_t |m|^(N_t-1) dt / (1 - theta dt lambda)^2 <= T,
      plus a few roundings of the log-space evaluation, each at most
      eps |mu log mu| <= eps.
    - eigvals and the SVDs are backward stable: 2 M eps on ||I - Q|| <= 2.
    Weyl's bound for singular values moves each singular value of I - Q by
    at most the sum, and Bauer-Fike (Q is normal) each eigenvalue.
    """
    tg, m = stepper.timegrid, stepper.grid.size
    a = float(abs(stepper.generator.matrix).sum(axis=0).max())
    b_norm = 1.0 + tg.theta * tg.dt * a
    c_norm = 1.0 + (1.0 - tg.theta) * tg.dt * a
    gamma_m = m * EPS / (1.0 - m * EPS)
    step = np.sqrt(m) * 32.0 * EPS * (2.0 * b_norm + c_norm)
    powered = tg.steps * (step + 2.0 * m * gamma_m)
    generator = tg.T * m * EPS * a + 16.0 * EPS
    return powered + generator + 2.0 * m * EPS


@given(symmetric_steppers())
def test_generator_route_matches_dense_route_on_the_same_q(stepper):
    report = spectral_analysis(stepper)
    assert report.route == "generator"
    dense = _dense_spectrum(dense_propagator(stepper), stepper.grid.size)
    bound = rounding_bound(stepper)
    assert abs(report.spectral_radius - dense.spectral_radius) <= bound
    gaps = np.abs(1.0 - report.eigenvalues)
    assert report.cond_identity_minus_Q == gaps.max() / gaps.min()
    assert gaps.min() > bound
    lowest = (gaps.max() - bound) / (gaps.min() + bound)
    highest = (gaps.max() + bound) / (gaps.min() - bound)
    assert lowest <= dense.cond_identity_minus_Q <= highest


@given(drift_steppers())
def test_drift_report_is_the_dense_spectrum(stepper):
    report = spectral_analysis(stepper)
    problem = (stepper.coeffs, stepper.grid, stepper.timegrid, stepper.advection_mode)
    q = dense_propagator(ThetaStepper(*problem))
    # the eigvals and SVDs that spectral_analysis of a dense Q has always run
    eigs = np.linalg.eigvals(q)
    sing = scipy.linalg.svdvals(q)
    log10_cond = (
        np.inf if sing[-1] <= 0.0 else float(np.log10(sing[0]) - np.log10(sing[-1]))
    )
    sing_iq = scipy.linalg.svdvals(np.eye(q.shape[0]) - q)
    assert report.route == "dense"
    assert np.array_equal(report.eigenvalues, eigs)
    assert report.spectral_radius == float(np.max(np.abs(eigs)))
    assert report.log10_cond_Q == log10_cond
    assert report.cond_identity_minus_Q == float(sing_iq[0] / sing_iq[-1])
