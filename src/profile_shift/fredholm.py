"""Solve the change-of-profile problem and normalize the result.

The problem: find u solving du/dt = Au on (0, T) with zero boundary values
and the two-time condition u(., 0) = u(., T) + gamma.  Writing Q for the
time-T propagator, the initial profile zeta satisfies the Fredholm system

    (I - Q) zeta = gamma,

which is solved matrix-free with GMRES (each matvec is one full implicit
time march).  GMRES ends with the true residual of the zeta it returns, so
its last matvec has marched zeta already; that march is the trajectory, and
zeta is marched again only when the last matvec's input differs from it.
The trajectory is scaled to unit initial mass, giving the
probability-normalized pair (alpha, p).

``dense_propagator`` assembles Q_h from the same stepping engine and its
per-column check; it exists so the iterative route can be cross-checked
against explicit linear algebra on small grids.  For time-independent
coefficients it steps the identity once, giving the one-step matrix S, and
returns S^N_t, which differs from a march only by the rounding of the
powers.  ``spectral_analysis`` is the one place that picks a spectral route:
the eigenvalues of a symmetric, time-independent A_h, from its band, or
else the dense Q_h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg as spla

from .errors import (
    NoConvergence,
    NonpositiveMass,
    NumericalBreakdown,
    PostCheckFailure,
    TooLarge,
)
from .grid import Grid
from .operators import CoefficientField
from .propagator import (
    ThetaStepper,
    TimeGrid,
    Trajectory,
    _column_norms,
    _engine,
)

DENSE_CAP = 4096
# Identity columns per march or step in dense_propagator.  The step's
# temporaries are a few M x 64 blocks, so the oracle's peak stays at the
# three M x M arrays of the powering (384 MB at DENSE_CAP).
_BLOCK_COLUMNS = 64


@dataclass(frozen=True, eq=False)
class ProfileShift:
    """Prescribed difference gamma = u(., 0) - u(., T) on the interior nodes.

    ``nonneg`` requests the probability-normalized path; it asserts that
    gamma is nonnegative and nontrivial, the hypothesis under which the
    solution itself is nonnegative with positive initial mass.
    """

    gamma: np.ndarray
    nonneg: bool = False

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 1:
            raise ValueError(f"gamma must be a vector, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("gamma contains non-finite entries")
        if self.nonneg:
            if np.any(g < 0.0):
                raise ValueError("nonneg path requested but gamma has negative entries")
            if not np.any(g > 0.0):
                raise ValueError("nonneg path requested but gamma is identically zero")
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True, eq=False)
class FredholmReport:
    """Outcome of one profile-shift solve."""

    zeta: np.ndarray
    trajectory: Trajectory
    iterations: int
    relative_residual: float
    alpha: float | None
    normalized: Trajectory | None


def solve_profile_shift(
    shift: ProfileShift,
    coeffs: CoefficientField,
    grid: Grid,
    timegrid: TimeGrid,
    advection_mode: str = "upwind",
    tol: float = 1e-10,
    max_iter: int = 200,
    restart: int = 50,
    stepper: ThetaStepper | None = None,
) -> FredholmReport:
    """Solve (I - Q) zeta = gamma matrix-free and rebuild the trajectory.

    The GMRES tolerance is relative to ||gamma||.  ``max_iter`` counts
    restart cycles, not iterations: each cycle runs up to ``restart``
    iterations, so the defaults allow 200 x 50 = 10000.  After the solve the
    two-time condition is re-verified from the reconstructed trajectory;
    a violation beyond tol raises PostCheckFailure, so a returned report
    is always self-consistent.  When the shift carries the nonneg flag the
    report also holds the unit-mass pair (alpha, normalized trajectory).
    """
    gamma = shift.gamma
    if gamma.shape != (grid.size,):
        raise ValueError(
            f"gamma must live on the {grid.size} interior nodes, got {gamma.shape}"
        )
    engine = _engine(coeffs, grid, timegrid, advection_mode, stepper)

    gamma_norm = float(np.linalg.norm(gamma))
    if gamma_norm == 0.0:
        # gamma = 0 forces zeta = 0: the unique fixed point of Q.
        zeta = np.zeros(grid.size)
        iterations = 0
        marched = engine.run(zeta, keep=True)
    else:
        zeta, iterations, marched = _gmres_identity_minus_q(
            engine, gamma, tol=tol, max_iter=max_iter, restart=restart, keep=True
        )

    trajectory = Trajectory(
        marched, timegrid.time(np.arange(timegrid.steps + 1)), grid, timegrid
    )
    defect = trajectory.initial - trajectory.terminal - gamma
    relative_residual = float(
        np.linalg.norm(defect) / gamma_norm if gamma_norm > 0 else np.linalg.norm(defect)
    )
    if relative_residual > tol and gamma_norm > 0:
        raise PostCheckFailure(
            "reconstructed trajectory violates the two-time condition: "
            f"||u(0) - u(T) - gamma|| = {relative_residual:.3e} * ||gamma|| > {tol:.1e}"
        )

    alpha = None
    normalized = None
    if shift.nonneg:
        alpha, normalized = normalize(trajectory)

    return FredholmReport(
        zeta=zeta,
        trajectory=trajectory,
        iterations=iterations,
        relative_residual=relative_residual,
        alpha=alpha,
        normalized=normalized,
    )


def _gmres_identity_minus_q(
    engine: ThetaStepper,
    gamma: np.ndarray,
    tol: float,
    max_iter: int,
    restart: int,
    keep: bool = False,
):
    """Solve (I - Q) zeta = gamma for a vector (M,) or a block of columns (M, k).

    GMRES runs on the stacked system I_k (x) (I - Q), whose unknown is the
    block's columns one after another; each matvec marches the whole block,
    so every column shares one Krylov polynomial and one march per
    iteration.  The stopping bound is absolute, ||R||_F <= tol min_j ||g_j||,
    which gives ||r_j|| <= tol ||g_j|| for every column; for one column it
    is GMRES's relative bound.  The bound is set by the smallest column, so
    the columns should be of like norm, and a zero column is refused.

    Returns (zeta, iterations, marched): the solution in gamma's shape, the
    number of iterations and marched = engine.run(zeta, keep=keep).  Each
    matvec keeps its input and its march, dropping the previous pair first,
    and scipy's gmres ends every cycle with the true residual of the x it
    returns; so the last pair is reused when its input equals zeta bit for
    bit, and zeta is marched again otherwise.  A NoConvergence names the
    largest relative residual ||r_j|| / ||g_j||, read from the same pair.
    A tol outside (0, 1) is refused: from tol >= 1, zeta = 0 already meets
    the bound, and GMRES would return it after no iteration.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    shape = gamma.shape
    rhs = gamma.ravel(order="F")
    columns = rhs.reshape((shape[0], -1), order="F")
    # np.linalg.norm of each column, as gmres computes ||b||, so that the
    # bound of a single vector equals gmres's own relative bound bit for bit.
    norms = np.array([np.linalg.norm(column) for column in columns.T])
    if not norms.all():
        raise ValueError("every column of gamma must be nonzero")
    last = None  # (input, engine.run(input, keep=keep)) of the latest matvec

    def identity_minus_q(pair):
        x, marched = pair
        return x - (marched[-1] if keep else marched).ravel(order="F")

    def matvec(x):
        nonlocal last
        last = None  # drop the previous march before the next starts
        x = x.copy()
        last = (x, engine.run(x.reshape(shape, order="F"), keep=keep))
        return identity_minus_q(last)

    op = spla.LinearOperator((rhs.size, rhs.size), matvec=matvec, dtype=float)
    history: list[float] = []

    def callback(pr_norm):
        history.append(float(pr_norm))

    zeta, info = spla.gmres(
        op,
        rhs,
        rtol=0.0,
        atol=tol * float(norms.min()),
        restart=restart,
        maxiter=max_iter,
        callback=callback,
        callback_type="pr_norm",
    )
    iterations = len(history)
    # Bytes, not values: -0.0 == 0.0, but the two march to different zeros.
    if last is None or last[0].tobytes() != zeta.tobytes():
        matvec(zeta)
    if info != 0:
        defect = (rhs - identity_minus_q(last)).reshape(columns.shape, order="F")
        raise NoConvergence(
            iterations=iterations,
            residual=float(np.max(_column_norms(defect) / norms)),
            theta=engine.timegrid.theta,
        )
    return zeta.reshape(shape, order="F"), iterations, last[1]


def normalize(trajectory: Trajectory) -> tuple[float, Trajectory]:
    """Scale a trajectory to unit initial mass.

    alpha = 1 / integral of u(., 0); the integral is the cell-volume
    weighted sum over interior nodes (midpoint rule).  The initial mass
    must be strictly positive for the scaled solution to be a probability
    profile.
    """
    mass = float(np.sum(trajectory.initial)) * trajectory.grid.cell_volume
    if not mass > 0.0:
        raise NonpositiveMass(
            f"initial mass {mass:.3e} is not positive; "
            "cannot normalize to a probability profile"
        )
    alpha = 1.0 / mass
    return alpha, trajectory.scaled(alpha)


def dense_propagator(
    coeffs: CoefficientField,
    grid: Grid,
    timegrid: TimeGrid,
    advection_mode: str = "upwind",
    stepper: ThetaStepper | None = None,
) -> np.ndarray:
    """Assemble Q_h as a dense matrix from the iterative solver's stepping engine.

    Pass ``stepper`` to share its factorizations.  For time-independent
    coefficients the identity is stepped once, in blocks of 64 columns, so
    every column of the one-step matrix S passes the same per-column check
    as a march; Q_h = S^N_t then follows by binary powering, about
    2 log2(N_t) matrix products, and differs from a march only by the
    rounding of those products.  Time-dependent coefficients have no single
    S, so the identity is marched through all N_t steps in the same blocks.
    Refuses grids above DENSE_CAP nodes.
    """
    m = grid.size
    if m > DENSE_CAP:
        raise TooLarge(
            f"dense propagator needs {m}x{m} storage; cap is {DENSE_CAP} nodes"
        )
    engine = _engine(coeffs, grid, timegrid, advection_mode, stepper)
    if coeffs.time_dependent:
        return _identity_images(engine.run, m)
    step = _identity_images(lambda block: engine.step_values(block, 0), m)
    return _power(step, timegrid.steps)


def _identity_images(apply, m: int) -> np.ndarray:
    """The M x M matrix whose column j is apply(e_j), in blocks of columns."""
    columns = np.empty((m, m))
    for start in range(0, m, _BLOCK_COLUMNS):
        stop = min(start + _BLOCK_COLUMNS, m)
        columns[:, start:stop] = apply(np.eye(m, stop - start, -start))
    return columns


def _power(step: np.ndarray, n: int) -> np.ndarray:
    """step^n for n >= 1 by right-to-left binary powering; overwrites step.

    Knuth, TAOCP vol. 2, 4.6.3.  The squares are made in step's own buffer
    and one spare, and the running product in a third, so at most three
    M x M arrays are alive; np.linalg.matrix_power, which allocates each
    product, holds four.
    """
    square, spare, result = step, np.empty_like(step), None
    while True:
        n, bit = divmod(n, 2)
        if bit and result is None:
            result = square if n == 0 else square.copy()
        elif bit:
            np.matmul(result, square, out=spare)
            result, spare = spare, result
        if n == 0:
            return result
        np.matmul(square, square, out=spare)
        square, spare = spare, square


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Spectral summary of Q_h and I - Q_h; ``route`` is "generator" or "dense"."""

    eigenvalues: np.ndarray
    spectral_radius: float
    log10_cond_Q: float
    cond_identity_minus_Q: float
    route: str


def spectral_analysis(stepper: ThetaStepper, q_matrix: np.ndarray | None = None) -> SpectralReport:
    """Eigenvalues of Q_h, rho(Q_h), cond(I - Q_h) and log10 cond(Q_h).

    When the coefficients do not depend on time and the stepper's A_h is
    exactly symmetric, Q_h = m(A_h)^N_t shares its eigenvectors, so every
    value follows from the eigenvalues of A_h, taken from its band by
    eigvals_banded, and no dense Q_h is built (the generator route).
    Otherwise the dense Q_h is decomposed: ``q_matrix`` if the caller has
    built it, else ``dense_propagator`` on the stepper (the dense route).
    Both routes refuse grids above DENSE_CAP nodes.
    log10 cond(Q_h) leaves the double range on fine grids; only the generator
    route resolves it there, as the dense route's SVD saturates near 1e19.
    """
    m = stepper.grid.size
    if m > DENSE_CAP:
        raise TooLarge(f"spectra need {m}x{m} storage; cap is {DENSE_CAP} nodes")
    if not stepper.coeffs.time_dependent:
        generator = stepper.generator.matrix
        if (generator != generator.T).nnz == 0:
            return _generator_spectrum(generator, stepper.timegrid)
    if q_matrix is None:
        problem = (stepper.coeffs, stepper.grid, stepper.timegrid, stepper.advection_mode)
        q_matrix = dense_propagator(*problem, stepper=stepper)
    return _dense_spectrum(q_matrix, m)


def _generator_spectrum(generator, timegrid: TimeGrid) -> SpectralReport:
    """The summary of Q_h from the eigenvalues lambda of a symmetric A_h.

    Each lambda maps to the per-step multiplier
    m = (1 + (1-theta)*dt*lambda) / (1 - theta*dt*lambda) and to mu = m^N_t,
    with log|mu| = N_t log|m| taken via log1p so that condition numbers past
    1e300 stay representable.  Q_h is symmetric: its singular values are |mu|
    and those of I - Q_h are |1 - mu|.
    """
    lam = _banded_eigvalsh(generator)
    theta, steps = timegrid.theta, timegrid.steps
    # The explicit factor can cross zero under Crank-Nicolson, so fall back
    # from log1p to log|.| away from the well-conditioned neighborhood of 1.
    x = (1.0 - theta) * timegrid.dt * lam
    with np.errstate(divide="ignore", invalid="ignore"):
        log_num = np.where(x > -0.5, np.log1p(x), np.log(np.abs(1.0 + x)))
        log_mu = steps * (log_num - np.log1p(-theta * timegrid.dt * lam))
    mu = np.sign(1.0 + x) ** steps * np.exp(log_mu)
    gap = np.abs(1.0 - mu)
    if gap.min() <= 0.0:
        raise NumericalBreakdown("I - Q is numerically singular")
    return SpectralReport(
        eigenvalues=mu,
        spectral_radius=float(np.abs(mu).max()),
        log10_cond_Q=float((log_mu.max() - log_mu.min()) / np.log(10.0)),
        cond_identity_minus_Q=float(gap.max() / gap.min()),
        route="generator",
    )


def _banded_eigvalsh(matrix) -> np.ndarray:
    """Ascending eigenvalues of a symmetric sparse matrix, from its lower band.

    The half-bandwidth is read from the matrix, max(row - col), so any node
    numbering (a masked grid, a mixed term's diagonal neighbours) is served.
    """
    lower = scipy.sparse.tril(matrix).tocoo()
    offset = lower.row - lower.col
    band = np.zeros((offset.max(initial=0) + 1, matrix.shape[0]))
    band[offset, lower.col] = lower.data
    return scipy.linalg.eigvals_banded(band, lower=True)


def _dense_spectrum(q_matrix: np.ndarray, m: int) -> SpectralReport:
    """The summary of a dense M x M propagator from its eigvals and two SVDs."""
    q = np.asarray(q_matrix, dtype=float)
    if q.shape != (m, m):
        raise ValueError(f"propagator matrix must be {m}x{m}, got {q.shape}")
    if not np.all(np.isfinite(q)):
        raise NumericalBreakdown("propagator matrix contains non-finite entries")
    eigs = np.linalg.eigvals(q)
    sing = scipy.linalg.svdvals(q)
    sigma_max = float(sing[0])
    sigma_min = float(sing[-1])
    if sigma_max <= 0.0:
        raise NumericalBreakdown("propagator matrix is numerically zero")
    if sigma_min <= 0.0:
        log10_cond = np.inf
    else:
        log10_cond = float(np.log10(sigma_max) - np.log10(sigma_min))
    sing_iq = scipy.linalg.svdvals(np.eye(m) - q)
    if sing_iq[-1] <= 0.0:
        raise NumericalBreakdown("I - Q is numerically singular")
    return SpectralReport(
        eigenvalues=eigs,
        spectral_radius=float(np.max(np.abs(eigs))),
        log10_cond_Q=log10_cond,
        cond_identity_minus_Q=float(sing_iq[0] / sing_iq[-1]),
        route="dense",
    )
