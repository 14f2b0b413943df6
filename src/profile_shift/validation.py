"""Measurement suites for the qualitative guarantees of the solver.

Four families: the two-time identity residual, nonnegativity of normalized
solutions (discrete maximum-principle analog), unit-mass normalization,
and the conditioning contrast between the profile-shift problem (bounded)
and the backward terminal-value problem (explosively ill-conditioned).
All functions here measure; they never mutate solver state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadResolution, UnknownCase
from .fredholm import (
    ProfileShift,
    _gmres_identity_minus_q,
    _shift_residual,
    solve_profile_shift,
    spectral_analysis,
)
from .grid import Domain, Grid, build_grid, interval, box2d
from .operators import CoefficientField, absorb
from .propagator import ThetaStepper, TimeGrid, Trajectory, _column_norms


@dataclass(frozen=True)
class ShiftCheck:
    """Relative residual of u(., 0) - u(., T) = gamma; absolute for a zero gamma."""

    residual: float
    tol: float
    passed: bool


def check_fixed_shift(trajectory: Trajectory, gamma: np.ndarray, tol: float = 1e-10) -> ShiftCheck:
    """Measure how well a trajectory realizes the prescribed profile shift."""
    gamma = np.asarray(gamma, dtype=float)
    residual = float(_shift_residual(trajectory.initial, trajectory.terminal, gamma))
    return ShiftCheck(residual=residual, tol=tol, passed=residual <= tol)


@dataclass(frozen=True, eq=False)
class BlockShiftCheck:
    """One block solve of (I - Q) Z = G over unit-norm columns, with its march.

    ``residuals[j]`` is column j's relative residual
    ||z_j - (QZ)_j - g_j|| / ||g_j||; ``zeta`` is Z, shape (M, k), and
    ``terminal`` is QZ, from the march of Z that ended the block solve.
    ``residual`` and ``passed`` are those of the worst column.
    """

    residuals: np.ndarray
    tol: float
    zeta: np.ndarray
    terminal: np.ndarray

    @property
    def residual(self) -> float:
        return float(self.residuals.max())

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def columns(self, index) -> ShiftCheck:
        """The worst of the columns picked by ``index`` (an int or a slice)."""
        worst = float(np.max(self.residuals[index]))
        return ShiftCheck(residual=worst, tol=self.tol, passed=worst <= self.tol)


def check_random_shifts(
    stepper: ThetaStepper,
    gammas: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 200,
    restart: int = 50,
) -> BlockShiftCheck:
    """Solve (I - Q) Z = G for the columns of ``gammas`` (M, k) at once.

    Each column is scaled to unit norm first, so the block's stopping bound
    (see ``_gmres_identity_minus_q``) holds every column to tol whatever the
    spread of their norms; Z solves the scaled system.  One block GMRES
    solve gives Z, and the march that ended it, which verified Z, gives QZ,
    so Z is not marched again.  The residuals do not depend on the scale
    in exact arithmetic, but in floating point they differ from the
    unscaled solve's in their trailing digits.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 2 or gammas.shape[0] != stepper.grid.size:
        raise ValueError(
            f"gammas must have shape ({stepper.grid.size}, k), got {gammas.shape}"
        )
    norms = _column_norms(gammas)
    if not norms.all():
        raise ValueError("every column of gammas must be nonzero")
    unit = gammas / norms
    zeta, _, qz, _ = _gmres_identity_minus_q(stepper, unit, tol, max_iter, restart)
    residuals = _shift_residual(zeta, qz, unit)
    return BlockShiftCheck(residuals=residuals, tol=tol, zeta=zeta, terminal=qz)


@dataclass(frozen=True)
class PrincipleReport:
    """Positivity scan over a whole trajectory.

    min_interior_positive_time is taken over slices with t >= dt, where the
    strict-positivity claim applies; t = 0 is only required nonnegative.
    """

    min_value_global: float
    min_interior_positive_time: float
    violation_count: int
    positivity_tol: float

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def check_positivity(trajectory: Trajectory, positivity_tol: float = 1e-12) -> PrincipleReport:
    """Scan all slices for entries below -positivity_tol."""
    values = trajectory.values
    return PrincipleReport(
        min_value_global=float(values.min()),
        # row k holds t_k, so the slices with t >= dt are every row after the first
        min_interior_positive_time=float(values[1:].min()),
        violation_count=int(np.count_nonzero(values < -positivity_tol)),
        positivity_tol=positivity_tol,
    )


def check_mass(p_trajectory: Trajectory) -> float:
    """Distance of the initial discrete integral from 1."""
    mass = float(np.sum(p_trajectory.initial)) * p_trajectory.grid.cell_volume
    return abs(mass - 1.0)


@dataclass(frozen=True)
class PosednessRecord:
    """One rung of the ladder; ``route`` is the spectral route that gave its values."""

    M: int
    cond_identity_minus_Q: float
    log10_cond_Q: float
    spectral_radius: float
    route: str


@dataclass(frozen=True)
class PosednessReport:
    """Well- vs ill-posedness contrast across a resolution ladder.

    The forward profile-shift system I - Q_h stays uniformly well
    conditioned; the backward problem's matrix Q_h blows up, so its
    condition number is recorded in log10 (it leaves the double range on
    fine grids).  slope_vs_M2 is the fitted growth rate of log10 cond(Q_h)
    against M^2.
    """

    records: tuple[PosednessRecord, ...]
    slope_vs_M2: float


def _ladder(resolutions, least: int) -> tuple[int, ...]:
    """The distinct node counts of ``resolutions``, ascending.

    The one reading of a sweep's resolution ladder: ``compare_posedness``
    needs one rung and ``convergence_study`` two, since a fitted order
    needs two distinct h.  Raises BadResolution for fewer than ``least``.
    """
    given = [int(m) for m in resolutions]
    ladder = tuple(sorted(set(given)))
    if len(ladder) < least:
        raise BadResolution(
            f"resolution ladder {given} has {len(ladder)} distinct node count(s); "
            f"this sweep needs at least {least}"
        )
    return ladder


def compare_posedness(
    coeffs: CoefficientField,
    domain: Domain,
    timegrid: TimeGrid,
    resolutions,
    advection_mode: str = "upwind",
) -> PosednessReport:
    """Measure cond(I - Q_h) and cond(Q_h) across grid resolutions on one time grid.

    Each rung's values come from ``spectral_analysis``: from the eigenvalues
    of A_h when the generator is symmetric and does not depend on time (exact
    in log space, no dense Q_h built), otherwise from the dense Q_h, whose
    singular values saturate near 1e19 and then understate cond(Q_h).  The
    backward problem is never solved, only measured.
    """
    records = []
    for m in _ladder(resolutions, 1):
        grid = build_grid(domain, [m] * domain.dimension)
        report = spectral_analysis(ThetaStepper(coeffs, grid, timegrid, advection_mode))
        records.append(
            PosednessRecord(
                M=grid.size,
                cond_identity_minus_Q=report.cond_identity_minus_Q,
                log10_cond_Q=report.log10_cond_Q,
                spectral_radius=report.spectral_radius,
                route=report.route,
            )
        )
    m2 = np.array([r.M**2 for r in records], dtype=float)
    lc = np.array([r.log10_cond_Q for r in records])
    slope = float(np.polyfit(m2, lc, 1)[0]) if len(records) >= 2 else float("nan")
    return PosednessReport(records=tuple(records), slope_vs_M2=slope)


@dataclass(frozen=True)
class AnalyticCase:
    """Registered closed-form configuration for convergence studies.

    gamma is the first Dirichlet eigenfunction, so the continuum solution
    is u(x, t) = exp(-lambda t) gamma(x) / (1 - exp(-lambda T)) and the
    grid samples of gamma are exact eigenvectors of the discrete generator
    with eigenvalue -discrete_lambda(h).
    """

    dimension: int
    absorption: float

    def domain(self) -> Domain:
        return interval(0.0, np.pi) if self.dimension == 1 else box2d((0.0, np.pi), (0.0, np.pi))

    def coefficients(self) -> CoefficientField:
        return absorb(self.absorption, dimension=self.dimension)

    def gamma_on(self, grid: Grid) -> np.ndarray:
        return np.prod(np.sin(grid.coordinates()), axis=1)

    def continuum_lambda(self) -> float:
        return float(self.dimension) + self.absorption

    def discrete_lambda(self, h: float) -> float:
        per_axis = (4.0 / h**2) * np.sin(h / 2.0) ** 2
        return float(self.dimension * per_axis + self.absorption)


CASES = {
    "heat1d": AnalyticCase(dimension=1, absorption=0.0),
    "heat1d-absorb": AnalyticCase(dimension=1, absorption=1.0),
    "heat2d": AnalyticCase(dimension=2, absorption=0.0),
}


def match_case(domain: Domain, absorption: float) -> str:
    """The key of the case in CASES whose closed form holds on ``domain``.

    Every case lives on the unmasked box (0, pi) per axis, whose ends
    ``domain`` must match to 1e-12 (lower) and 1e-9 (upper); a case matches
    by its dimension and absorption rate.  Raises UnknownCase otherwise.
    """
    on_pi_box = all(abs(lo) <= 1e-12 and abs(hi - np.pi) <= 1e-9 for lo, hi in domain.box)
    if not on_pi_box or domain.mask is not None:
        raise UnknownCase("convergence studies require the unmasked box (0, pi) per axis")
    for name, case in CASES.items():
        if (case.dimension, case.absorption) == (domain.dimension, absorption):
            return name
    raise UnknownCase(
        f"no closed form registered for dimension {domain.dimension} and absorption "
        f"{absorption}; registered: {', '.join(sorted(CASES))}"
    )


# convergence_study's fixed settings: the default spatial ladder (also the CLI's
# posedness default), each rung's theta and steps, the temporal ladder's
# steps and its grid's nodes per axis by dimension, and every solve's tolerance.
RESOLUTIONS = (15, 31, 63)
THETA_SPATIAL = 0.5
SPATIAL_STEPS = 512
TIME_STEPS = (8, 16, 32, 64)
TEMPORAL_RESOLUTION = {1: 63, 2: 31}
STUDY_TOL = 1e-12


@dataclass(frozen=True)
class SpatialRow:
    M: int
    h: float
    error_initial: float
    error_terminal: float


@dataclass(frozen=True)
class TemporalRow:
    steps: int
    dt: float
    error: float


@dataclass(frozen=True)
class ConvergenceStudy:
    """Error ladders and fitted orders; ``passed`` needs a spatial order >= 1.9
    and a temporal order >= ``temporal_order_threshold``.
    """

    case: str
    spatial: tuple[SpatialRow, ...]
    spatial_order: float
    theta_spatial: float
    temporal: tuple[TemporalRow, ...]
    temporal_order: float
    theta_temporal: float
    temporal_order_threshold: float

    @property
    def passed(self) -> bool:
        return self.spatial_order >= 1.9 and self.temporal_order >= self.temporal_order_threshold


def _fit_order(scales, errors) -> float:
    s = np.log(np.asarray(scales, dtype=float))
    e = np.log(np.maximum(np.asarray(errors, dtype=float), 1e-16))
    return float(np.polyfit(s, e, 1)[0])


def convergence_study(
    case_id: str,
    resolutions=RESOLUTIONS,
    theta_temporal: float = 1.0,
    T: float = 1.0,
) -> ConvergenceStudy:
    """Error ladders against the closed-form solution of a registered case.

    Spatial ladder: refine h at many time steps and Crank-Nicolson, so the
    measured error is dominated by the O(h^2) stencil error against the
    continuum solution; its rungs are the distinct ``resolutions``,
    ascending, and fewer than two raise BadResolution.  Temporal ladder:
    refine dt on one fixed grid and compare against the exact semidiscrete
    solution (discrete eigenvalue in the exponential), isolating the
    O(dt^theta-order) time error, whose least passing order is 1.8 for
    theta_temporal <= 0.75 and 0.9 above.
    """
    if case_id not in CASES:
        raise UnknownCase(
            f"no registered closed form for case '{case_id}'; "
            f"known cases: {', '.join(sorted(CASES))}"
        )
    case = CASES[case_id]
    lam = case.continuum_lambda()
    domain = case.domain()
    coeffs = case.coefficients()

    spatial_rows = []
    for m in _ladder(resolutions, 2):
        grid = build_grid(domain, [m] * case.dimension)
        timegrid = TimeGrid(T=T, steps=SPATIAL_STEPS, theta=THETA_SPATIAL)
        gamma = case.gamma_on(grid)
        report = solve_profile_shift(
            ProfileShift(gamma), coeffs, grid, timegrid,
            advection_mode="centered", tol=STUDY_TOL,
        )
        zeta_exact = gamma / -np.expm1(-lam * T)
        u_term_exact = np.exp(-lam * T) * zeta_exact
        spatial_rows.append(
            SpatialRow(
                M=grid.size,
                h=float(grid.h[0]),
                error_initial=float(np.max(np.abs(report.trajectory.initial - zeta_exact))),
                error_terminal=float(np.max(np.abs(report.trajectory.terminal - u_term_exact))),
            )
        )
    spatial_order = _fit_order(
        [r.h for r in spatial_rows], [r.error_initial for r in spatial_rows]
    )

    grid = build_grid(domain, [TEMPORAL_RESOLUTION[case.dimension]] * case.dimension)
    gamma = case.gamma_on(grid)
    lam_h = case.discrete_lambda(float(grid.h[0]))
    zeta_semi = gamma / -np.expm1(-lam_h * T)
    temporal_rows = []
    for steps in TIME_STEPS:
        timegrid = TimeGrid(T=T, steps=int(steps), theta=theta_temporal)
        report = solve_profile_shift(
            ProfileShift(gamma), coeffs, grid, timegrid,
            advection_mode="centered", tol=STUDY_TOL,
        )
        temporal_rows.append(
            TemporalRow(
                steps=int(steps),
                dt=timegrid.dt,
                error=float(np.max(np.abs(report.trajectory.initial - zeta_semi))),
            )
        )
    temporal_order = _fit_order(
        [r.dt for r in temporal_rows], [r.error for r in temporal_rows]
    )

    return ConvergenceStudy(
        case=case_id,
        spatial=tuple(spatial_rows),
        spatial_order=spatial_order,
        theta_spatial=THETA_SPATIAL,
        temporal=tuple(temporal_rows),
        temporal_order=temporal_order,
        theta_temporal=theta_temporal,
        temporal_order_threshold=1.8 if theta_temporal <= 0.75 else 0.9,
    )
