import numpy as np
import pytest

from profile_shift import (
    CoefficientField,
    ProfileShift,
    ThetaStepper,
    TimeGrid,
    Trajectory,
    UnknownCase,
    absorb,
    box2d,
    build_grid,
    check_fixed_shift,
    check_mass,
    check_positivity,
    check_random_shifts,
    compare_posedness,
    convergence_study,
    dense_propagator,
    drift,
    heat,
    interval,
    solve_profile_shift,
    spectral_analysis,
)
from profile_shift import validation

INV_GAP_1 = 1.5819767068693265  # 1 / (1 - e^-1)
MASS_GAP = 2.163953413738653  # |2/(1 - e^-1) - 1|
EXP_M1 = 0.36787944117144233


def hand_trajectory(grid, tg, profile):
    """Trajectory whose slice at t is exp(-t) * profile (first heat mode)."""
    times = tg.time(np.arange(tg.steps + 1))
    return Trajectory(np.exp(-times)[:, None] * profile, grid, tg)


class TestFixedShift:
    def test_solver_output_passes(self, grid1d):
        grid = grid1d(63)
        tg = TimeGrid(T=1.0, steps=64)
        gamma = np.sin(grid.coordinates()[:, 0])
        report = solve_profile_shift(ProfileShift(gamma), heat(1), grid, tg)
        check = check_fixed_shift(report.trajectory, gamma, tol=1e-10)
        assert check.passed
        assert check.residual <= 1e-10

    def test_zero_trajectory_has_unit_residual(self, grid1d):
        grid = grid1d(31)
        tg = TimeGrid(T=1.0, steps=4)
        zero = hand_trajectory(grid, tg, np.zeros(31))
        gamma = np.sin(grid.coordinates()[:, 0])
        check = check_fixed_shift(zero, gamma, tol=1e-10)
        assert check.residual == pytest.approx(1.0)
        assert not check.passed

    def test_zero_gamma_reports_the_absolute_defect(self, grid1d):
        grid = grid1d(15)
        tg = TimeGrid(T=1.0, steps=8)
        marched = ThetaStepper(heat(1), grid, tg).run(np.sin(grid.coordinates()[:, 0]), keep=True)
        heat_march = Trajectory(marched, grid, tg)
        defect = np.linalg.norm(heat_march.initial - heat_march.terminal)
        check = check_fixed_shift(heat_march, np.zeros(15), tol=1e-10)
        assert check.residual == defect
        assert 1.0 < check.residual < 2.0 and not check.passed

    def test_analytic_trajectory(self, grid1d):
        # u = e^-t * zeta with zeta = gamma/(1 - e^-1) satisfies the identity
        # exactly at the nodes, regardless of grid resolution
        grid = grid1d(17)
        tg = TimeGrid(T=1.0, steps=8)
        gamma = np.sin(grid.coordinates()[:, 0])
        traj = hand_trajectory(grid, tg, INV_GAP_1 * gamma)
        assert check_fixed_shift(traj, gamma, tol=1e-12).residual <= 1e-12

    def test_zero_gamma_zero_trajectory(self, grid1d):
        grid = grid1d(9)
        tg = TimeGrid(T=1.0, steps=2)
        zero = hand_trajectory(grid, tg, np.zeros(9))
        check = check_fixed_shift(zero, np.zeros(9), tol=1e-10)
        assert check.residual == 0.0
        assert check.passed


class TestRandomShifts:
    def test_block_of_shifts_meets_the_tolerance(self, grid1d, rng):
        grid = grid1d(63)
        stepper = ThetaStepper(heat(1), grid, TimeGrid(T=1.0, steps=64))
        check = check_random_shifts(stepper, rng.standard_normal((63, 5)), tol=1e-10)
        assert check.passed and 0.0 < check.residual <= check.tol == 1e-10

    def test_columns_of_unequal_norm(self, grid1d, rng, gmres_spy):
        # Unscaled, the block bound tol * min_j ||g_j|| lay below the
        # rounding of the large column: NoConvergence after about 9800
        # iterations with every column solved to 3e-17.
        stepper = ThetaStepper(heat(1), grid1d(63), TimeGrid(T=1.0, steps=64))
        g1, g2 = rng.standard_normal((2, 63))
        check = check_random_shifts(stepper, np.column_stack([1e-8 * g1, g2]), tol=1e-10)
        assert check.passed and 0.0 < check.residual <= 1e-10
        assert gmres_spy["iterations"] <= 10

    def test_block_is_marched_once_per_matvec(self, grid1d, rng, marches, gmres_spy):
        stepper = ThetaStepper(heat(1), grid1d(63), TimeGrid(T=1.0, steps=64))
        check_random_shifts(stepper, rng.standard_normal((63, 5)), tol=1e-10)
        # one cycle: a march per iteration and one for the true residual
        assert len(marches) == gmres_spy["iterations"] + 1

    def test_zero_column_refused(self, grid1d, rng):
        stepper = ThetaStepper(heat(1), grid1d(63), TimeGrid(T=1.0, steps=4))
        gammas = rng.standard_normal((63, 3))
        gammas[:, 1] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            check_random_shifts(stepper, gammas)

    def test_shape_checked(self, grid1d, rng):
        stepper = ThetaStepper(heat(1), grid1d(63), TimeGrid(T=1.0, steps=4))
        for gammas in (rng.standard_normal(63), rng.standard_normal((31, 2))):
            with pytest.raises(ValueError, match="shape"):
                check_random_shifts(stepper, gammas)


class TestPositivity:
    def test_detector_flags_planted_negative(self, grid1d):
        grid = grid1d(9)
        tg = TimeGrid(T=1.0, steps=2)
        values = np.ones(9)
        bad = values.copy()
        bad[4] = -1e-6
        traj = Trajectory(np.stack([values, bad, values]), grid, tg)
        report = check_positivity(traj)
        assert report.violation_count >= 1
        assert not report.passed
        assert report.min_value_global == pytest.approx(-1e-6)
        # the invariant: violations iff the global min dips below -tol
        assert (report.violation_count == 0) == (
            report.min_value_global >= -report.positivity_tol
        )

    def test_tolerance_separates_noise_from_violation(self, grid1d):
        grid = grid1d(5)
        tg = TimeGrid(T=1.0, steps=1)
        noisy = np.array([1.0, -1e-13, 1.0, 1.0, 1.0])
        traj = Trajectory(np.stack([noisy, noisy]), grid, tg)
        assert check_positivity(traj).violation_count == 0
        assert check_positivity(traj, positivity_tol=1e-14).violation_count == 2

    def test_degenerate_zero_solution(self, grid1d):
        grid = grid1d(9)
        tg = TimeGrid(T=1.0, steps=4)
        zero = hand_trajectory(grid, tg, np.zeros(9))
        report = check_positivity(zero)
        assert report.violation_count == 0
        assert report.min_value_global == 0.0

    def test_nonneg_solve_is_strictly_positive_inside(self, grid1d):
        grid = grid1d(63)
        tg = TimeGrid(T=1.0, steps=64, theta=1.0)
        x = grid.coordinates()[:, 0]
        gamma = np.where(np.abs(x - 1.2) < 0.3, 1.0, 0.0)
        report = solve_profile_shift(ProfileShift(gamma, nonneg=True), heat(1), grid, tg)
        scan = check_positivity(report.normalized)
        assert scan.violation_count == 0
        assert scan.min_interior_positive_time > 0.0
        assert report.normalized.terminal.min() > 0.0

    def test_positivity_per_component_on_split_domain(self):
        # gamma supported in one component: that component is strictly
        # positive at T, the untouched component stays identically zero
        mask = np.ones((15, 15), dtype=bool)
        mask[7, :] = False
        grid = build_grid(box2d(mask=mask), [15, 15])
        supported = grid.nodes[:, 0] < 7
        tg = TimeGrid(T=1.0, steps=64, theta=1.0)
        gamma = np.where(supported, 1.0, 0.0)
        report = solve_profile_shift(ProfileShift(gamma, nonneg=True), heat(2), grid, tg)
        assert report.trajectory.terminal[supported].min() > 0.0
        assert np.abs(report.trajectory.terminal[~supported]).max() == 0.0
        assert check_positivity(report.normalized).violation_count == 0


class TestMass:
    def test_normalized_mass_is_one(self, grid1d):
        grid = grid1d(63)
        tg = TimeGrid(T=1.0, steps=64)
        gamma = np.sin(grid.coordinates()[:, 0])
        report = solve_profile_shift(ProfileShift(gamma, nonneg=True), heat(1), grid, tg)
        assert check_mass(report.normalized) <= 1e-12

    def test_unnormalized_sine_mass_gap(self):
        # integral of zeta = sin/(1 - e^-1) over (0, pi) is 2/(1 - e^-1)
        grid = build_grid(interval(0.0, np.pi), [127])
        tg = TimeGrid(T=1.0, steps=512, theta=0.5)
        gamma = np.sin(grid.coordinates()[:, 0])
        report = solve_profile_shift(
            ProfileShift(gamma), heat(1), grid, tg, "centered"
        )
        assert check_mass(report.trajectory) == pytest.approx(MASS_GAP, abs=2e-3)

    def test_double_scaling_gap(self, grid1d):
        grid = grid1d(63)
        tg = TimeGrid(T=1.0, steps=64)
        gamma = np.sin(grid.coordinates()[:, 0])
        report = solve_profile_shift(ProfileShift(gamma, nonneg=True), heat(1), grid, tg)
        assert check_mass(report.normalized.scaled(2.0)) == pytest.approx(1.0, abs=1e-12)


class TestPosedness:
    def test_heat_ladder_contrast(self):
        report = compare_posedness(heat(1), interval(0.0, np.pi), 1.0, (15, 31, 63))
        ms = [r.M for r in report.records]
        assert ms == [15, 31, 63]
        conds = [r.cond_identity_minus_Q for r in report.records]
        logs = [r.log10_cond_Q for r in report.records]
        rhos = [r.spectral_radius for r in report.records]
        assert all(c <= 2.0 for c in conds)
        assert max(conds) <= 2.0 * conds[0]
        assert logs[0] >= 40.0
        assert logs[0] < logs[1] < logs[2]
        assert all(r < 1.0 for r in rhos)
        # refinement drives the leading eigenvalue toward e^{-T}
        assert abs(rhos[-1] - EXP_M1) < abs(rhos[0] - EXP_M1)
        assert np.isfinite(report.slope_vs_M2) and report.slope_vs_M2 > 0.0

    def test_records_name_their_route(self):
        domain = interval(0.0, np.pi)
        heat_ladder = compare_posedness(heat(1), domain, 1.0, (7, 15), steps=32)
        assert [r.route for r in heat_ladder.records] == ["generator", "generator"]
        drift_ladder = compare_posedness(drift([1.0]), domain, 1.0, (7, 15), steps=32)
        assert [r.route for r in drift_ladder.records] == ["dense", "dense"]

    def test_small_horizon_degrades_forward_conditioning(self):
        domain = interval(0.0, np.pi)
        long = compare_posedness(heat(1), domain, 1.0, (15,), steps=64)
        short = compare_posedness(heat(1), domain, 0.1, (15,), steps=64)
        c_long = long.records[0].cond_identity_minus_Q
        c_short = short.records[0].cond_identity_minus_Q
        assert c_short > 5.0 * c_long

    def test_time_dependent_field_uses_dense_q(self):
        # a = 1 + 3t: the spectrum of A_h(0) alone gave log10 cond(Q) = 6.11
        # and log10 rho = -0.416; Q's singular values and eigenvalues say otherwise
        coeffs = CoefficientField(
            dimension=1,
            a=lambda x, t: np.array([[1.0 + 3.0 * t]]),
            f=lambda x, t: np.zeros(1),
            q=lambda x, t: 0.0,
            delta=1.0,
            time_dependent=True,
        )
        domain = interval(0.0, np.pi)
        record = compare_posedness(
            coeffs, domain, 1.0, (7,), steps=16, theta=1.0, advection_mode="centered"
        ).records[0]
        q = dense_propagator(ThetaStepper(
            coeffs, build_grid(domain, [7]), TimeGrid(T=1.0, steps=16, theta=1.0), "centered"
        ))
        sing = np.linalg.svd(q, compute_uv=False)
        assert record.log10_cond_Q == pytest.approx(np.log10(sing[0] / sing[-1]), rel=1e-12)
        assert record.log10_cond_Q == pytest.approx(9.96, abs=0.01)
        assert np.log10(record.spectral_radius) == pytest.approx(-1.024, abs=1e-3)

    def test_absorption_shrinks_spectral_radius(self, grid1d):
        grid = grid1d(31)
        tg = TimeGrid(T=1.0, steps=64)
        rho = []
        for rate in (0.0, 0.5, 1.0):
            coeffs = heat(1) if rate == 0.0 else absorb(rate, 1)
            rho.append(spectral_analysis(ThetaStepper(coeffs, grid, tg)).spectral_radius)
        assert rho[0] > rho[1] > rho[2]


class TestConvergence:
    def test_unknown_case(self):
        with pytest.raises(UnknownCase):
            convergence_study("nosuch")

    def test_heat1d_orders(self):
        study = convergence_study("heat1d")
        assert study.spatial_order >= 1.9
        errs = [r.error_initial for r in study.spatial]
        assert all(a / b >= 3.5 for a, b in zip(errs, errs[1:]))
        # spacing really halves down the ladder
        hs = [r.h for r in study.spatial]
        assert hs[0] / hs[1] == pytest.approx(2.0)
        assert 0.85 <= study.temporal_order <= 1.15

    def test_crank_nicolson_is_second_order_in_time(self):
        study = convergence_study("heat1d", theta_temporal=0.5)
        assert study.temporal_order >= 1.9

    def test_absorbing_case_orders(self):
        study = convergence_study("heat1d-absorb")
        assert study.spatial_order >= 1.9
        assert 0.85 <= study.temporal_order <= 1.15

    def test_heat2d_orders(self):
        study = convergence_study("heat2d", resolutions=(7, 15, 31))
        assert study.spatial_order >= 1.9
        assert 0.85 <= study.temporal_order <= 1.15

    def test_single_node_error_equals_scalar_gap(self, monkeypatch):
        # hand-checkable: on one node the error is exactly the distance
        # between the discrete and semidiscrete scalar decay factors
        monkeypatch.setattr(validation, "TIME_STEPS", (4, 8))
        monkeypatch.setattr(validation, "TEMPORAL_RESOLUTION", {1: 1})
        study = convergence_study("heat1d")
        lam = 8.0 / np.pi**2
        for row in study.temporal:
            mu = (1.0 + row.dt * lam) ** (-row.steps)
            gap = abs(1.0 / (1.0 - mu) - 1.0 / (1.0 - np.exp(-lam)))
            assert row.error == pytest.approx(gap, rel=1e-6)
