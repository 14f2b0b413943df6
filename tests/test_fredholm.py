import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from profile_shift import (
    CoefficientField,
    NoConvergence,
    NonpositiveMass,
    NumericalBreakdown,
    ProfileShift,
    ThetaStepper,
    TimeGrid,
    TooLarge,
    Trajectory,
    anisotropic,
    box2d,
    build_grid,
    check_random_shifts,
    dense_propagator,
    drift,
    heat,
    interval,
    normalize,
    solve_profile_shift,
    spectral_analysis,
    tabulated,
)
from profile_shift import fredholm
from profile_shift.fredholm import (
    DEFLATION_CAP,
    DENSE_CAP,
    _banded_eigvalsh,
    _component_factors,
    _dense_spectrum,
    _gmres_identity_minus_q,
    _real_basis,
    _shift_residual,
    _slow_modes,
    _slow_projector,
)

INV_GAP_1 = 1.5819767068693265  # 1 / (1 - e^-1)
INV_GAP_4 = 1.018657360363774  # 1 / (1 - e^-4)
ALPHA_SIN = 0.31606027941427883  # (1 - e^-1) / 2
SCALAR_BE = 0.5523124171952957  # 1 / (1 + 8/pi^2)


def solve_sine(m=127, steps=512, theta=0.5, T=1.0, nonneg=True):
    grid = build_grid(interval(0.0, np.pi), [m])
    tg = TimeGrid(T=T, steps=steps, theta=theta)
    gamma = np.sin(grid.coordinates()[:, 0])
    report = solve_profile_shift(
        ProfileShift(gamma, nonneg=nonneg), heat(1), grid, tg, "centered"
    )
    return grid, gamma, report


class TestProfileShift:
    def test_requires_vector(self):
        with pytest.raises(ValueError):
            ProfileShift(np.zeros((3, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ProfileShift(np.array([1.0, np.nan]))

    def test_nonneg_flag_enforced(self):
        with pytest.raises(ValueError):
            ProfileShift(np.array([1.0, -0.1]), nonneg=True)
        with pytest.raises(ValueError):
            ProfileShift(np.zeros(4), nonneg=True)
        shift = ProfileShift(np.array([0.0, 2.0]), nonneg=True)
        assert shift.nonneg


class TestSolve:
    def test_zero_shift_gives_zero_solution(self, grid1d):
        grid = grid1d(31)
        report = solve_profile_shift(
            ProfileShift(np.zeros(31)), heat(1), grid, TimeGrid(T=1.0, steps=16)
        )
        assert report.iterations == 0
        assert report.zeta == pytest.approx(np.zeros(31))
        assert report.trajectory.as_array() == pytest.approx(np.zeros((17, 31)))
        assert report.relative_residual == 0.0
        assert report.alpha is None

    def test_single_mode_closed_form(self):
        grid, gamma, report = solve_sine()
        x = grid.coordinates()[:, 0]
        assert np.max(np.abs(report.zeta - INV_GAP_1 * np.sin(x))) <= 1e-3
        assert report.relative_residual <= 1e-10
        assert report.iterations <= 3
        # the whole trajectory is e^{-t} zeta
        for k in (128, 256, 384):
            expect = np.exp(-report.trajectory.times[k]) * INV_GAP_1 * np.sin(x)
            assert np.max(np.abs(report.trajectory.values[k] - expect)) <= 1e-3

    def test_two_mode_closed_form(self):
        grid = build_grid(interval(0.0, np.pi), [127])
        tg = TimeGrid(T=1.0, steps=512, theta=0.5)
        x = grid.coordinates()[:, 0]
        gamma = np.sin(x) + np.sin(2 * x)
        report = solve_profile_shift(ProfileShift(gamma), heat(1), grid, tg, "centered")
        expect = INV_GAP_1 * np.sin(x) + INV_GAP_4 * np.sin(2 * x)
        assert np.max(np.abs(report.zeta - expect)) <= 1e-3

    def test_normalization_pair(self):
        grid, gamma, report = solve_sine()
        x = grid.coordinates()[:, 0]
        assert report.alpha == pytest.approx(ALPHA_SIN, abs=1e-3)
        assert np.max(np.abs(report.normalized.initial - np.sin(x) / 2.0)) <= 1e-3
        mass = np.sum(report.normalized.initial) * grid.cell_volume
        assert abs(mass - 1.0) <= 1e-12

    def test_normalized_profile_independent_of_horizon(self):
        # gamma is an eigenfunction, so alpha cancels the T dependence
        for T in (0.5, 2.0):
            grid, gamma, report = solve_sine(m=63, steps=256, T=T)
            x = grid.coordinates()[:, 0]
            assert np.max(np.abs(report.normalized.initial - np.sin(x) / 2.0)) <= 1e-3

    def test_gamma_rescaling(self, grid1d):
        grid = grid1d(63)
        tg = TimeGrid(T=1.0, steps=128)
        gamma = np.sin(grid.coordinates()[:, 0])
        base = solve_profile_shift(ProfileShift(gamma, nonneg=True), heat(1), grid, tg)
        s = 3.0
        scaled = solve_profile_shift(ProfileShift(s * gamma, nonneg=True), heat(1), grid, tg)
        assert scaled.alpha * s == pytest.approx(base.alpha, rel=1e-10)
        assert np.max(np.abs(scaled.normalized.initial - base.normalized.initial)) <= 1e-10

    def test_solution_map_is_linear(self, grid1d, rng):
        grid = grid1d(31)
        tg = TimeGrid(T=1.0, steps=64)
        coeffs = heat(1)
        stepper = ThetaStepper(coeffs, grid, tg)

        def solve(g):
            return solve_profile_shift(
                ProfileShift(g), coeffs, grid, tg, stepper=stepper
            ).trajectory.as_array()

        for _ in range(3):
            g1 = rng.standard_normal(31)
            g2 = rng.standard_normal(31)
            combined = solve(g1 + g2)
            split = solve(g1) + solve(g2)
            scale = max(np.abs(split).max(), 1.0)
            assert np.abs(combined - split).max() <= 10 * 1e-10 * scale

    def test_matches_dense_direct_solve(self, grid1d, rng):
        grid = grid1d(31)
        tg = TimeGrid(T=1.0, steps=64)
        q = dense_propagator(ThetaStepper(heat(1), grid, tg))
        system = np.eye(31) - q
        for _ in range(5):
            gamma = rng.standard_normal(31)
            zeta = solve_profile_shift(ProfileShift(gamma), heat(1), grid, tg).zeta
            direct = np.linalg.solve(system, gamma)
            assert np.linalg.norm(zeta - direct) <= 1e-8 * np.linalg.norm(direct)

    def test_stability_estimate_against_oracle_norm(self, grid1d, rng):
        # discrete stability estimate: max_t ||u(t)|| <= ||(I-Q)^-1|| ||gamma||
        grid = grid1d(31)
        tg = TimeGrid(T=1.0, steps=64)
        coeffs = heat(1)
        q = dense_propagator(ThetaStepper(coeffs, grid, tg))
        opnorm = 1.0 / np.linalg.svd(np.eye(31) - q, compute_uv=False)[-1]
        stepper = ThetaStepper(coeffs, grid, tg)
        for _ in range(10):
            gamma = rng.standard_normal(31)
            traj = solve_profile_shift(
                ProfileShift(gamma), coeffs, grid, tg, stepper=stepper
            ).trajectory
            peak = np.max(np.linalg.norm(traj.as_array(), axis=1))
            assert peak <= opnorm * np.linalg.norm(gamma) * (1.0 + 1e-8)

    def test_no_convergence_reports_iterations(self, grid1d, rng):
        # near-zero horizon: I - Q is badly conditioned, one Krylov vector
        # cannot reach 1e-10
        grid = grid1d(63)
        tg = TimeGrid(T=0.01, steps=4)
        gamma = rng.standard_normal(63)
        with pytest.raises(NoConvergence) as info:
            solve_profile_shift(ProfileShift(gamma), heat(1), grid, tg, max_iter=1, restart=1)
        assert info.value.iterations >= 1
        assert info.value.residual > 1e-10
        # backward Euler establishes no cause, so none is named
        message = str(info.value)
        assert "max_iter" in message
        assert "q >= 0" not in message and "Crank-Nicolson" not in message
        # Crank-Nicolson names its stiff-mode multiplier and the fixes
        tg = TimeGrid(T=0.01, steps=4, theta=0.5)
        with pytest.raises(NoConvergence) as info:
            solve_profile_shift(ProfileShift(gamma), heat(1), grid, tg, max_iter=1, restart=1)
        assert info.value.theta == 0.5
        message = str(info.value)
        assert "Crank-Nicolson" in message and "tends to -1" in message
        assert "raise N_t" in message and "theta > 1/2" in message
        # A block names its worst column, not the Frobenius ratio: one
        # iteration solves the sine column, an eigenvector of Q, and leaves
        # the random column far from solved.  The time-dependent twin of
        # heat(1) has the same Q and no deflation, so the one iteration is
        # plain block GMRES.
        twin = dataclasses.replace(heat(1), time_dependent=True)
        stepper = ThetaStepper(twin, grid, TimeGrid(T=0.01, steps=4))
        block = np.column_stack([3.0 * np.sin(grid.coordinates()[:, 0]), gamma])
        with pytest.raises(NoConvergence) as info:
            _gmres_identity_minus_q(stepper, block, tol=1e-10, max_iter=1, restart=1)
        # One iteration leaves Z = G C with C minimizing ||G - (I - Q) G C||_F.
        image = block - stepper.run(block)
        defect = block - image @ np.linalg.lstsq(image, block, rcond=None)[0]
        per_column = np.linalg.norm(defect, axis=0) / np.linalg.norm(block, axis=0)
        frobenius = np.linalg.norm(defect) / np.linalg.norm(block)
        assert info.value.iterations == 1
        assert info.value.residual == pytest.approx(per_column.max(), rel=1e-9)
        assert per_column[0] < 1e-12 and per_column.max() > 2.0 * frobenius

    def test_block_bound_holds_for_each_column(self, grid1d):
        # A small slow mode beside a fast one: with one iteration per cycle a
        # bound relative to ||G||_F stops with the small column 500 times
        # above tol; min_j ||g_j|| holds every column to it.
        grid = grid1d(63)
        x = grid.coordinates()[:, 0]
        stepper = ThetaStepper(heat(1), grid, TimeGrid(T=1.0, steps=64))
        block = np.column_stack([1e-3 * np.sin(x), np.sin(20 * x)])
        zeta, *_ = _gmres_identity_minus_q(stepper, block, tol=1e-10, max_iter=200, restart=1)
        defect = zeta - stepper.run(zeta) - block
        assert np.all(np.linalg.norm(defect, axis=0) <= 1e-10 * np.linalg.norm(block, axis=0))

    @pytest.mark.parametrize("tol", [0.0, -1e-10, 1.0, 2.0, 5.0, np.inf, np.nan])
    def test_tolerance_must_lie_in_the_unit_interval(self, grid1d, tol):
        # From tol >= 1, zeta = 0 meets GMRES's bound before any iteration.
        # A zero gamma, which needs no iteration, is refused the same way.
        grid = grid1d(31)
        tg = TimeGrid(T=1.0, steps=8)
        gamma = np.sin(2.0 * grid.coordinates()[:, 0])
        for shift in (gamma, np.zeros(31)):
            with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
                solve_profile_shift(ProfileShift(shift), heat(1), grid, tg, tol=tol)
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            check_random_shifts(ThetaStepper(heat(1), grid, tg), gamma[:, None], tol=tol)

    @pytest.mark.parametrize(
        "name, value", [("restart", 0), ("restart", -3), ("max_iter", 0), ("max_iter", -1)]
    )
    def test_cycle_settings_must_be_positive(self, grid1d, name, value):
        # restart = 0 crashed on an unset local, restart < 0 in numpy, and
        # max_iter = 0 ended in a NoConvergence advising to raise max_iter.
        grid = grid1d(15)
        tg = TimeGrid(T=1.0, steps=16)
        coeffs = CoefficientField(
            dimension=1,
            a=lambda x, t: np.array([[1.0 + t]]),
            f=lambda x, t: np.array([np.sin(t)]),
            q=lambda x, t: float(t),
            delta=1.0,
            time_dependent=True,
        )
        gamma = np.sin(grid.coordinates()[:, 0])
        message = f"{name} must be at least 1, got {value}"
        for shift in (gamma, np.zeros(15)):
            with pytest.raises(ValueError, match=message):
                solve_profile_shift(ProfileShift(shift), coeffs, grid, tg, **{name: value})
        with pytest.raises(ValueError, match=message):
            check_random_shifts(ThetaStepper(coeffs, grid, tg), gamma[:, None], **{name: value})

    def test_gamma_shape_checked(self, grid1d):
        with pytest.raises(ValueError):
            solve_profile_shift(
                ProfileShift(np.ones(5)), heat(1), grid1d(31), TimeGrid(T=1.0, steps=4)
            )


def test_shift_residual_per_column_absolute_for_a_zero_gamma(rng):
    initial, terminal, gamma = (rng.standard_normal((9, 3)) for _ in range(3))
    gamma[:, 1] = 0.0
    got = _shift_residual(initial, terminal, gamma)
    defect = initial - terminal - gamma
    for j, scale in enumerate((np.linalg.norm(gamma[:, 0]), 1.0, np.linalg.norm(gamma[:, 2]))):
        assert got[j] == pytest.approx(np.linalg.norm(defect[:, j]) / scale, rel=1e-15)
        alone = _shift_residual(initial[:, j], terminal[:, j], gamma[:, j])
        assert alone.shape == () and alone == pytest.approx(got[j], rel=1e-15)
    assert _shift_residual(initial[:, 0], terminal[:, 0], gamma[:, 0]) == (
        np.linalg.norm(defect[:, 0]) / np.linalg.norm(gamma[:, 0])
    )


class TestBlockGmres:
    """One Krylov block per march: every column gains a direction per column of the block."""

    @staticmethod
    def six_unit_columns(grid2d, time_dependent, steps=64):
        # 15 x 15 upwind drift with absorption, backward Euler
        grid = grid2d(15)
        coeffs = dataclasses.replace(drift((1.0, -0.6), 0.4), time_dependent=time_dependent)
        stepper = ThetaStepper(coeffs, grid, TimeGrid(T=1.0, steps=steps))
        block = np.random.default_rng(0).standard_normal((grid.size, 6))
        block /= np.linalg.norm(block, axis=0)
        return stepper, block

    def test_six_unit_columns_converge_in_three_iterations(self, grid2d, marches):
        # Undeflated (the time-dependent twin has the same Q and M = I): each
        # column alone takes 4 iterations, and one shared Krylov polynomial
        # for all six would too; the block's space takes 3.
        stepper, block = self.six_unit_columns(grid2d, time_dependent=True)
        zeta, history, marched, deflated = _gmres_identity_minus_q(
            stepper, block, tol=1e-10, max_iter=200, restart=50
        )
        assert deflated == 0
        assert len(history) == 3 and history[-1] <= 1e-10
        assert len(marches) == 4
        defect = zeta - marched - block
        assert np.all(np.linalg.norm(defect, axis=0) <= 1e-10)

    def test_deflated_six_unit_columns_need_no_iteration(self, grid2d, marches):
        # N_t = 256 leaves room for ARPACK's 162 solves (172 expected).  With
        # the 20 slowest modes deflated, every eigenvalue left in Q has
        # |mu| <= 7.7e-15, so the start M^-1 G already meets the bound: its
        # one march is the only one.
        stepper, block = self.six_unit_columns(grid2d, time_dependent=False, steps=256)
        zeta, history, marched, deflated = _gmres_identity_minus_q(
            stepper, block, tol=1e-10, max_iter=200, restart=50
        )
        assert deflated == DEFLATION_CAP
        assert history == ()
        assert len(marches) == 1
        defect = zeta - marched - block
        assert np.all(np.linalg.norm(defect, axis=0) <= 1e-10)

    @pytest.mark.parametrize("nodes, width, repeat", [(63, 3, True), (2, 3, False), (4, 3, False)],
                             ids=["repeated-column", "fewer-nodes-than-columns", "fills-space"])
    def test_rank_deficient_block_solves(self, grid1d, rng, nodes, width, repeat):
        # A repeated column, M < k, and a basis that fills R^M: the dropped
        # directions raise nothing and the bound holds for every column.
        grid = grid1d(nodes)
        stepper = ThetaStepper(drift((1.5,), 0.25), grid, TimeGrid(T=1.0, steps=8))
        block = rng.standard_normal((nodes, width))
        if repeat:
            block[:, 2] = block[:, 0]
        zeta, _, marched, _ = _gmres_identity_minus_q(
            stepper, block, tol=1e-10, max_iter=200, restart=50
        )
        assert zeta.shape == block.shape
        defect = zeta - marched - block
        assert np.all(np.linalg.norm(defect, axis=0) <= 1e-10 * np.linalg.norm(block, axis=0))
        if repeat:
            assert np.linalg.norm(zeta[:, 2] - zeta[:, 0]) <= 1e-9 * np.linalg.norm(zeta[:, 0])

    def test_block_that_loses_rank_keeps_its_cycle(self):
        # The mask leaves three single nodes and a path of three, whose
        # middle eigenvalue is that of each single node, so Q has a fourfold
        # eigenvalue and span{R, (I - Q) R} of three columns has dimension 5:
        # the first iteration's QR has an R entry near 1e-16.  With that
        # direction replaced, one cycle of ceil(6 / 3) iterations spans R^6
        # and meets the bound.
        coeffs = CoefficientField(
            dimension=1,
            a=lambda x, t: (1.0 + 0.5 * np.sin(3.0 * t)) * np.eye(1),
            f=lambda x, t: np.zeros(1),
            q=lambda x, t: 0.0,
            delta=0.5,
            time_dependent=True,
        )
        mask = np.array([1, 0, 1, 0, 1, 1, 1, 0, 1], dtype=bool)
        grid = build_grid(interval(0.0, 1.0, mask=mask), [9])
        stepper = ThetaStepper(coeffs, grid, TimeGrid(T=1.0, steps=1, theta=0.5))
        block = np.random.default_rng(0).standard_normal((grid.size, 3))
        zeta, history, marched, _ = _gmres_identity_minus_q(
            stepper, block, tol=1e-10, max_iter=1, restart=grid.size
        )
        assert grid.size == 6 and len(history) == 2
        assert history[1] <= history[0] and history[1] <= 1e-10
        defect = zeta - marched - block
        assert np.all(np.linalg.norm(defect, axis=0) <= 1e-10 * np.linalg.norm(block, axis=0))


class TestLastMarch:
    """The trajectory is the march of zeta that ended the solve."""

    @staticmethod
    def problem(grid1d, rng):
        grid = grid1d(63)
        return ProfileShift(rng.standard_normal(63)), heat(1), grid, TimeGrid(T=1.0, steps=64)

    def test_converged_solve_marches_once_per_matvec(self, grid1d, rng, marches, gmres_spy):
        report = solve_profile_shift(*self.problem(grid1d, rng))
        # One march per iteration and one for the true residual that ends
        # the single restart cycle; none after the solver returns.  N_t = 64
        # is too short for ARPACK's solves, so GMRES is not deflated.
        assert report.deflated_modes == 0
        assert gmres_spy["iterations"] == report.iterations >= 1
        assert len(marches) == report.iterations + 1
        assert len(report.history) == report.iterations
        assert report.history[-1] <= 1e-10 < report.history[0]

    def test_deflated_solve_marches_once(self, grid1d, rng, marches, gmres_spy):
        # At N_t = 128 the 20 slowest modes of heat(1) are deflated, and the
        # start M^-1 gamma meets tol: its march gives the true residual and
        # is the trajectory, with no Krylov iteration.
        shift, coeffs, grid, _ = self.problem(grid1d, rng)
        report = solve_profile_shift(shift, coeffs, grid, TimeGrid(T=1.0, steps=128))
        assert report.deflated_modes == DEFLATION_CAP
        assert gmres_spy["iterations"] == report.iterations == 0
        assert len(marches) == 1
        assert report.history == ()
        assert report.relative_residual <= 1e-10

    def test_missed_deflated_start_costs_no_march(self, grid2d, rng, marches):
        # At T = 0.2 more modes of 2D heat are slow than the 20 deflated, so
        # the start misses the bound and GMRES restarts from its residual.
        # Started from zero, the deflated solve took 3 iterations and 4
        # marches, for the vector and for the block alike; starting from
        # M^-1 G saves one iteration, which pays for the start's march.
        grid, coeffs = grid2d(31), heat(2)
        timegrid = TimeGrid(T=0.2, steps=256)
        stepper = ThetaStepper(coeffs, grid, timegrid)
        report = solve_profile_shift(
            ProfileShift(rng.standard_normal(grid.size)), coeffs, grid, timegrid, stepper=stepper
        )
        assert report.deflated_modes == DEFLATION_CAP
        assert report.iterations >= 1 and report.relative_residual <= 1e-10
        assert len(marches) <= 4
        marches.clear()
        block = rng.standard_normal((grid.size, 6))
        block /= np.linalg.norm(block, axis=0)
        zeta, history, marched, deflated = _gmres_identity_minus_q(
            stepper, block, tol=1e-10, max_iter=200, restart=50
        )
        assert deflated == DEFLATION_CAP and len(history) >= 1
        assert np.all(np.linalg.norm(zeta - marched - block, axis=0) <= 1e-10)
        assert len(marches) <= 4

    def test_trajectory_is_the_march_of_zeta(self, grid1d, rng):
        shift, coeffs, grid, timegrid = self.problem(grid1d, rng)
        stepper = ThetaStepper(coeffs, grid, timegrid)
        report = solve_profile_shift(shift, coeffs, grid, timegrid, stepper=stepper)
        marched = stepper.run(report.zeta, keep=True)
        assert report.trajectory.values.tobytes() == marched.tobytes()

    def test_no_convergence_makes_no_march_of_its_own(self, grid1d, rng, marches, gmres_spy):
        grid = grid1d(63)
        with pytest.raises(NoConvergence):
            solve_profile_shift(
                ProfileShift(rng.standard_normal(63)), heat(1), grid,
                TimeGrid(T=0.01, steps=4), max_iter=1, restart=1,
            )
        assert gmres_spy["iterations"] == 1
        assert len(marches) == 2


def solve_2d_field(n=63):
    """The tabulated field of the solve-2d benchmark on the n x n interior of (0, pi)^2."""
    grid = build_grid(box2d(), [n, n])
    xs, ys = grid.coordinates().T
    a = np.zeros((grid.size, 2, 2))
    a[:, 0, 0] = 1.0 + 0.5 * np.sin(xs) * np.sin(ys)
    a[:, 1, 1] = 1.0 + 0.25 * np.cos(xs + ys)
    f = np.column_stack([1.5 * np.cos(ys), -np.sin(2.0 * xs)])
    q = 0.3 + 0.2 * np.sin(xs) * np.cos(ys)
    return grid, tabulated(grid, a, f, q)


class TestDeflation:
    """GMRES's right preconditioner from the slow modes of A_h."""

    @pytest.mark.parametrize("nodes", [1, 2, 3, 4, 5, 23, 24, 63])
    def test_tiny_grids_clip_the_modes(self, grid1d, rng, nodes):
        # ARPACK is asked for min(21, M - 2) eigenvalues, all distinct for
        # heat(1), and the last one found is never taken.  N_t = 128 leaves
        # room for its solves (2 ncv = 86 expected, 56 made at M = 63).
        grid, coeffs = grid1d(nodes), heat(1)
        timegrid = TimeGrid(T=1.0, steps=128)
        stepper = ThetaStepper(coeffs, grid, timegrid)
        expected = max(0, min(DEFLATION_CAP, nodes - 3))
        report = solve_profile_shift(
            ProfileShift(rng.standard_normal(nodes)), coeffs, grid, timegrid, stepper=stepper
        )
        assert report.deflated_modes == expected
        assert report.relative_residual <= 1e-10
        # A block with more columns than nodes spans R^M, an invariant
        # subspace: plain GMRES solves it in one iteration, with no modes.
        block = rng.standard_normal((nodes, nodes + 2))
        zeta, history, marched, deflated = _gmres_identity_minus_q(
            stepper, block, tol=1e-10, max_iter=200, restart=50
        )
        assert deflated == 0 and len(history) == 1
        defect = zeta - marched - block
        assert np.all(np.linalg.norm(defect, axis=0) <= 1e-10 * np.linalg.norm(block, axis=0))

    def test_time_dependent_field_and_zero_gamma_take_no_modes(self, grid1d, rng):
        grid = grid1d(31)
        timegrid = TimeGrid(T=1.0, steps=8)
        twin = dataclasses.replace(heat(1), time_dependent=True)
        report = solve_profile_shift(ProfileShift(rng.standard_normal(31)), twin, grid, timegrid)
        assert report.deflated_modes == 0 and report.iterations > 1
        report = solve_profile_shift(ProfileShift(np.zeros(31)), heat(1), grid, timegrid)
        assert report.deflated_modes == 0

    def test_unit_multiplier_is_numerically_singular(self, grid1d):
        # a = 1e-30 I: every step multiplier 1 / (1 + dt * O(1e-30)) rounds
        # to 1, so Q = I in floating point.
        grid = grid1d(15)
        frozen = CoefficientField(
            dimension=1, a=lambda x, t: 1e-30 * np.eye(1), f=lambda x, t: np.zeros(1),
            q=lambda x, t: 0.0, delta=1e-30,
        )
        with pytest.raises(NumericalBreakdown, match="I - Q is numerically singular"):
            solve_profile_shift(ProfileShift(np.ones(15)), frozen, grid, TimeGrid(T=1.0, steps=64))
        # Above, T ||A_h||_inf <= eps / 2 refuses Q before ARPACK runs.  Here
        # T ||A_h||_inf = 1e-14, but the slowest multiplier 1 / (1 + dt 0.997)
        # at dt = 1.6e-18 rounds to 1, so ARPACK's mode has mu = 1.
        with pytest.raises(NumericalBreakdown, match="I - Q is numerically singular$"):
            solve_profile_shift(
                ProfileShift(np.ones(15)), heat(1), grid, TimeGrid(T=1e-16, steps=64)
            )
        # A singular A_h (A_h w = 0 gives Q w = w) is refused the same way.
        singular = scipy.sparse.csr_matrix(np.diag([0.0, -1.0, -2.0, -3.0, -4.0]))
        with pytest.raises(NumericalBreakdown, match="I - Q is numerically singular"):
            _slow_modes(singular, 100)

    def test_left_vector_of_another_eigenvalue_gives_no_factors(self):
        # the right vector e1 belongs to -1 and the left e2 to -2, so C = W^T U = 0
        block = scipy.sparse.csr_matrix(np.diag([-1.0, -2.0]))
        e1, e2 = np.eye(2)[:, :1], np.eye(2)[:, 1:]
        timegrid = TimeGrid(T=1.0, steps=8)
        assert _component_factors(block, np.array([-1.0]), e1, e2, timegrid) is None

    @pytest.mark.parametrize("cap, taken", [(1, 1), (2, 1), (3, 3), (4, 4), (5, 4), (6, 6)])
    def test_degenerate_eigenvalue_is_taken_whole(self, grid2d, rng, monkeypatch, cap, taken):
        # heat(2) on a square: lambda_12 = lambda_21 and lambda_13 = lambda_31
        # are the 2nd-3rd and 5th-6th eigenvalues nearest 0.
        grid = grid2d(15)
        timegrid = TimeGrid(T=1.0, steps=128)  # room for ARPACK's 103 solves (86 expected)
        lam = _slow_modes(ThetaStepper(heat(2), grid, timegrid).generator.matrix, 1000)[0]
        assert lam[1] == pytest.approx(lam[2], rel=1e-10)
        assert lam[4] == pytest.approx(lam[5], rel=1e-10)
        monkeypatch.setattr(fredholm, "DEFLATION_CAP", cap)
        report = solve_profile_shift(
            ProfileShift(rng.standard_normal(grid.size)), heat(2), grid, timegrid
        )
        assert report.deflated_modes == taken
        assert report.relative_residual <= 1e-10

    def test_arpack_gets_the_solves_of_one_march(self, grid2d, monkeypatch, rng):
        # 15 x 15: eigs makes 81 solves on A_h and 81 on its transpose,
        # eigsh 103; 2 ncv = 86 per run are expected.
        grid = grid2d(15)
        for coeffs, runs, made in ((drift((1.0, -0.6), 0.4), 2, 162), (heat(2), 1, 103)):
            generator = ThetaStepper(coeffs, grid, TimeGrid(T=1.0, steps=8)).generator.matrix
            lam, _, _, solves = _slow_modes(generator, 10**6)
            assert lam.size == DEFLATION_CAP + 1 and solves == made
            # Fewer than expected: not started.
            lam, _, _, solves = _slow_modes(generator, runs * 86 - 1)
            assert lam.size == 0 and solves == 0
        # Started, then stopped at the budget.
        lam, _, _, solves = _slow_modes(generator, 100)
        assert lam.size == 0 and solves == 100
        # A solve with N_t = 64 factors nothing but its step matrix.
        factored = []
        splu = fredholm.spla.splu

        def counting(*args, **kwargs):
            factored.append(args)
            return splu(*args, **kwargs)

        monkeypatch.setattr(fredholm.spla, "splu", counting)
        grid = grid2d(15)
        report = solve_profile_shift(
            ProfileShift(rng.standard_normal(grid.size)), drift((1.0, -0.6), 0.4), grid,
            TimeGrid(T=1.0, steps=64),
        )
        assert report.deflated_modes == 0 and len(factored) == 1
        assert report.relative_residual <= 1e-10

    def test_invariant_gamma_takes_no_modes(self, grid2d, rng):
        # Eigenvectors of A_h span invariant subspaces of Q: plain GMRES
        # solves them in one iteration, so no projector is built.
        grid = grid2d(15)
        timegrid = TimeGrid(T=1.0, steps=128)
        x, y = grid.coordinates().T
        modes = np.column_stack([np.sin(x) * np.sin(y), np.sin(2 * x) * np.sin(y)])
        for gamma in (modes[:, 0], modes):
            stepper = ThetaStepper(heat(2), grid, timegrid)
            zeta, history, marched, deflated = _gmres_identity_minus_q(
                stepper, gamma, tol=1e-10, max_iter=200, restart=50
            )
            assert deflated == 0 and len(history) == 1
            assert np.linalg.norm(zeta - marched - gamma) <= 1e-10 * np.linalg.norm(gamma)
        # A random gamma on the same problem is deflated.
        report = solve_profile_shift(
            ProfileShift(rng.standard_normal(grid.size)), heat(2), grid, timegrid
        )
        assert report.deflated_modes == DEFLATION_CAP

    def test_ill_conditioned_projector_falls_back_to_identity(self, grid1d, rng):
        # Strong upwind drift: the slow right eigenvectors pile up at one end
        # and the left ones at the other, so W^T U is near singular.
        # N_t = 256 leaves room for ARPACK's solves (172 expected, 112
        # made), so C alone decides.
        grid, coeffs = grid1d(63), drift((12.0,))
        timegrid = TimeGrid(T=1.0, steps=256)
        stepper = ThetaStepper(coeffs, grid, timegrid)
        _, right, left, _ = _slow_modes(stepper.generator.matrix, 1000)
        c = _real_basis(left).T @ _real_basis(right)
        assert scipy.linalg.svdvals(c)[-1] < 1e-8
        report = solve_profile_shift(
            ProfileShift(rng.standard_normal(63)), coeffs, grid, timegrid, stepper=stepper
        )
        assert report.deflated_modes == 0
        assert report.relative_residual <= 1e-10

    def test_split_conjugate_pair_is_left_out(self, monkeypatch, rng):
        # solve-2d's field: with a cap of 10 the cut falls between the halves
        # of the 10th and 11th eigenvalues, -20.67 -+ 2.46i.  A projector on
        # one half took 6 iterations for one vector and 151 for a block of
        # six; the whole pair is left out instead.
        monkeypatch.setattr(fredholm, "DEFLATION_CAP", 10)
        grid, coeffs = solve_2d_field()
        stepper = ThetaStepper(coeffs, grid, TimeGrid(T=1.0, steps=256))
        lam = _slow_modes(stepper.generator.matrix, 1000)[0]
        assert lam[9] == pytest.approx(complex(-20.67, -2.46), abs=5e-3)
        assert lam[10] == np.conj(lam[9])
        gamma = rng.random(grid.size)
        _, history, _, deflated = _gmres_identity_minus_q(
            stepper, gamma, tol=1e-10, max_iter=200, restart=50
        )
        assert deflated == 9 and len(history) <= 3
        block = rng.standard_normal((grid.size, 6))
        block /= np.linalg.norm(block, axis=0)
        _, history, _, deflated = _gmres_identity_minus_q(
            stepper, block, tol=1e-10, max_iter=200, restart=50
        )
        assert deflated == 9 and len(history) <= 3

    def test_projector_stays_on_each_component(self):
        # Two equal components: every column of U and L vanishes, exactly,
        # off the component it was built on.
        mask = np.ones((15, 15), dtype=bool)
        mask[7, :] = False
        grid = build_grid(box2d(mask=mask), [15, 15])
        stepper = ThetaStepper(heat(2), grid, TimeGrid(T=1.0, steps=512))
        gamma = np.random.default_rng(0).standard_normal((grid.size, 1))
        right, left = _slow_projector(stepper, gamma, 1e-10)
        upper = grid.nodes[:, 0] < 7
        assert right.shape[1] == DEFLATION_CAP
        for factor in (right, left):
            on_upper = np.any(factor[upper] != 0.0, axis=0)
            on_lower = np.any(factor[~upper] != 0.0, axis=0)
            assert np.all(on_upper != on_lower)


class TestNormalize:
    def test_identity_normalization(self, grid1d):
        grid = grid1d(9)
        tg = TimeGrid(T=1.0, steps=2)
        values = np.full(9, 1.0 / (9 * grid.cell_volume))  # unit mass already
        traj = Trajectory(np.tile(values, (3, 1)), grid, tg)
        alpha, p = normalize(traj)
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert p.initial == pytest.approx(values)

    def test_nonpositive_mass_rejected(self, grid1d):
        grid = grid1d(9)
        tg = TimeGrid(T=1.0, steps=1)
        traj = Trajectory(-np.ones((2, 9)), grid, tg)
        with pytest.raises(NonpositiveMass):
            normalize(traj)

    def test_trajectory_is_one_read_only_array(self):
        grid, _, report = solve_sine(m=31, steps=16)
        traj = report.trajectory
        assert not traj.values.flags.writeable
        with pytest.raises(ValueError):
            traj.initial[0] = 1.0
        assert traj.as_array() is traj.values
        assert np.array_equal(report.normalized.as_array(), report.alpha * traj.as_array())
        # one slice per node of the time grid, from 0 to T
        tg = traj.timegrid
        assert traj.values.shape == (17, 31)
        assert np.array_equal(traj.times, [tg.time(k) for k in range(17)])
        for values in (traj.values[:, 1:], traj.values[1:]):
            with pytest.raises(ValueError, match="must have shape"):
                Trajectory(values, grid, tg)


class TestDenseOracle:
    def test_scalar_propagator(self):
        grid = build_grid(interval(0.0, np.pi), [1])
        q = dense_propagator(ThetaStepper(heat(1), grid, TimeGrid(T=1.0, steps=1)))
        assert q.shape == (1, 1)
        assert q[0, 0] == pytest.approx(SCALAR_BE, abs=1e-14)

    def test_zero_horizon_limit_is_identity(self, grid1d):
        grid = grid1d(9)
        q = dense_propagator(ThetaStepper(heat(1), grid, TimeGrid(T=1e-9, steps=1)))
        assert np.abs(q - np.eye(9)).max() <= 1e-6

    def test_columns_are_basis_images(self, grid1d):
        grid = grid1d(9)
        tg = TimeGrid(T=1.0, steps=8)
        stepper = ThetaStepper(heat(1), grid, tg)
        q = dense_propagator(stepper)
        e3 = np.zeros(9)
        e3[3] = 1.0
        assert q[:, 3] == pytest.approx(stepper.run(e3))

    def test_blocks_equal_single_column_marches(self, grid1d):
        # Time-dependent fields are marched; 130 = 64 + 64 + 2 columns, so
        # the last block is partial.
        grid = grid1d(130)
        tg = TimeGrid(T=1.0, steps=16, theta=0.5)
        coeffs = CoefficientField(
            dimension=1,
            a=lambda x, t: np.eye(1),
            f=lambda x, t: np.array([1.5 * np.cos(t)]),
            q=lambda x, t: 0.25 * (1.0 + t),
            delta=1.0,
            time_dependent=True,
        )
        stepper = ThetaStepper(coeffs, grid, tg, "centered")
        q = dense_propagator(stepper)
        expected = np.column_stack([stepper.run(e) for e in np.eye(grid.size)])
        assert np.array_equal(q, expected)

    def test_time_independent_steps_the_identity_once(self, grid1d, monkeypatch):
        # One step of each of the three blocks of 130 = 64 + 64 + 2 columns;
        # a march would take 3 * 16 steps.
        calls = []
        step_values = ThetaStepper.step_values

        def counted(stepper, values, k):
            calls.append(k)
            return step_values(stepper, values, k)

        monkeypatch.setattr(ThetaStepper, "step_values", counted)
        grid = grid1d(130)
        dense_propagator(
            ThetaStepper(drift([1.5], absorption=0.25), grid, TimeGrid(T=1.0, steps=16))
        )
        assert calls == [0, 0, 0]

    def test_peak_memory_is_three_matrices(self, grid2d):
        # np.linalg.matrix_power would hold four M x M arrays at N_t = 511.
        grid = grid2d(20)
        tg = TimeGrid(T=1.0, steps=511, theta=0.5)
        tracemalloc.start()
        try:
            dense_propagator(ThetaStepper(heat(2), grid, tg, "centered"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * grid.size**2 * 8

    def test_symmetric_for_pure_diffusion(self, grid1d):
        q = dense_propagator(ThetaStepper(heat(1), grid1d(15), TimeGrid(T=1.0, steps=32)))
        assert np.abs(q - q.T).max() <= 1e-12 * np.abs(q).max()

    def test_size_cap(self):
        grid = build_grid(box2d(), [70, 70])
        with pytest.raises(TooLarge):
            dense_propagator(ThetaStepper(heat(2), grid, TimeGrid(T=1.0, steps=1)))


class TestSpectralAnalysis:
    def test_requires_square_finite_input(self, grid1d):
        # the dense route checks the Q it is given; drift takes the dense route
        stepper = ThetaStepper(drift([1.0]), grid1d(2), TimeGrid(T=1.0, steps=4))
        with pytest.raises(ValueError):
            spectral_analysis(stepper, np.zeros((3, 2)))
        with pytest.raises(NumericalBreakdown):
            spectral_analysis(stepper, np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_zero_propagator_is_singular_not_a_breakdown(self, grid1d):
        # A Q that decayed to exactly zero: rho = 0, cond(Q) = inf and
        # I - Q = I.
        stepper = ThetaStepper(drift([1.0]), grid1d(2), TimeGrid(T=1.0, steps=4))
        # One node on (0, 2): h = 1 and A_h = [[-2]], so Crank-Nicolson with
        # dt = 1 has the multiplier (1 - 1) / (1 + 1) = 0, and Q = [[0.]] on
        # both routes.
        grid, coeffs = build_grid(interval(0.0, 2.0), [1]), heat(1)
        one_node = ThetaStepper(coeffs, grid, TimeGrid(T=1.0, steps=1, theta=0.5))
        q = dense_propagator(one_node)
        assert q.tolist() == [[0.0]]
        reports = (
            spectral_analysis(stepper, np.zeros((2, 2))),
            spectral_analysis(one_node),
            _dense_spectrum(q, 1),
        )
        assert [report.route for report in reports] == ["dense", "generator", "dense"]
        for report in reports:
            assert report.spectral_radius == 0.0
            assert report.log10_cond_Q == np.inf
            assert report.cond_identity_minus_Q == 1.0

    def test_heat_spectrum_matches_stepping_formula(self, grid1d):
        # independent route: discrete eigenvalues lambda_k = (4/h^2) sin^2(kh/2)
        # give Q eigenvalues (1 + dt lambda_k)^(-N_t) under backward Euler
        grid = grid1d(15)
        tg = TimeGrid(T=1.0, steps=512, theta=1.0)
        generator = spectral_analysis(ThetaStepper(heat(1), grid, tg))
        dense = _dense_spectrum(dense_propagator(ThetaStepper(heat(1), grid, tg)), grid.size)
        assert (generator.route, dense.route) == ("generator", "dense")
        h = grid.h[0]
        lam1 = (4.0 / h**2) * np.sin(h / 2.0) ** 2
        rho_formula = (1.0 + tg.dt * lam1) ** (-tg.steps)
        for report in (generator, dense):
            assert report.spectral_radius == pytest.approx(rho_formula, rel=1e-10)
            assert report.spectral_radius < 1.0
            # symmetric case: cond(I-Q) is (1 - mu_min) / (1 - mu_max) ~ 1/(1-rho)
            assert report.cond_identity_minus_Q == pytest.approx(
                1.0 / (1.0 - report.spectral_radius), rel=0.01
            )
            assert report.cond_identity_minus_Q <= 2.0

    def test_svd_conditioning_saturates(self, grid1d):
        # the true log10 cond(Q) at M=15 is about 40; double-precision SVD
        # cannot see past ~19 digits, which is why the generator route exists
        grid = grid1d(15)
        tg = TimeGrid(T=1.0, steps=512, theta=1.0)
        report = _dense_spectrum(dense_propagator(ThetaStepper(heat(1), grid, tg)), grid.size)
        assert 15.0 <= report.log10_cond_Q <= 20.0
        assert spectral_analysis(ThetaStepper(heat(1), grid, tg)).log10_cond_Q >= 40.0

    def test_time_dependent_field_takes_dense_route(self, grid1d):
        # A_h(0) does not describe Q when a varies in time (a = 1 + 3t here)
        coeffs = CoefficientField(
            dimension=1,
            a=lambda x, t: np.array([[1.0 + 3.0 * t]]),
            f=lambda x, t: np.zeros(1),
            q=lambda x, t: 0.0,
            delta=1.0,
            time_dependent=True,
        )
        grid = grid1d(7)
        tg = TimeGrid(T=1.0, steps=16, theta=1.0)
        report = spectral_analysis(ThetaStepper(coeffs, grid, tg, "centered"))
        stepper = ThetaStepper(coeffs, grid, tg, "centered")
        dense = _dense_spectrum(dense_propagator(stepper), grid.size)
        assert report.route == "dense"
        assert report.log10_cond_Q == dense.log10_cond_Q
        assert report.spectral_radius == dense.spectral_radius

    def test_size_cap_on_both_routes(self):
        grid = build_grid(interval(0.0, np.pi), [DENSE_CAP + 1])
        for coeffs in (heat(1), drift([1.0])):
            with pytest.raises(TooLarge):
                spectral_analysis(ThetaStepper(coeffs, grid, TimeGrid(T=1.0, steps=1)))


class TestStructuredSpectrum:
    def test_matches_analytic_log_eigenvalues(self, grid1d):
        grid = grid1d(15)
        tg = TimeGrid(T=1.0, steps=512, theta=1.0)
        report = spectral_analysis(ThetaStepper(heat(1), grid, tg))
        log_mu = np.sort(np.log10(np.abs(report.eigenvalues)))
        h = grid.h[0]
        k = np.arange(1, 16)
        lam = (4.0 / h**2) * np.sin(k * h / 2.0) ** 2
        expected = np.sort(-tg.steps * np.log10(1.0 + tg.dt * lam))
        assert log_mu == pytest.approx(expected, abs=1e-9)
        # the conditioning this implies is far beyond double range
        assert report.log10_cond_Q == pytest.approx(expected.max() - expected.min(), abs=1e-9)
        assert report.log10_cond_Q >= 40.0

    def test_agrees_with_dense_eigenvalues_when_representable(self, grid1d):
        grid = grid1d(5)
        tg = TimeGrid(T=0.25, steps=16, theta=0.5)
        report = spectral_analysis(ThetaStepper(heat(1), grid, tg, "centered"))
        assert report.route == "generator"
        log_mu = np.sort(np.log10(np.abs(report.eigenvalues)))
        dense = np.sort(np.log10(np.abs(
            np.linalg.eigvals(dense_propagator(ThetaStepper(heat(1), grid, tg, "centered")))
        )))
        assert log_mu == pytest.approx(dense, abs=1e-10)

    @pytest.mark.parametrize("coeffs, mode", [
        (heat(2), "upwind"),
        (anisotropic(1.0, 0.5, 0.8, 0.2), "centered"),
    ], ids=["heat", "mixed-term"])
    def test_banded_eigenvalues_agree_with_eigvalsh_on_a_masked_grid(self, coeffs, mode):
        # A hole renumbers the nodes, and a mixed term reaches the diagonal
        # neighbours, so the half-bandwidth differs from row to row.
        mask = np.ones((11, 11), dtype=bool)
        mask[3:6, 2:8] = False
        for domain in (box2d(), box2d(mask=mask)):
            stepper = ThetaStepper(
                coeffs, build_grid(domain, [11, 11]), TimeGrid(T=1.0, steps=16), mode
            )
            generator = stepper.generator.matrix
            assert (generator != generator.T).nnz == 0
            expected = scipy.linalg.eigvalsh(generator.toarray())
            gap = np.abs(_banded_eigvalsh(generator) - expected).max()
            assert gap <= 1e-12 * np.abs(expected).max()
            assert spectral_analysis(stepper).route == "generator"

    def test_rejects_nonsymmetric_generator(self, grid1d):
        # the generator route refuses a nonsymmetric A_h; the dense Q answers
        grid = grid1d(15)
        tg = TimeGrid(T=1.0, steps=32)
        report = spectral_analysis(ThetaStepper(drift([2.0]), grid, tg, "upwind"))
        assert report.route == "dense"
        dense = np.linalg.eigvals(dense_propagator(ThetaStepper(drift([2.0]), grid, tg, "upwind")))
        assert np.array_equal(report.eigenvalues, dense)
