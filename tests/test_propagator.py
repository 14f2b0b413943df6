import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from profile_shift import (
    CoefficientField,
    InnerSolveFailure,
    ProfileShift,
    ThetaStepper,
    TimeGrid,
    Trajectory,
    absorb,
    assemble,
    drift,
    heat,
    solve_profile_shift,
)
import profile_shift.propagator as propagator

SCALAR_BE = 0.5523124171952957  # 1 / (1 + 8/pi^2), one-node backward Euler
EXP_M1 = 0.36787944117144233
EXP_M2 = 0.1353352832366127


class TestTimeGrid:
    def test_basic_fields(self):
        tg = TimeGrid(T=2.0, steps=8, theta=0.75)
        assert tg.dt == pytest.approx(0.25)
        assert tg.time(0) == 0.0
        assert tg.time(8) == pytest.approx(2.0)

    def test_invalid_parameters(self):
        for T in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                TimeGrid(T, 4)
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, steps=0)
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, steps=4, theta=0.3)
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, steps=4, theta=1.1)
        for steps in (2.5, 4.0, "4"):
            with pytest.raises(ValueError, match="steps must be an integer"):
                TimeGrid(1.0, steps)
        assert TimeGrid(1.0, np.int64(4)).dt == 0.25


class TestStep:
    def test_zero_is_fixed_point(self, grid1d):
        grid = grid1d(9)
        out = ThetaStepper(heat(1), grid, TimeGrid(T=0.1, steps=1, theta=1.0)).run(np.zeros(9))
        assert out.shape == (9,)
        assert out == pytest.approx(np.zeros(9))

    def test_scalar_backward_euler(self, grid1d):
        # one node on (0, pi): A_h = [-8/pi^2], so u+ = u / (1 + 8/pi^2)
        grid = grid1d(1)
        out = ThetaStepper(heat(1), grid, TimeGrid(T=1.0, steps=1, theta=1.0)).run(np.ones(1))
        assert out[0] == pytest.approx(SCALAR_BE, abs=1e-14)

    def test_eigenmode_multiplier(self, grid1d):
        grid = grid1d(15)
        h = grid.h[0]
        x = grid.coordinates()[:, 0]
        dt = 0.1
        for k in (1, 3, 7):
            mode = np.sin(k * x)
            lam = (4.0 / h**2) * np.sin(k * h / 2.0) ** 2
            out = ThetaStepper(heat(1), grid, TimeGrid(T=dt, steps=1, theta=1.0)).run(mode)
            assert out == pytest.approx(mode / (1.0 + dt * lam), abs=1e-12)

    def test_inner_refinement_gives_up_on_broken_solver(self):
        # a solver that returns garbage must be caught, not trusted
        implicit = sp.identity(4, format="csr")
        broken = SimpleNamespace(solve=lambda r: np.zeros_like(r))
        with pytest.raises(InnerSolveFailure, match="backward error"):
            ThetaStepper._check_inner(np.zeros(4), np.ones(4), broken, implicit, 1.0)

    def test_inner_check_catches_one_broken_column_of_a_block(self):
        implicit = sp.identity(4, format="csr")

        def solve(r):
            x = r.copy()
            x[:, 1] = 0.0
            return x

        broken = SimpleNamespace(solve=solve)
        rhs = np.ones((4, 3))
        with pytest.raises(InnerSolveFailure, match="backward error"):
            ThetaStepper._check_inner(solve(rhs), rhs, broken, implicit, 1.0)
        rhs[:, 1] = 0.0  # a zero column is solved exactly by zero
        out = ThetaStepper._check_inner(solve(rhs), rhs, broken, implicit, 1.0)
        assert np.array_equal(out, rhs)

    def test_step_factorization_keeps_fill_low(self, grid2d):
        # minimum degree on B^T + B gives a fill of 5.51 here; SuperLU's
        # default COLAMD ordering gives 9.28
        stepper = ThetaStepper(
            drift((1.0, -0.6), 0.4), grid2d(47), TimeGrid(T=1.0, steps=256, theta=1.0), "upwind"
        )
        _, lu, implicit, _ = stepper._step_system(0)
        assert (lu.L.nnz + lu.U.nnz) / implicit.nnz <= 6.0

    @pytest.mark.parametrize("n, steps", [(511, 1), (1023, 1), (4095, 64)])
    def test_backward_stable_solve_is_accepted(self, grid1d, n, steps):
        # a relative residual test of 1e-12 rejected these healthy heat steps
        gamma = np.random.default_rng(0).standard_normal(n)
        tg = TimeGrid(T=1.0, steps=steps, theta=1.0)
        report = solve_profile_shift(ProfileShift(gamma), heat(1), grid1d(n), tg)
        assert report.relative_residual <= 1e-10


class TestPropagate:
    def test_zero_initial_data(self, grid1d):
        grid = grid1d(9)
        tg = TimeGrid(T=1.0, steps=16)
        marched = ThetaStepper(heat(1), grid, tg).run(np.zeros(9), keep=True)
        assert marched == pytest.approx(np.zeros((17, 9)))

    def test_heat_decay_1d(self, grid1d):
        grid = grid1d(127)
        tg = TimeGrid(T=1.0, steps=512, theta=0.5)
        x = grid.coordinates()[:, 0]
        terminal = ThetaStepper(heat(1), grid, tg, "centered").run(np.sin(x))
        assert np.max(np.abs(terminal - EXP_M1 * np.sin(x))) <= 1e-3

    def test_heat_decay_2d(self, grid2d):
        grid = grid2d(31)
        tg = TimeGrid(T=1.0, steps=256, theta=0.5)
        coords = grid.coordinates()
        xi = np.sin(coords[:, 0]) * np.sin(coords[:, 1])
        terminal = ThetaStepper(heat(2), grid, tg, "centered").run(xi)
        assert np.max(np.abs(terminal - EXP_M2 * xi)) <= 1e-3

    def test_trajectory_structure(self, grid1d):
        grid = grid1d(9)
        tg = TimeGrid(T=1.0, steps=8)
        traj = Trajectory(ThetaStepper(heat(1), grid, tg).run(np.ones(9), keep=True), grid, tg)
        assert traj.values.shape == (9, 9)
        assert traj.times == pytest.approx(np.linspace(0.0, 1.0, 9))
        assert np.shares_memory(traj.initial, traj.values[0])
        assert np.shares_memory(traj.terminal, traj.values[-1])
        doubled = traj.scaled(2.0)
        assert doubled.terminal == pytest.approx(2.0 * traj.terminal)

    def test_rejects_bad_shape_and_time(self, grid1d):
        # initial data of the wrong length, and a trajectory that does not
        # hold one slice per node of the time grid
        grid = grid1d(9)
        tg = TimeGrid(T=1.0, steps=8)
        stepper = ThetaStepper(heat(1), grid, tg)
        for values in (np.zeros(7), np.zeros((7, 2)), np.float64(0.0)):
            with pytest.raises(ValueError, match="must have 9 rows"):
                stepper.run(values)
        marched = stepper.run(np.ones(9), keep=True)
        for values in (marched[1:], marched[:, 1:]):
            with pytest.raises(ValueError, match=r"must have shape \(9, 9\)"):
                Trajectory(values, grid, tg)

    def test_semigroup_consistency(self, grid1d, rng):
        # time-independent coefficients: [0, T/2] then [T/2, T] with the
        # same dt equals one march over [0, T]
        grid = grid1d(31)
        xi = rng.standard_normal(31)
        half = TimeGrid(T=0.5, steps=32)
        full = TimeGrid(T=1.0, steps=64)
        mid = ThetaStepper(heat(1), grid, half).run(xi)
        two_leg = ThetaStepper(heat(1), grid, half).run(mid)
        one_leg = ThetaStepper(heat(1), grid, full).run(xi)
        assert two_leg == pytest.approx(one_leg, abs=1e-12)


class TestApplyQ:
    def test_zero(self, grid1d):
        grid = grid1d(9)
        out = ThetaStepper(heat(1), grid, TimeGrid(T=1.0, steps=8)).run(np.zeros(9))
        assert out.shape == (9,)
        assert out == pytest.approx(np.zeros(9))

    def test_linearity(self, grid1d, rng):
        grid = grid1d(31)
        tg = TimeGrid(T=1.0, steps=32)
        stepper = ThetaStepper(heat(1), grid, tg)
        for _ in range(5):
            x = rng.standard_normal(31)
            y = rng.standard_normal(31)
            a, b = rng.standard_normal(2)
            lhs = stepper.run(a * x + b * y)
            rhs = a * stepper.run(x) + b * stepper.run(y)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)

    def test_max_norm_contraction_when_certified(self, grid1d, rng):
        grid = grid1d(31)
        tg = TimeGrid(T=1.0, steps=16, theta=1.0)
        coeffs = drift([1.5], absorption=0.25)
        stepper = ThetaStepper(coeffs, grid, tg, "upwind")
        assert stepper.m_matrix_certified
        for _ in range(5):
            x = rng.standard_normal(31)
            qx = stepper.run(x)
            assert np.abs(qx).max() <= np.abs(x).max() * (1.0 + 1e-12)

    def test_certification_covers_every_generator_a_march_reads(self, grid2d):
        # A_h(t_0) is an M-matrix, but the mixed term 0.5 t breaks upwind's
        # certificate from t_1 on, and a theta = 1 march reads only t_1 ... t_4.
        grid = grid2d(7)
        tg = TimeGrid(T=1.0, steps=4, theta=1.0)
        coeffs = CoefficientField(
            dimension=2,
            a=lambda x, t: np.array([[1.0, 0.5 * t], [0.5 * t, 1.0]]),
            f=lambda x, t: np.zeros(2),
            q=lambda x, t: 0.0,
            delta=0.5,
            time_dependent=True,
        )
        certified = [
            assemble(coeffs, grid, tg.time(k), "upwind").m_matrix_certified for k in range(5)
        ]
        assert certified == [True, False, False, False, False]
        stepper = ThetaStepper(coeffs, grid, tg, "upwind")
        assert stepper.generator.m_matrix_certified
        assert not stepper.m_matrix_certified
        fixed = CoefficientField(
            dimension=2, a=lambda x, t: np.eye(2), f=lambda x, t: np.zeros(2),
            q=lambda x, t: 0.0, delta=1.0, time_dependent=True,
        )
        assert ThetaStepper(fixed, grid, tg, "upwind").m_matrix_certified

    def test_positivity_preservation_when_certified(self, grid2d, rng):
        grid = grid2d(9)
        tg = TimeGrid(T=1.0, steps=16, theta=1.0)
        coeffs = drift([1.0, -2.0], absorption=0.5)
        stepper = ThetaStepper(coeffs, grid, tg, "upwind")
        assert stepper.m_matrix_certified
        for _ in range(5):
            x = np.abs(rng.standard_normal(grid.size))
            assert stepper.run(x).min() >= -1e-13


class TestForeignStepper:
    def test_stepper_for_another_problem_is_rejected(self, grid1d):
        # solve_profile_shift takes the problem and, optionally, a stepper for it
        grid = grid1d(9)
        coeffs = heat(1)
        tg = TimeGrid(T=1.0, steps=8)
        shift = ProfileShift(np.ones(grid.size))
        longer = ThetaStepper(coeffs, grid, TimeGrid(T=5.0, steps=8))
        with pytest.raises(ValueError, match="different timegrid"):
            solve_profile_shift(shift, coeffs, grid, tg, "upwind", stepper=longer)
        other = ThetaStepper(absorb(3.0), grid, tg, "centered")
        with pytest.raises(ValueError, match="different coeffs, advection_mode"):
            solve_profile_shift(shift, coeffs, grid, tg, "upwind", stepper=other)


# Resident memory that each cached step of a time-dependent 1D march adds,
# read in a fresh interpreter around serial factorizations of every step.
CACHED_STEP_SCRIPT = """
import os
import numpy as np
from profile_shift import CoefficientField, ThetaStepper, TimeGrid, build_grid, interval

def resident():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

coeffs = CoefficientField(
    1, lambda x, t: np.eye(1), lambda x, t: np.zeros(1), lambda x, t: t, 1.0,
    time_dependent=True,
)
stepper = ThetaStepper(coeffs, build_grid(interval(), [255]), TimeGrid(1.0, 256))
stepper._step_system(0)
before = resident()
assert stepper.m_matrix_certified
print((resident() - before) / 255)
"""


class TestStepperCache:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    def test_a_cached_step_stays_compact(self):
        # A step's factors hold about 1000 nonzeros (12 KB); under SuperLU's
        # default panel each cached step kept about 158 KB resident, and
        # about 40 KB with a one-column panel.
        source = os.path.dirname(os.path.dirname(propagator.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [source, os.environ.get("PYTHONPATH")])
        )}
        done = subprocess.run(
            [sys.executable, "-c", CACHED_STEP_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 80 * 1024

    def test_time_dependent_steps_use_fresh_generators(self, grid1d):
        # q(x, t) = t changes the implicit matrix every step; verify the
        # two-step march against hand-built dense algebra
        grid = grid1d(3)
        coeffs = CoefficientField(
            dimension=1,
            a=lambda x, t: np.eye(1),
            f=lambda x, t: np.zeros(1),
            q=lambda x, t: t,
            delta=1.0,
            time_dependent=True,
        )
        tg = TimeGrid(T=1.0, steps=2, theta=1.0)
        stepper = ThetaStepper(coeffs, grid, tg)
        x = np.array([1.0, 2.0, 1.0])
        got = stepper.run(x)

        eye = np.eye(3)
        a_half = assemble(coeffs, grid, 0.5).matrix.toarray()
        a_one = assemble(coeffs, grid, 1.0).matrix.toarray()
        expected = np.linalg.solve(
            eye - 0.5 * a_one, np.linalg.solve(eye - 0.5 * a_half, x)
        )
        assert got == pytest.approx(expected, abs=1e-12)

    def test_time_dependent_march_assembles_each_time_once(self, grid1d, monkeypatch):
        # step k's A_h(t_{k+1}) is step k+1's A_h(t_k): N_t + 1 assemblies,
        # and N_t at theta = 1, where no step reads A_h(t_0)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return assemble(*args, **kwargs)

        monkeypatch.setattr(propagator, "assemble", counting)
        coeffs = CoefficientField(
            dimension=1,
            a=lambda x, t: np.eye(1),
            f=lambda x, t: np.zeros(1),
            q=lambda x, t: t,
            delta=1.0,
            time_dependent=True,
        )
        for theta, first in ((1.0, 1), (0.5, 0)):
            calls.clear()
            tg = TimeGrid(T=1.0, steps=8, theta=theta)
            stepper = ThetaStepper(coeffs, grid1d(5), tg)
            stepper.run(np.ones(5))
            assert sorted(calls) == pytest.approx([tg.time(k) for k in range(first, 9)])
            calls.clear()
            stepper.run(np.ones(5))
            assert calls == []
        # reading the generator assembles A_h(t_0) alone and factorizes nothing
        calls.clear()
        monkeypatch.setattr(propagator.spla, "splu", lambda *a, **k: pytest.fail("splu called"))
        ThetaStepper(coeffs, grid1d(5), tg).generator
        assert calls == [0.0]
