"""The benchmark's workloads: inputs made from a seed, one timed operation,
and a check of that operation's outputs against ``reference``.

Each workload keeps its operator fixed and draws a fresh ``gamma`` per
operation from ``numpy.random.default_rng([seed, index])``, so every seed
costs the same work and the same seed gives the same inputs.  The CLI
workloads write their config before the operation starts; the operation is
``parse_config`` followed by ``run``, looked up on the module at call time so
that the traced run's wrappers apply.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np

import profile_shift
import profile_shift.cli as cli
import reference as ref

PI = math.pi

# Tolerances of the checks; README.md gives the reason for each.
MARCH_TOL = 1e-10         # written or returned slices against the reference march
SHIFT_TOL = 1e-10         # two-time residual, the solver's own tolerance
SHIFT_REF_TOL = 1e-8      # two-time residual of the reference march
MASS_TOL = 1e-12          # |mass of p(., 0) - 1|
NONNEG_TOL = 1e-12        # min of p over max of p
SCALE_TOL = 1e-13         # normalized CSV against trajectory CSV / mass
Q_TOL = 1e-12             # qmatrix.npy against Q_ref, entrywise
RHO_TOL = 1e-9            # spectral_radius against max |eig(Q_ref)|


class CliWorkload:
    """A CLI command run in-process on a config written per operation."""

    command: str

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.small = small
        self.base = self.base_config()

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, index])

    def inputs(self, index: int) -> dict:
        out = self.workdir / f"op-{index}"
        gamma = self.gamma(self.rng(index))
        config = dict(self.base)
        config["gamma"] = {"table": gamma.tolist(), "nonneg": bool(np.all(gamma >= 0.0))}
        config["outputs"] = {"directory": str(out)}
        path = self.workdir / f"op-{index}.json"
        path.write_text(json.dumps(config))
        return {"index": index, "config": path, "out": out, "gamma": gamma}

    def operate(self, inputs: dict):
        config = cli.parse_config(inputs["config"])
        return cli.run(config, self.command, quiet=True)

    @staticmethod
    def bytes_written(inputs: dict, bundle) -> int:
        """Bytes of the files in the manifest (report.json and the artifacts).

        metadata.json is left out: its timestamp and elapsed time change its
        length from run to run.
        """
        return sum((inputs["out"] / name).stat().st_size for name in bundle.files)

    def discard(self, inputs: dict) -> None:
        shutil.rmtree(inputs["out"], ignore_errors=True)
        inputs["config"].unlink(missing_ok=True)


class Solve2D(CliWorkload):
    """``solve`` with tabulated a, f, q, upwind drift and nonnegative gamma."""

    command = "solve"

    def base_config(self) -> dict:
        self.n = 7 if self.small else 63
        self.steps = 8 if self.small else 256
        self.h = PI / (self.n + 1)
        x = ref.interior_nodes(self.n, 0.0, PI)
        xs, ys = (c.ravel() for c in np.meshgrid(x, x, indexing="ij"))
        self.coef = {
            "axx": 1.0 + 0.5 * np.sin(xs) * np.sin(ys),
            "ayy": 1.0 + 0.25 * np.cos(xs + ys),
            "fx": 1.5 * np.cos(ys),
            "fy": -np.sin(2.0 * xs),
            "q": 0.3 + 0.2 * np.sin(xs) * np.cos(ys),
        }
        self.coords = np.column_stack([xs, ys])
        m = xs.size
        a = np.zeros((m, 2, 2))
        a[:, 0, 0] = self.coef["axx"]
        a[:, 1, 1] = self.coef["ayy"]
        f = np.column_stack([self.coef["fx"], self.coef["fy"]])
        delta = float(min(self.coef["axx"].min(), self.coef["ayy"].min()))
        return {
            "domain": {"dimension": 2, "box": [[0.0, PI], [0.0, PI]]},
            "resolution": self.n,
            "T": 1.0,
            "N_t": self.steps,
            "theta": 1.0,
            "advection_mode": "upwind",
            "coefficients": {"tabulated": {
                "a": a.tolist(), "f": f.tolist(), "q": self.coef["q"].tolist(), "delta": delta,
            }},
        }

    def gamma(self, rng):
        return rng.random(self.n * self.n)

    def check(self, inputs: dict, bundle) -> list[str]:
        errors = []
        if not bundle.passed:
            errors.append("solve reported a failed check")
        if not bundle.report.get("m_matrix_certified"):
            errors.append("generator not certified as an M-matrix")
        times, coords, u = _read_trajectory(inputs["out"] / "trajectory.csv")
        _, _, p = _read_trajectory(inputs["out"] / "normalized_trajectory.csv")
        dt = 1.0 / self.steps
        if not np.allclose(times, dt * np.arange(self.steps + 1), rtol=0.0, atol=1e-12):
            errors.append("trajectory.csv does not hold every time slice")
            return errors
        if ref.relative_gap(coords, self.coords) > 1e-14:
            errors.append("trajectory.csv node coordinates are not the row-major interior")
            return errors
        gen = ref.generator_2d(
            (self.n, self.n), (self.h, self.h), self.coef["axx"], self.coef["ayy"],
            self.coef["fx"], self.coef["fy"], self.coef["q"], mode="upwind",
        )
        march = ref.march_sparse(gen, u[0], dt, 1.0, self.steps)
        gap = ref.relative_gap(u, march)
        if gap > MARCH_TOL:
            errors.append(f"trajectory differs from the reference march by {gap:.3e}")
        gamma = inputs["gamma"]
        shift = float(np.linalg.norm(u[0] - u[-1] - gamma) / np.linalg.norm(gamma))
        if shift > SHIFT_TOL:
            errors.append(f"two-time residual from the CSV is {shift:.3e}")
        mass = float(np.sum(p[0])) * self.h * self.h
        if abs(mass - 1.0) > MASS_TOL:
            errors.append(f"normalized mass is {mass!r}")
        if p.min() < -NONNEG_TOL * p.max():
            errors.append(f"normalized trajectory has min {p.min():.3e}")
        u_mass = float(np.sum(u[0])) * self.h * self.h
        scaled = ref.relative_gap(p, u / u_mass)
        if scaled > SCALE_TOL:
            errors.append(f"normalized CSV is not the trajectory over its mass ({scaled:.3e})")
        return errors


class Validate2D(CliWorkload):
    """``validate`` on the drift preset with absorption and signed gamma."""

    command = "validate"
    velocity = (1.0, -0.6)
    absorption = 0.4

    def base_config(self) -> dict:
        self.n = 7 if self.small else 47
        return {
            "domain": {"dimension": 2, "box": [[0.0, PI], [0.0, PI]]},
            "resolution": self.n,
            "T": 1.0,
            "N_t": 8 if self.small else 256,
            "theta": 1.0,
            "advection_mode": "upwind",
            "coefficients": {
                "preset": "drift", "velocity": list(self.velocity), "absorption": self.absorption,
            },
        }

    def gamma(self, rng):
        return rng.standard_normal(self.n * self.n)

    def check(self, inputs: dict, bundle) -> list[str]:
        errors = []
        report = bundle.report
        if not bundle.passed:
            errors.append("validate reported a failed check")
        if report["M"] != self.n * self.n:
            errors.append(f"M is {report['M']}")
        checks = {c["name"]: c for c in report["checks"]}
        # a = I and delta = 1 for the drift preset, so the closed forms are exact.
        detail = checks["coefficients"]["detail"]
        expected = {"symmetry_defect": 0.0, "ellipticity_margin": 0.0,
                    "min_absorption": self.absorption}
        for key, value in expected.items():
            if detail[key] != value:
                errors.append(f"coefficient {key} is {detail[key]!r}, expected {value!r}")
        worst = checks["random_shifts"]["detail"]["worst_residual"]
        if not worst <= SHIFT_TOL:
            errors.append(f"worst random-shift residual {worst:.3e}")
        if "max_norm_contraction" not in checks:
            errors.append("contraction probe missing for a certified backward-Euler stepper")
        elif not checks["max_norm_contraction"]["detail"]["worst_growth"] <= 1.0:
            errors.append("max-norm growth above 1")
        return errors


class Oracle2D(CliWorkload):
    """``oracle`` on the anisotropic preset under Crank-Nicolson."""

    command = "oracle"
    axx, axy, ayy, absorption = 1.0, 0.5, 0.8, 0.2

    def base_config(self) -> dict:
        self.n = 5 if self.small else 21
        self.steps = 8 if self.small else 128
        return {
            "domain": {"dimension": 2, "box": [[0.0, PI], [0.0, PI]]},
            "resolution": self.n,
            "T": 1.0,
            "N_t": self.steps,
            "theta": 0.5,
            "advection_mode": "centered",
            "coefficients": {
                "preset": "anisotropic", "axx": self.axx, "axy": self.axy, "ayy": self.ayy,
                "absorption": self.absorption,
            },
        }

    def gamma(self, rng):
        return rng.standard_normal(self.n * self.n)

    def check(self, inputs: dict, bundle) -> list[str]:
        errors = []
        if not bundle.passed:
            errors.append("oracle reported disagreement")
        h = PI / (self.n + 1)
        gen = ref.generator_2d(
            (self.n, self.n), (h, h), self.axx, self.ayy, q=self.absorption,
            axy=self.axy, mode="centered",
        )
        q_ref = ref.propagator_dense(gen, 1.0 / self.steps, 0.5, self.steps)
        q_prog = np.load(inputs["out"] / "qmatrix.npy")
        gap = float(np.abs(q_prog - q_ref).max())
        if gap > Q_TOL:
            errors.append(f"qmatrix.npy differs from Q_ref by {gap:.3e}")
        # Q_ref is a rational function of the symmetric A, so it is symmetric.
        rho = float(np.abs(np.linalg.eigvalsh(0.5 * (q_ref + q_ref.T))).max())
        if abs(bundle.report["spectral_radius"] - rho) > RHO_TOL:
            errors.append(
                f"spectral_radius {bundle.report['spectral_radius']!r} vs reference {rho!r}"
            )
        return errors


def _field_a(x, t):
    return 1.0 + 0.5 * np.sin(x) * np.cos(2.0 * PI * t)


def _field_f(x, t):
    return 2.0 * np.cos(x + PI * t)


def _field_q(x, t):
    return 0.5 + 0.5 * (1.0 + t) * np.sin(x) ** 2


class TimeDep1D:
    """``solve_profile_shift`` on a field whose a, f and q vary in x and t."""

    command = None

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        self.seed = seed
        self.n = 15 if small else 255
        self.steps = 8 if small else 256
        self.h = PI / (self.n + 1)
        self.field = profile_shift.CoefficientField(
            dimension=1,
            a=lambda x, t: np.array([[_field_a(x[0], t)]]),
            f=lambda x, t: np.array([_field_f(x[0], t)]),
            q=lambda x, t: float(_field_q(x[0], t)),
            delta=0.5,
            time_dependent=True,
        )

    def inputs(self, index: int) -> dict:
        gamma = np.random.default_rng([self.seed, index]).standard_normal(self.n)
        return {"index": index, "gamma": gamma}

    def operate(self, inputs: dict):
        grid = profile_shift.build_grid(profile_shift.interval(0.0, PI), [self.n])
        timegrid = profile_shift.TimeGrid(T=1.0, steps=self.steps, theta=1.0)
        shift = profile_shift.ProfileShift(inputs["gamma"])
        return profile_shift.solve_profile_shift(shift, self.field, grid, timegrid, "upwind")

    def check(self, inputs: dict, report) -> list[str]:
        errors = []
        x = ref.interior_nodes(self.n, 0.0, PI)
        dt = 1.0 / self.steps

        def bands_at(k):
            t = k * dt
            return ref.tridiagonal_1d(self.h, _field_a(x, t), _field_f(x, t), _field_q(x, t))

        values = report.trajectory.as_array()
        march = ref.march_banded(bands_at, report.zeta, dt, self.steps)
        gap = ref.relative_gap(values, march)
        if gap > MARCH_TOL:
            errors.append(f"trajectory differs from the reference march by {gap:.3e}")
        gamma = inputs["gamma"]
        shift = float(np.linalg.norm(march[0] - march[-1] - gamma) / np.linalg.norm(gamma))
        if shift > SHIFT_REF_TOL:
            errors.append(f"two-time residual of the reference march is {shift:.3e}")
        return errors

    def discard(self, inputs: dict) -> None:
        pass


def _read_trajectory(path: Path):
    """(slice times, node coordinates, values with one row per slice)."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    dim = sum(1 for name in header if name in ("x", "y"))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    times = np.array([float(t) for t in header[dim:]])
    return times, data[:, :dim], data[:, dim:].T


WORKLOADS = {
    "solve-2d": Solve2D,
    "validate-2d": Validate2D,
    "timedep-1d": TimeDep1D,
    "oracle-2d": Oracle2D,
}
