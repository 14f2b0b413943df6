"""Command-line front end: JSON configs in, CSV/JSON artifacts out.

Commands: solve (profile-shift solve + checks), oracle (dense propagator
vs matrix-free agreement), spectrum (eigen/conditioning summary),
posedness (well- vs ill-posed ladder), convergence (error orders against
closed forms), validate (coefficient checks + property battery).

Exit codes: 0 success, 2 config error, 3 solver failure, 4 validation
failure, 5 dense-oracle cap exceeded, 6 an output file could not be written.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, is_dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__, _forked
from .errors import (
    CheckFailure,
    ConfigError,
    NumericalBreakdown,
    ParseError,
    SolverError,
    TooLarge,
    UnknownCase,
    ValidationError,
)
from .fredholm import (
    ProfileShift,
    _check_settings,
    dense_propagator,
    normalize,
    solve_profile_shift,
    spectral_analysis,
)
from .grid import Domain, Grid, build_grid
from .operators import (
    ADVECTION_MODES,
    CoefficientField,
    absorb,
    anisotropic,
    drift,
    heat,
    tabulated,
    validate_coefficients,
)
from .propagator import ThetaStepper, TimeGrid, Trajectory
from .validation import (
    RESOLUTIONS,
    ShiftCheck,
    check_fixed_shift,
    check_mass,
    check_positivity,
    check_random_shifts,
    compare_posedness,
    convergence_study,
    match_case,
)

COMMANDS = ("solve", "oracle", "spectrum", "posedness", "convergence", "validate")
ORACLE_AGREEMENT_TOL = 1e-8
MASS_TOL = 1e-12
RANDOM_SHIFTS = 5  # validate's random_shifts and max_norm_contraction trials
CSV_BLOCK_ROWS = 32  # trajectory CSV rows formatted per write

@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Fully validated experiment description with defaults applied.

    ``grid``, ``timegrid``, ``coeffs`` and ``shift`` are built once, from the
    domain, resolution, time, coefficient and gamma sections;
    ``coefficients`` and ``gamma`` keep the config's own form for the echo.
    """

    grid: Grid
    timegrid: TimeGrid
    advection_mode: str
    coefficients: dict
    coeffs: CoefficientField
    gamma: dict
    shift: ProfileShift
    tol: float
    max_iter: int
    restart: int
    out_dir: str
    slice_stride: int

    def to_dict(self) -> dict:
        """Canonical JSON-ready echo; re-parsing it reproduces this config."""
        dom = self.grid.domain
        domain: dict = {
            "dimension": dom.dimension,
            "box": [[lo, hi] for lo, hi in dom.box],
        }
        if dom.mask is not None:
            domain["mask"] = dom.mask.astype(int).tolist()
        return {
            "domain": domain,
            "resolution": list(self.grid.shape),
            "T": self.timegrid.T,
            "N_t": self.timegrid.steps,
            "theta": self.timegrid.theta,
            "advection_mode": self.advection_mode,
            "coefficients": self.coefficients,
            "gamma": self.gamma,
            "solver": {"tol": self.tol, "max_iter": self.max_iter, "restart": self.restart},
            "outputs": {"directory": self.out_dir, "slice_stride": self.slice_stride},
        }


def _require(cond: bool, message: str):
    if not cond:
        raise ValidationError(message)


def _as_float(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the range of a double
        raise ValidationError(f"{field} must lie in the range of a double: {exc}") from exc


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _object(value, field: str, allowed, required=()) -> dict:
    """Require a JSON object with keys among ``allowed`` and every ``required`` key."""
    _require(isinstance(value, dict), f"{field} must be an object")
    unknown = set(value) - set(allowed)
    _require(not unknown, f"unknown {field} fields: {sorted(unknown)}")
    for key in required:
        _require(key in value, f"{field} requires '{key}'")
    return value


def _per_axis(value, field: str, dimension: int) -> list[int]:
    """An integer for every axis, or a list of one integer per axis."""
    if isinstance(value, int) and not isinstance(value, bool):
        value = [value] * dimension
    _require(
        isinstance(value, list) and len(value) == dimension,
        f"{field} must be an integer or a list of {dimension} integers",
    )
    return [_as_int(v, field) for v in value]


def _intervals(value, field: str) -> list[tuple[float, float]]:
    """A list of [lo, hi] number pairs."""
    _require(
        isinstance(value, list) and all(isinstance(p, list) and len(p) == 2 for p in value),
        f"{field} must list [lo, hi] pairs",
    )
    return [(_as_float(lo, f"{field} lo"), _as_float(hi, f"{field} hi")) for lo, hi in value]


def _build(field: str, make, *args):
    """Return ``make(*args)``; its rejection becomes a ValidationError naming ``field``."""
    try:
        return make(*args)
    except (ValueError, TypeError, OverflowError, MemoryError, ConfigError) as exc:
        raise ValidationError(f"{field}: {exc}") from exc


def parse_config(path) -> ExperimentConfig:
    """Load and validate a JSON experiment config."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal longer than int's digit limit
        raise ParseError(f"config {path} cannot be read as JSON: {exc}") from exc
    return config_from_dict(data)


def config_from_dict(data) -> ExperimentConfig:
    """Validate a config dictionary, apply defaults and build its objects.

    Structure and JSON types are checked here.  Value ranges are checked by
    the code that uses them (Domain, build_grid, TimeGrid, the coefficient
    builders, ProfileShift, and fredholm's GMRES settings check); their
    errors are reported naming the config field.
    """
    _object(data, "config", (
        "domain", "resolution", "T", "N_t", "theta", "advection_mode",
        "coefficients", "gamma", "solver", "outputs",
    ), ("domain", "resolution"))
    dom = _object(data["domain"], "domain", ("dimension", "box", "mask"), ("dimension", "box"))
    domain = _build(
        "domain", Domain,
        _as_int(dom["dimension"], "domain.dimension"),
        _intervals(dom["box"], "domain.box"),
        dom.get("mask"),
    )
    resolution = _per_axis(data["resolution"], "resolution", domain.dimension)
    grid = _build("resolution", build_grid, domain, resolution)
    timegrid = _build(
        "T, N_t, theta", TimeGrid,
        _as_float(data.get("T", 1.0), "T"),
        _as_int(data.get("N_t", 256), "N_t"),
        _as_float(data.get("theta", 1.0), "theta"),
    )
    advection_mode = data.get("advection_mode", "upwind")
    _require(
        advection_mode in ADVECTION_MODES,
        f"advection_mode must be one of {ADVECTION_MODES}, got {advection_mode!r}",
    )

    coefficients, coeffs = _coefficients(data.get("coefficients", {"preset": "heat"}), grid)
    gamma, shift = _gamma(data.get("gamma", {"eigenfunction": 1}), grid)

    solver = _object(data.get("solver", {}), "solver", ("tol", "max_iter", "restart"))
    tol = _as_float(solver.get("tol", 1e-10), "solver.tol")
    max_iter = _as_int(solver.get("max_iter", 200), "solver.max_iter")
    restart = _as_int(solver.get("restart", 50), "solver.restart")
    _build("solver.tol, solver.max_iter, solver.restart", _check_settings, tol, max_iter, restart)

    outputs = _object(data.get("outputs", {}), "outputs", ("directory", "slice_stride"))
    out_dir = outputs.get("directory", "out")
    _require(isinstance(out_dir, str) and out_dir, "outputs.directory must be a nonempty string")
    slice_stride = _as_int(outputs.get("slice_stride", 1), "outputs.slice_stride")
    _require(slice_stride >= 1, f"outputs.slice_stride must be >= 1, got {slice_stride}")

    return ExperimentConfig(
        grid=grid,
        timegrid=timegrid,
        advection_mode=advection_mode,
        coefficients=coefficients,
        coeffs=coeffs,
        gamma=gamma,
        shift=shift,
        tol=tol,
        max_iter=max_iter,
        restart=restart,
        out_dir=out_dir,
        slice_stride=slice_stride,
    )


_PRESET_KEYS = {
    "heat": (),
    "absorb": ("rate",),
    "drift": ("velocity", "absorption"),
    "anisotropic": ("axx", "axy", "ayy", "absorption"),
}


def _coefficients(spec, grid: Grid) -> tuple[dict, CoefficientField]:
    """Check the coefficients section and build its field on the grid."""
    _require(isinstance(spec, dict), "coefficients must be an object")
    _require(
        ("preset" in spec) != ("tabulated" in spec),
        "coefficients must contain exactly one of 'preset' or 'tabulated'",
    )
    if "tabulated" in spec:
        _object(spec, "coefficients", ("tabulated",))
        tab = _object(spec["tabulated"], "coefficients.tabulated", ("a", "f", "q", "delta"), ("a",))
        delta = tab.get("delta")
        coeffs = _build(
            "coefficients.tabulated", tabulated, grid, tab["a"], tab.get("f"), tab.get("q"),
            None if delta is None else _as_float(delta, "coefficients.tabulated.delta"),
        )
        return {"tabulated": tab}, coeffs
    name = spec["preset"]
    _require(
        isinstance(name, str) and name in _PRESET_KEYS, f"unknown coefficient preset {name!r}"
    )
    keys = _PRESET_KEYS[name]
    _object(spec, "coefficients", ("preset",) + keys, [k for k in keys if k != "absorption"])
    value = {
        k: _as_float(spec[k], f"coefficients.{k}")
        for k in keys if k in spec and k != "velocity"
    }
    absorption = value.get("absorption", 0.0)
    if name == "heat":
        make, args = heat, (grid.dimension,)
    elif name == "absorb":
        make, args = absorb, (value["rate"], grid.dimension)
    elif name == "drift":
        vel = spec["velocity"]
        _require(
            isinstance(vel, list) and len(vel) == grid.dimension,
            f"drift velocity must be a list of {grid.dimension} numbers",
        )
        make, args = drift, ([_as_float(v, "coefficients.velocity") for v in vel], absorption)
    else:
        _require(grid.dimension == 2, "preset 'anisotropic' is 2D only")
        make, args = anisotropic, (value["axx"], value["axy"], value["ayy"], absorption)
    return dict(spec), _build("coefficients", make, *args)


def _gamma(spec, grid: Grid) -> tuple[dict, ProfileShift]:
    """Check the gamma section and build its ProfileShift on the grid's interior nodes.

    Without an explicit ``nonneg`` the probability path is taken exactly when
    gamma is nonnegative and nontrivial.
    """
    _object(spec, "gamma", ("eigenfunction", "indicator", "table", "nonneg"))
    forms = [k for k in ("eigenfunction", "indicator", "table") if k in spec]
    _require(
        len(forms) == 1,
        f"gamma must contain exactly one of eigenfunction/indicator/table, got {forms}",
    )
    nonneg = spec.get("nonneg")
    _require(nonneg is None or isinstance(nonneg, bool), "gamma.nonneg must be a boolean")
    form = forms[0]
    echo = {form: spec[form]}
    coords = grid.coordinates()
    if form == "eigenfunction":
        ks = _per_axis(spec["eigenfunction"], "gamma.eigenfunction", grid.dimension)
        _require(all(v >= 1 for v in ks), f"eigenfunction indices must be >= 1, got {ks}")
        gamma = np.ones(grid.size)
        for k, (lo, hi), x in zip(ks, grid.domain.box, coords.T):
            gamma *= np.sin(_as_float(k, "gamma.eigenfunction") * np.pi * (x - lo) / (hi - lo))
    elif form == "indicator":
        ind = _object(spec["indicator"], "gamma.indicator", ("box", "value"), ("box",))
        bx = _intervals(ind["box"], "gamma.indicator.box")
        box = _build("gamma.indicator.box", Domain, grid.dimension, bx).box
        inside = np.ones(grid.size, dtype=bool)
        for (lo, hi), x in zip(box, coords.T):
            inside &= (x >= lo) & (x <= hi)
        value = _as_float(ind.get("value", 1.0), "gamma.indicator.value")
        _require(np.isfinite(value), f"gamma.indicator.value must be finite, got {value}")
        gamma = value * inside.astype(float)
    else:
        table = spec["table"]
        _require(isinstance(table, list) and table, "gamma.table must be a nonempty list")
        gamma = np.array([_as_float(v, "gamma.table entry") for v in table])
        _require(
            gamma.size == grid.size,
            f"gamma.table has {gamma.size} entries but the grid has {grid.size} interior nodes",
        )
    if nonneg is None:
        nonneg = bool(np.all(gamma >= 0.0) and np.any(gamma > 0.0))
    else:
        echo["nonneg"] = nonneg
    return echo, _build("gamma", ProfileShift, gamma, nonneg)


@dataclass(frozen=True)
class ResultBundle:
    """What a command run produced: verdict, report dict, emitted files."""

    command: str
    passed: bool
    report: dict
    files: dict
    out_dir: str


def run(
    config: ExperimentConfig, command: str, resolutions=RESOLUTIONS, quiet: bool = False
) -> ResultBundle:
    """Execute one command and write its artifacts under the output directory."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}; choose from {COMMANDS}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    handler = {
        "solve": _cmd_solve,
        "oracle": _cmd_oracle,
        "spectrum": _cmd_spectrum,
        "posedness": _cmd_posedness,
        "convergence": _cmd_convergence,
        "validate": _cmd_validate,
    }[command]
    sweep = (resolutions,) if command in ("posedness", "convergence") else ()
    report, passed, artifacts = handler(config, out, *sweep)

    report = {"command": command, "passed": passed, **_jsonable(report)}
    files = {"report.json": _write_json(out / "report.json", report, indent=2), **artifacts}

    _write_json(out / "metadata.json", {
        "package": "profile-shift",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "command": command,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_seconds": time.perf_counter() - started,
        "config": config.to_dict(),
        "files": files,
    })

    if not quiet:
        print(_summary_line(command, report, passed))
        print(f"wrote {out}/report.json, {out}/metadata.json")
    return ResultBundle(
        command=command, passed=passed, report=report, files=files, out_dir=str(out)
    )


def _summary_line(command: str, report: dict, passed: bool) -> str:
    verdict = "ok" if passed else "FAIL"
    if command == "solve":
        alpha = report.get("alpha")
        alpha_txt = f" alpha={alpha:.6g}" if alpha is not None else ""
        return (
            f"solve: M={report['M']} iterations={report['iterations']} "
            f"residual={report['relative_residual']:.3e}{alpha_txt} -> {verdict}"
        )
    if command == "oracle":
        return (
            f"oracle: M={report['M']} agreement={report['agreement']:.3e} "
            f"cond(I-Q)={report['cond_identity_minus_Q']:.4g} -> {verdict}"
        )
    if command == "spectrum":
        return (
            f"spectrum: M={report['M']} rho(Q)={report['spectral_radius']:.6g} "
            f"cond(I-Q)={report['cond_identity_minus_Q']:.4g} "
            f"log10 cond(Q)={report['log10_cond_Q']:.4g} -> {verdict}"
        )
    if command == "posedness":
        worst = max(r["cond_identity_minus_Q"] for r in report["records"])
        first = report["records"][0]["log10_cond_Q"]
        return (
            f"posedness: max cond(I-Q)={worst:.4g} "
            f"log10 cond(Q) at coarsest={first:.4g} -> {verdict}"
        )
    if command == "convergence":
        return (
            f"convergence[{report['case']}]: spatial order={report['spatial_order']:.3f} "
            f"temporal order={report['temporal_order']:.3f} -> {verdict}"
        )
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    detail = f" failed={failed}" if failed else ""
    return f"validate: {len(report['checks'])} checks{detail} -> {verdict}"


def _solve(config: ExperimentConfig, shift: ProfileShift, stepper: ThetaStepper):
    """Solve the configured problem for one shift with the configured GMRES settings."""
    return solve_profile_shift(
        shift, config.coeffs, config.grid, config.timegrid, config.advection_mode,
        tol=config.tol, max_iter=config.max_iter, restart=config.restart, stepper=stepper,
    )


def _verify(shift_check: ShiftCheck, normalized: Trajectory | None) -> dict:
    """The records of the checks on one answer, each with its ``passed``.

    ``fixed_shift``, and for a normalized trajectory ``positivity`` and ``mass``
    (against MASS_TOL); ``solve`` reports them and ``validate`` lists them as details.
    """
    records = {"fixed_shift": asdict(shift_check)}
    if normalized is not None:
        positivity = check_positivity(normalized)
        defect = check_mass(normalized)
        records["positivity"] = {**asdict(positivity), "passed": positivity.passed}
        records["mass"] = {"defect": defect, "tol": MASS_TOL, "passed": defect <= MASS_TOL}
    return records


def _cmd_solve(config: ExperimentConfig, out: Path):
    stepper = ThetaStepper(config.coeffs, config.grid, config.timegrid, config.advection_mode)
    result = _solve(config, config.shift, stepper)
    residual = result.relative_residual  # the two-time residual of its post-check
    checks = _verify(ShiftCheck(residual, config.tol, residual <= config.tol), result.normalized)
    report = {
        "M": config.grid.size,
        "m_matrix_certified": stepper.m_matrix_certified,
        "iterations": result.iterations,
        "deflated_modes": result.deflated_modes,
        "residual_history": result.history,
        "relative_residual": result.relative_residual,
        "alpha": result.alpha,
        "checks": checks,
    }
    passed = all(record["passed"] for record in checks.values())
    tables = [(out / "trajectory.csv", result.trajectory)]
    if result.normalized is not None:
        tables.append((out / "normalized_trajectory.csv", result.normalized))
    # Formatting holds the GIL, so threads would write one after another:
    # _forked.run writes the CSVs after the first in forked children, which
    # inherit their trajectories without a copy, where that is safe.
    writes = [partial(_csv_entry, *table, config.slice_stride) for table in tables]
    files = {}
    _forked.run(lambda: files.update(writes[0]()), writes[1:], lambda e: files.update([e]))
    return report, passed, files


def _cmd_oracle(config: ExperimentConfig, out: Path):
    grid = config.grid
    stepper = ThetaStepper(config.coeffs, grid, config.timegrid, config.advection_mode)
    q = dense_propagator(stepper)
    try:
        zeta_dense = np.linalg.solve(np.eye(grid.size) - q, config.shift.gamma)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"I - Q is numerically singular: {exc}") from exc
    result = _solve(config, config.shift, stepper)
    denom = max(float(np.linalg.norm(zeta_dense)), 1e-30)
    agreement = float(np.linalg.norm(result.zeta - zeta_dense)) / denom
    spectral = spectral_analysis(stepper, q)
    with open(out / "qmatrix.npy", "wb") as fh:
        q_file = _HashingFile(fh)
        np.save(q_file, q)
    report = {
        "M": grid.size,
        "agreement": agreement,
        "agreement_tol": ORACLE_AGREEMENT_TOL,
        "iterations": result.iterations,
        "cond_identity_minus_Q": spectral.cond_identity_minus_Q,
        "spectral_radius": spectral.spectral_radius,
    }
    return report, agreement <= ORACLE_AGREEMENT_TOL, {"qmatrix.npy": q_file.sha256.hexdigest()}


def _cmd_spectrum(config: ExperimentConfig, out: Path):
    stepper = ThetaStepper(config.coeffs, config.grid, config.timegrid, config.advection_mode)
    spectral = spectral_analysis(stepper)
    report = {
        "M": config.grid.size,
        "route": spectral.route,
        "spectral_radius": spectral.spectral_radius,
        "cond_identity_minus_Q": spectral.cond_identity_minus_Q,
        "log10_cond_Q": spectral.log10_cond_Q,
        "eigenvalues": {
            "real": np.real(spectral.eigenvalues),
            "imag": np.imag(spectral.eigenvalues),
        },
    }
    return report, True, {}


def _cmd_posedness(config: ExperimentConfig, out: Path, resolutions):
    if "tabulated" in config.coefficients:
        raise ValidationError(
            "posedness sweeps rebuild the grid per resolution; "
            "tabulated coefficients are bound to one grid, use a preset"
        )
    if config.grid.domain.mask is not None:
        raise ValidationError(
            "domain.mask: posedness sweeps rebuild the grid per resolution; "
            "a mask raster is bound to the config's resolution"
        )
    posedness = compare_posedness(
        config.coeffs, config.grid.domain, config.timegrid, resolutions, config.advection_mode
    )
    return posedness, True, {}


def _derive_case(config: ExperimentConfig) -> str:
    """The registered closed form of a config: heat has absorption 0, absorb its rate."""
    spec = config.coefficients
    absorption = {"heat": 0.0, "absorb": spec.get("rate")}.get(spec.get("preset"))
    if absorption is None:
        raise UnknownCase(
            "no closed form registered for these coefficients; only the heat and "
            "absorb presets have one"
        )
    return match_case(config.grid.domain, float(absorption))


def _cmd_convergence(config: ExperimentConfig, out: Path, resolutions):
    case = _derive_case(config)
    study = convergence_study(
        case,
        resolutions=resolutions,
        theta_temporal=config.timegrid.theta,
        T=config.timegrid.T,
    )
    return study, study.passed, {}


def _cmd_validate(config: ExperimentConfig, out: Path):
    grid, coeffs, timegrid = config.grid, config.coeffs, config.timegrid
    # A time-independent field is assembled at t_0 alone, for every step.
    samples = [0.0, timegrid.T / 2.0, timegrid.T] if coeffs.time_dependent else [0.0]
    coefficient_check = validate_coefficients(coeffs, grid, samples)
    stepper = ThetaStepper(coeffs, grid, timegrid, config.advection_mode)
    checks = [{"name": "coefficients", "passed": True, "detail": coefficient_check}]

    # One block solve: the configured gamma is column 0 and the random
    # shifts, one (RANDOM_SHIFTS, M) draw, the rest.  A zero gamma forces
    # zeta = 0 and stays out of the block.
    gamma = config.shift.gamma
    gamma_norm = float(np.linalg.norm(gamma))
    in_block = gamma_norm > 0.0
    gammas = np.random.default_rng(0).standard_normal((RANDOM_SHIFTS, grid.size)).T
    if in_block:
        gammas = np.column_stack([gamma, gammas])
    block = check_random_shifts(stepper, gammas, config.tol, config.max_iter, config.restart)
    if config.shift.nonneg:
        # positivity and mass are checked on a march of ||gamma|| z_0, so
        # fixed_shift reports that trajectory's own residual
        zeta = gamma_norm * block.zeta[:, 0]
        trajectory = Trajectory(stepper.run(zeta, keep=True), grid, timegrid)
        shift_check = check_fixed_shift(trajectory, gamma, config.tol)
        _, normalized = normalize(trajectory)
    else:
        shift_check = block.columns(0) if in_block else ShiftCheck(0.0, config.tol, True)
        normalized = None
    checks += [
        {"name": name, "passed": record["passed"], "detail": record}
        for name, record in _verify(shift_check, normalized).items()
    ]

    random = slice(int(in_block), None)
    shifts = block.columns(random)
    checks.append({
        "name": "random_shifts",
        "passed": shifts.passed,
        "detail": {"trials": RANDOM_SHIFTS, "worst_residual": shifts.residual, "tol": shifts.tol},
    })

    if stepper.m_matrix_certified and timegrid.theta == 1.0:
        # the random columns of Z and their march QZ, from the block solve
        z, qz = block.zeta[:, random], block.terminal[:, random]
        growth = np.abs(qz).max(axis=0) / np.abs(z).max(axis=0)
        checks.append({
            "name": "max_norm_contraction",
            "passed": bool(np.all(growth <= 1.0 + 1e-12)),
            "detail": {"trials": RANDOM_SHIFTS, "worst_growth": float(growth.max())},
        })

    report = {
        "M": grid.size,
        "m_matrix_certified": stepper.m_matrix_certified,
        "checks": checks,
    }
    return report, all(c["passed"] for c in checks), {}


class _HashingFile:
    """A binary file's ``write`` that hashes, in order, the bytes it writes."""

    def __init__(self, fh):
        self.fh, self.sha256 = fh, hashlib.sha256()

    def write(self, data) -> int:
        self.sha256.update(data)
        return self.fh.write(data)


def _csv_entry(path: Path, trajectory: Trajectory, stride: int) -> list:
    """Write a trajectory CSV; its one message, the manifest entry (file name, digest)."""
    return [(path.name, _write_trajectory_csv(path, trajectory, stride))]


def _write_trajectory_csv(path: Path, trajectory: Trajectory, stride: int) -> str:
    """Coordinates first, then one value column per slice kept; the file's hex SHA-256."""
    values = trajectory.values
    keep = list(range(0, len(values), stride))
    if keep[-1] != len(values) - 1:
        keep.append(len(values) - 1)
    coords = trajectory.grid.coordinates()
    header = list("xy"[: trajectory.grid.dimension]) + [
        f"{t:.17g}" for t in trajectory.times[keep]
    ]
    # A block of rows is formatted to bytes by one format string; stacking
    # the whole (M, slices) table at once would cost its size in memory again.
    row_format = (",".join(["%.17g"] * len(header)) + "\r\n").encode()
    with open(path, "wb") as fh:
        out = _HashingFile(fh)
        out.write((",".join(header) + "\r\n").encode())
        for lo in range(0, trajectory.grid.size, CSV_BLOCK_ROWS):
            hi = lo + CSV_BLOCK_ROWS
            block = np.column_stack([coords[lo:hi], values[keep, lo:hi].T])
            out.write((row_format * len(block)) % tuple(block.ravel().tolist()))
    return out.sha256.hexdigest()


def _write_json(path: Path, obj, indent: int | None = None) -> str:
    """Write obj as one line of JSON, or indented by ``indent``; the file's hex SHA-256.

    Non-finite floats are refused.  json calls _jsonable only on what it
    cannot encode, the numpy tables of a config built in Python say, so a
    JSON-native object is dumped without a walk; unindented, by json's C encoder.
    """
    data = (json.dumps(obj, indent=indent, allow_nan=False, default=_jsonable) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _jsonable(obj):
    """Recursively convert dataclasses (as their fields) and numpy values to JSON-native ones."""
    if is_dataclass(obj):
        obj = vars(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="profile-shift",
        description=(
            "Solve parabolic diffusion problems with a prescribed change of "
            "profile u(.,0) = u(.,T) + gamma, and run the validation lab."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument(
        "--resolutions", default=None,
        help="comma-separated interior node counts for posedness/convergence sweeps",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        if args.out is not None:
            config = replace(config, out_dir=args.out)
        resolutions = RESOLUTIONS
        if args.resolutions is not None:
            try:
                resolutions = tuple(int(r) for r in args.resolutions.split(",") if r)
            except ValueError as exc:
                raise ValidationError(
                    f"--resolutions must be comma-separated integers: {args.resolutions!r}"
                ) from exc
            if not resolutions:
                raise ValidationError(f"--resolutions names no resolution: {args.resolutions!r}")
        bundle = run(config, args.command, resolutions=resolutions, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return 5
    except (SolverError, NumericalBreakdown) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except CheckFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        # the config was read by parse_config, so this is a write under the
        # output directory
        print(f"output error: {exc}", file=sys.stderr)
        return 6
    return 0 if bundle.passed else 4


if __name__ == "__main__":
    sys.exit(main())
