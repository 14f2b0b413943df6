"""Command-line front end: JSON configs in, CSV/JSON artifacts out.

Commands: solve (profile-shift solve + checks), oracle (dense propagator
vs matrix-free agreement), spectrum (eigen/conditioning summary),
posedness (well- vs ill-posed ladder), convergence (error orders against
closed forms), validate (coefficient checks + property battery).

Exit codes: 0 success, 2 config error, 3 solver failure, 4 validation
failure, 5 dense-oracle cap exceeded.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

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
    dense_propagator,
    solve_profile_shift,
    spectral_analysis,
    structured_log_spectrum,
)
from .grid import Domain, Grid, build_grid
from .operators import (
    ADVECTION_MODES,
    absorb,
    anisotropic,
    drift,
    heat,
    tabulated,
    validate_coefficients,
)
from .propagator import ThetaStepper, TimeGrid, Trajectory
from .validation import (
    check_fixed_shift,
    check_mass,
    check_positivity,
    compare_posedness,
    convergence_study,
)

try:
    from importlib.metadata import version as _pkg_version

    VERSION = _pkg_version("profile-shift")
except Exception:  # pragma: no cover - metadata missing in odd installs
    VERSION = "unknown"

COMMANDS = ("solve", "oracle", "spectrum", "posedness", "convergence", "validate")
ORACLE_AGREEMENT_TOL = 1e-8
MASS_TOL = 1e-12
CSV_BLOCK_ROWS = 32  # trajectory CSV rows formatted per write

_TOP_KEYS = {
    "domain", "resolution", "T", "N_t", "theta", "advection_mode",
    "coefficients", "gamma", "solver", "outputs",
}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Fully validated experiment description with defaults applied."""

    dimension: int
    box: tuple[tuple[float, float], ...]
    mask: np.ndarray | None
    resolution: tuple[int, ...]
    T: float
    steps: int
    theta: float
    advection_mode: str
    coefficients: dict
    gamma: dict
    nonneg: bool | None
    tol: float
    max_iter: int
    restart: int
    out_dir: str
    slice_stride: int

    def to_dict(self) -> dict:
        """Canonical JSON-ready echo; re-parsing it reproduces this config."""
        domain: dict = {
            "dimension": self.dimension,
            "box": [[lo, hi] for lo, hi in self.box],
        }
        if self.mask is not None:
            domain["mask"] = self.mask.astype(int).tolist()
        gamma = dict(self.gamma)
        if self.nonneg is not None:
            gamma["nonneg"] = self.nonneg
        return {
            "domain": domain,
            "resolution": list(self.resolution),
            "T": self.T,
            "N_t": self.steps,
            "theta": self.theta,
            "advection_mode": self.advection_mode,
            "coefficients": self.coefficients,
            "gamma": gamma,
            "solver": {"tol": self.tol, "max_iter": self.max_iter, "restart": self.restart},
            "outputs": {"directory": self.out_dir, "slice_stride": self.slice_stride},
        }


def _require(cond: bool, message: str):
    if not cond:
        raise ValidationError(message)


def _as_float(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{field} must be a number, got {value!r}")
    return float(value)


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{field} must be an integer, got {value!r}")
    return int(value)


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
    return config_from_dict(data)


def config_from_dict(data) -> ExperimentConfig:
    """Validate a config dictionary and apply defaults."""
    _require(isinstance(data, dict), "config root must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    _require(not unknown, f"unknown config fields: {sorted(unknown)}")

    _require("domain" in data, "config must contain a 'domain' section")
    dom = data["domain"]
    _require(isinstance(dom, dict), "domain must be an object")
    _require(not set(dom) - {"dimension", "box", "mask"},
             f"unknown domain fields: {sorted(set(dom) - {'dimension', 'box', 'mask'})}")
    _require("dimension" in dom, "domain.dimension is required")
    dimension = _as_int(dom["dimension"], "domain.dimension")
    _require(dimension in (1, 2), f"domain.dimension must be 1 or 2, got {dimension}")
    _require("box" in dom, "domain.box is required")
    box_raw = dom["box"]
    _require(
        isinstance(box_raw, list) and len(box_raw) == dimension,
        f"domain.box must list {dimension} [lo, hi] pairs",
    )
    box = []
    for pair in box_raw:
        _require(isinstance(pair, list) and len(pair) == 2, "each box entry must be [lo, hi]")
        lo = _as_float(pair[0], "domain.box lo")
        hi = _as_float(pair[1], "domain.box hi")
        _require(hi > lo, f"box interval [{lo}, {hi}] must have positive extent")
        box.append((lo, hi))

    _require("resolution" in data, "config must contain 'resolution'")
    res_raw = data["resolution"]
    if isinstance(res_raw, int) and not isinstance(res_raw, bool):
        resolution = (res_raw,) * dimension
    else:
        _require(
            isinstance(res_raw, list) and len(res_raw) == dimension,
            f"resolution must be an integer or a list of {dimension} integers",
        )
        resolution = tuple(_as_int(r, "resolution") for r in res_raw)
    _require(all(r >= 1 for r in resolution), f"resolution must be >= 1, got {resolution}")

    mask = None
    if dom.get("mask") is not None:
        try:
            mask = np.asarray(dom["mask"], dtype=bool)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"domain.mask is not a boolean raster: {exc}") from exc
        _require(
            mask.shape == resolution,
            f"domain.mask shape {mask.shape} must match resolution {resolution}",
        )

    T = _as_float(data.get("T", 1.0), "T")
    _require(T > 0, f"T must be positive, got {T}")
    steps = _as_int(data.get("N_t", 256), "N_t")
    _require(steps >= 1, f"N_t must be >= 1, got {steps}")
    theta = _as_float(data.get("theta", 1.0), "theta")
    _require(0.5 <= theta <= 1.0, f"theta must lie in [0.5, 1], got {theta}")
    advection_mode = data.get("advection_mode", "upwind")
    _require(
        advection_mode in ADVECTION_MODES,
        f"advection_mode must be one of {ADVECTION_MODES}, got {advection_mode!r}",
    )

    coefficients = _check_coefficients(data.get("coefficients", {"preset": "heat"}), dimension)
    gamma, nonneg = _check_gamma(data.get("gamma", {"eigenfunction": 1}), dimension)

    solver = data.get("solver", {})
    _require(isinstance(solver, dict), "solver must be an object")
    _require(not set(solver) - {"tol", "max_iter", "restart"},
             f"unknown solver fields: {sorted(set(solver) - {'tol', 'max_iter', 'restart'})}")
    tol = _as_float(solver.get("tol", 1e-10), "solver.tol")
    _require(tol > 0, f"solver.tol must be positive, got {tol}")
    max_iter = _as_int(solver.get("max_iter", 200), "solver.max_iter")
    _require(max_iter >= 1, f"solver.max_iter must be >= 1, got {max_iter}")
    restart = _as_int(solver.get("restart", 50), "solver.restart")
    _require(restart >= 1, f"solver.restart must be >= 1, got {restart}")

    outputs = data.get("outputs", {})
    _require(isinstance(outputs, dict), "outputs must be an object")
    _require(not set(outputs) - {"directory", "slice_stride"},
             f"unknown outputs fields: {sorted(set(outputs) - {'directory', 'slice_stride'})}")
    out_dir = outputs.get("directory", "out")
    _require(isinstance(out_dir, str) and out_dir, "outputs.directory must be a nonempty string")
    slice_stride = _as_int(outputs.get("slice_stride", 1), "outputs.slice_stride")
    _require(slice_stride >= 1, f"outputs.slice_stride must be >= 1, got {slice_stride}")

    return ExperimentConfig(
        dimension=dimension,
        box=tuple(box),
        mask=mask,
        resolution=resolution,
        T=T,
        steps=steps,
        theta=theta,
        advection_mode=advection_mode,
        coefficients=coefficients,
        gamma=gamma,
        nonneg=nonneg,
        tol=tol,
        max_iter=max_iter,
        restart=restart,
        out_dir=out_dir,
        slice_stride=slice_stride,
    )


_PRESET_KEYS = {
    "heat": set(),
    "absorb": {"rate"},
    "drift": {"velocity", "absorption"},
    "anisotropic": {"axx", "axy", "ayy", "absorption"},
}


def _check_coefficients(spec, dimension: int) -> dict:
    _require(isinstance(spec, dict), "coefficients must be an object")
    has_preset = "preset" in spec
    has_table = "tabulated" in spec
    _require(
        has_preset != has_table,
        "coefficients must contain exactly one of 'preset' or 'tabulated'",
    )
    if has_table:
        tab = spec["tabulated"]
        _require(isinstance(tab, dict), "coefficients.tabulated must be an object")
        _require("a" in tab, "coefficients.tabulated requires an 'a' array")
        _require(not set(tab) - {"a", "f", "q", "delta"},
                 "coefficients.tabulated allows only a, f, q, delta")
        return {"tabulated": tab}
    name = spec["preset"]
    _require(name in _PRESET_KEYS, f"unknown coefficient preset {name!r}")
    extra = set(spec) - {"preset"} - _PRESET_KEYS[name]
    _require(not extra, f"preset {name!r} does not accept fields {sorted(extra)}")
    if name == "absorb":
        _require("rate" in spec, "preset 'absorb' requires 'rate'")
        rate = _as_float(spec["rate"], "coefficients.rate")
        _require(rate >= 0, f"absorption rate must be >= 0, got {rate}")
    if name == "drift":
        _require("velocity" in spec, "preset 'drift' requires 'velocity'")
        vel = spec["velocity"]
        _require(
            isinstance(vel, list) and len(vel) == dimension,
            f"drift velocity must be a list of {dimension} numbers",
        )
        for v in vel:
            _as_float(v, "coefficients.velocity")
        if "absorption" in spec:
            _require(_as_float(spec["absorption"], "coefficients.absorption") >= 0,
                     "absorption must be >= 0")
    if name == "anisotropic":
        _require(dimension == 2, "preset 'anisotropic' is 2D only")
        for key in ("axx", "axy", "ayy"):
            _require(key in spec, f"preset 'anisotropic' requires '{key}'")
            _as_float(spec[key], f"coefficients.{key}")
        if "absorption" in spec:
            _require(_as_float(spec["absorption"], "coefficients.absorption") >= 0,
                     "absorption must be >= 0")
    return dict(spec)


def _check_gamma(spec, dimension: int):
    _require(isinstance(spec, dict), "gamma must be an object")
    forms = [k for k in ("eigenfunction", "indicator", "table") if k in spec]
    _require(
        len(forms) == 1,
        f"gamma must contain exactly one of eigenfunction/indicator/table, got {forms}",
    )
    _require(not set(spec) - {"eigenfunction", "indicator", "table", "nonneg"},
             "gamma allows only eigenfunction/indicator/table plus nonneg")
    nonneg = spec.get("nonneg")
    if nonneg is not None:
        _require(isinstance(nonneg, bool), "gamma.nonneg must be a boolean")
    form = forms[0]
    if form == "eigenfunction":
        k = spec["eigenfunction"]
        if isinstance(k, int) and not isinstance(k, bool):
            ks = [k] * dimension
        else:
            _require(
                isinstance(k, list) and len(k) == dimension,
                f"gamma.eigenfunction must be an integer or a list of {dimension} integers",
            )
            ks = [_as_int(v, "gamma.eigenfunction") for v in k]
        _require(all(v >= 1 for v in ks), f"eigenfunction indices must be >= 1, got {ks}")
        body = {"eigenfunction": ks if isinstance(k, list) else k}
    elif form == "indicator":
        ind = spec["indicator"]
        _require(isinstance(ind, dict) and "box" in ind, "gamma.indicator requires a 'box'")
        _require(not set(ind) - {"box", "value"}, "gamma.indicator allows only box and value")
        bx = ind["box"]
        _require(
            isinstance(bx, list) and len(bx) == dimension,
            f"indicator box must list {dimension} [lo, hi] pairs",
        )
        for pair in bx:
            _require(isinstance(pair, list) and len(pair) == 2,
                     "each indicator box entry must be [lo, hi]")
            lo = _as_float(pair[0], "gamma.indicator lo")
            hi = _as_float(pair[1], "gamma.indicator hi")
            _require(hi > lo, f"indicator interval [{lo}, {hi}] must have positive extent")
        if "value" in ind:
            _as_float(ind["value"], "gamma.indicator.value")
        body = {"indicator": ind}
    else:
        table = spec["table"]
        _require(isinstance(table, list) and table, "gamma.table must be a nonempty list")
        for v in table:
            _as_float(v, "gamma.table entry")
        body = {"table": table}
    return body, nonneg


def build_problem(config: ExperimentConfig):
    """Materialize (domain, grid, coefficients, timegrid) from a config."""
    domain = Domain(config.dimension, config.box, config.mask)
    grid = build_grid(domain, config.resolution)
    coeffs = _build_coefficients(config, grid)
    timegrid = TimeGrid(T=config.T, steps=config.steps, theta=config.theta)
    return domain, grid, coeffs, timegrid


def _build_coefficients(config: ExperimentConfig, grid: Grid | None):
    spec = config.coefficients
    if "tabulated" in spec:
        tab = spec["tabulated"]
        try:
            return tabulated(
                grid,
                np.asarray(tab["a"], dtype=float),
                None if tab.get("f") is None else np.asarray(tab["f"], dtype=float),
                None if tab.get("q") is None else np.asarray(tab["q"], dtype=float),
                None if tab.get("delta") is None else float(tab["delta"]),
            )
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"tabulated coefficients do not fit the grid: {exc}") from exc
    name = spec["preset"]
    if name == "heat":
        return heat(config.dimension)
    if name == "absorb":
        return absorb(float(spec["rate"]), config.dimension)
    if name == "drift":
        return drift([float(v) for v in spec["velocity"]], float(spec.get("absorption", 0.0)))
    return anisotropic(
        float(spec["axx"]), float(spec["axy"]), float(spec["ayy"]),
        float(spec.get("absorption", 0.0)),
    )


def gamma_vector(config: ExperimentConfig, grid: Grid) -> np.ndarray:
    """Evaluate the configured gamma on the interior nodes."""
    spec = config.gamma
    coords = grid.coordinates()
    if "eigenfunction" in spec:
        k = spec["eigenfunction"]
        ks = [k] * grid.dimension if isinstance(k, int) else list(k)
        out = np.ones(grid.size)
        for axis, (lo, hi) in enumerate(grid.domain.box):
            length = hi - lo
            out *= np.sin(ks[axis] * np.pi * (coords[:, axis] - lo) / length)
        return out
    if "indicator" in spec:
        ind = spec["indicator"]
        value = float(ind.get("value", 1.0))
        inside = np.ones(grid.size, dtype=bool)
        for axis, (lo, hi) in enumerate(ind["box"]):
            inside &= (coords[:, axis] >= lo) & (coords[:, axis] <= hi)
        return value * inside.astype(float)
    table = np.asarray(spec["table"], dtype=float).ravel()
    if table.size != grid.size:
        raise ValidationError(
            f"gamma.table has {table.size} entries but the grid has {grid.size} interior nodes"
        )
    return table


def build_shift(config: ExperimentConfig, grid: Grid) -> ProfileShift:
    gamma = gamma_vector(config, grid)
    nonneg = config.nonneg
    if nonneg is None:
        # Auto-detect the probability path: nonnegative nontrivial gamma.
        nonneg = bool(np.all(gamma >= 0.0) and np.any(gamma > 0.0))
    try:
        return ProfileShift(gamma, nonneg=nonneg)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


@dataclass(frozen=True)
class ResultBundle:
    """What a command run produced: verdict, report dict, emitted files."""

    command: str
    passed: bool
    report: dict
    files: dict
    out_dir: str


def run(config: ExperimentConfig, command: str, resolutions=None, quiet: bool = False) -> ResultBundle:
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
    if command in ("posedness", "convergence"):
        report, passed, artifacts = handler(config, out, resolutions)
    else:
        report, passed, artifacts = handler(config, out)

    report = _jsonable({"command": command, "passed": passed, **report})
    report_path = out / "report.json"
    _write_json(report_path, report)
    artifacts = [report_path] + artifacts

    metadata = {
        "package": "profile-shift",
        "version": VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "command": command,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_seconds": time.perf_counter() - started,
        "config": config.to_dict(),
        "files": {p.name: _sha256(p) for p in artifacts},
    }
    _write_json(out / "metadata.json", _jsonable(metadata))

    if not quiet:
        print(_summary_line(command, report, passed))
        print(f"wrote {out}/report.json, {out}/metadata.json")
    return ResultBundle(
        command=command,
        passed=passed,
        report=report,
        files=metadata["files"],
        out_dir=str(out),
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


def _cmd_solve(config: ExperimentConfig, out: Path):
    domain, grid, coeffs, timegrid = build_problem(config)
    shift = build_shift(config, grid)
    stepper = ThetaStepper(coeffs, grid, timegrid, config.advection_mode)
    result = solve_profile_shift(
        shift, coeffs, grid, timegrid, config.advection_mode,
        tol=config.tol, max_iter=config.max_iter, restart=config.restart,
        stepper=stepper,
    )
    shift_check = check_fixed_shift(result.trajectory, shift.gamma, config.tol)
    report = {
        "M": grid.size,
        "m_matrix_certified": stepper.m_matrix_certified,
        "iterations": result.iterations,
        "relative_residual": result.relative_residual,
        "alpha": result.alpha,
        "checks": {
            "fixed_shift": {
                "residual": shift_check.residual,
                "tol": shift_check.tol,
                "passed": shift_check.passed,
            },
        },
    }
    passed = shift_check.passed
    artifacts = [out / "trajectory.csv"]
    _write_trajectory_csv(artifacts[0], result.trajectory, config.slice_stride)
    if result.normalized is not None:
        positivity = check_positivity(result.normalized)
        mass_defect = check_mass(result.normalized)
        report["checks"]["positivity"] = {
            "min_value_global": positivity.min_value_global,
            "min_interior_positive_time": positivity.min_interior_positive_time,
            "violation_count": positivity.violation_count,
            "positivity_tol": positivity.positivity_tol,
            "passed": positivity.passed,
        }
        report["checks"]["mass"] = {
            "defect": mass_defect,
            "tol": MASS_TOL,
            "passed": mass_defect <= MASS_TOL,
        }
        passed = passed and positivity.passed and mass_defect <= MASS_TOL
        p_path = out / "normalized_trajectory.csv"
        _write_trajectory_csv(p_path, result.normalized, config.slice_stride)
        artifacts.append(p_path)
    return report, passed, artifacts


def _cmd_oracle(config: ExperimentConfig, out: Path):
    domain, grid, coeffs, timegrid = build_problem(config)
    shift = build_shift(config, grid)
    stepper = ThetaStepper(coeffs, grid, timegrid, config.advection_mode)
    q = dense_propagator(coeffs, grid, timegrid, config.advection_mode, stepper=stepper)
    zeta_dense = np.linalg.solve(np.eye(grid.size) - q, shift.gamma)
    result = solve_profile_shift(
        shift, coeffs, grid, timegrid, config.advection_mode,
        tol=config.tol, max_iter=config.max_iter, restart=config.restart,
        stepper=stepper,
    )
    denom = max(float(np.linalg.norm(zeta_dense)), 1e-30)
    agreement = float(np.linalg.norm(result.zeta - zeta_dense)) / denom
    spectral = spectral_analysis(q)
    q_path = out / "qmatrix.npy"
    np.save(q_path, q)
    report = {
        "M": grid.size,
        "agreement": agreement,
        "agreement_tol": ORACLE_AGREEMENT_TOL,
        "iterations": result.iterations,
        "cond_identity_minus_Q": spectral.cond_identity_minus_Q,
        "spectral_radius": spectral.spectral_radius,
    }
    return report, agreement <= ORACLE_AGREEMENT_TOL, [q_path]


def _cmd_spectrum(config: ExperimentConfig, out: Path):
    domain, grid, coeffs, timegrid = build_problem(config)
    q = dense_propagator(coeffs, grid, timegrid, config.advection_mode)
    spectral = spectral_analysis(q)
    log10_cond = spectral.log10_cond_Q
    structured = None
    try:
        log_mu = structured_log_spectrum(coeffs, grid, timegrid, config.advection_mode)
        structured = float(log_mu.max() - log_mu.min())
        log10_cond = structured
    except NumericalBreakdown:
        pass
    report = {
        "M": grid.size,
        "spectral_radius": spectral.spectral_radius,
        "cond_identity_minus_Q": spectral.cond_identity_minus_Q,
        "log10_cond_Q": log10_cond,
        "log10_cond_Q_svd": spectral.log10_cond_Q,
        "log10_cond_Q_structured": structured,
        "eigenvalues": {
            "real": np.real(spectral.eigenvalues),
            "imag": np.imag(spectral.eigenvalues),
        },
    }
    return report, True, []


def _cmd_posedness(config: ExperimentConfig, out: Path, resolutions):
    if "tabulated" in config.coefficients:
        raise ValidationError(
            "posedness sweeps rebuild the grid per resolution; "
            "tabulated coefficients are bound to one grid, use a preset"
        )
    if resolutions is None:
        resolutions = (15, 31, 63)
    domain = Domain(config.dimension, config.box, config.mask)
    # Preset coefficients are grid-free; the grid argument is only consulted
    # by the tabulated branch, which was rejected above.
    coeffs = _build_coefficients(config, None)
    posedness = compare_posedness(
        coeffs, domain, config.T, resolutions,
        steps=config.steps, theta=config.theta, advection_mode=config.advection_mode,
    )
    report = {
        "records": [
            {
                "M": r.M,
                "cond_identity_minus_Q": r.cond_identity_minus_Q,
                "log10_cond_Q": r.log10_cond_Q,
                "spectral_radius": r.spectral_radius,
            }
            for r in posedness.records
        ],
        "slope_vs_M2": posedness.slope_vs_M2,
    }
    return report, True, []


def _derive_case(config: ExperimentConfig) -> str:
    """Map a config onto a registered closed-form case, or refuse."""
    on_pi_box = all(
        abs(lo) <= 1e-12 and abs(hi - np.pi) <= 1e-9 for lo, hi in config.box
    )
    if not on_pi_box or config.mask is not None:
        raise UnknownCase(
            "convergence studies require the unmasked box (0, pi) per axis"
        )
    spec = config.coefficients
    preset = spec.get("preset")
    if preset == "heat":
        return "heat1d" if config.dimension == 1 else "heat2d"
    if preset == "absorb" and config.dimension == 1 and float(spec["rate"]) == 1.0:
        return "heat1d-absorb"
    raise UnknownCase(
        "no closed form registered for this configuration; supported: "
        "heat (1D/2D) and absorb with rate 1.0 (1D) on the (0, pi) box"
    )


def _cmd_convergence(config: ExperimentConfig, out: Path, resolutions):
    case = _derive_case(config)
    study = convergence_study(
        case,
        resolutions=resolutions if resolutions is not None else (15, 31, 63),
        theta_temporal=config.theta,
        T=config.T,
    )
    expect_temporal = 1.8 if config.theta <= 0.75 else 0.9
    passed = study.spatial_order >= 1.9 and study.temporal_order >= expect_temporal
    report = {
        "case": study.case,
        "spatial": [
            {"M": r.M, "h": r.h, "error_initial": r.error_initial,
             "error_terminal": r.error_terminal}
            for r in study.spatial
        ],
        "spatial_order": study.spatial_order,
        "theta_spatial": study.theta_spatial,
        "temporal": [
            {"steps": r.steps, "dt": r.dt, "error": r.error} for r in study.temporal
        ],
        "temporal_order": study.temporal_order,
        "theta_temporal": study.theta_temporal,
        "temporal_order_threshold": expect_temporal,
    }
    return report, passed, []


def _cmd_validate(config: ExperimentConfig, out: Path):
    domain, grid, coeffs, timegrid = build_problem(config)
    samples = [0.0, config.T / 2.0, config.T]
    coefficient_check = validate_coefficients(coeffs, grid, samples)
    stepper = ThetaStepper(coeffs, grid, timegrid, config.advection_mode)
    checks = [
        {
            "name": "coefficients",
            "passed": True,
            "detail": {
                "symmetry_defect": coefficient_check.symmetry_defect,
                "ellipticity_margin": coefficient_check.ellipticity_margin,
                "min_absorption": coefficient_check.min_absorption,
                "warnings": list(coefficient_check.warnings),
            },
        }
    ]

    shift = build_shift(config, grid)
    result = solve_profile_shift(
        shift, coeffs, grid, timegrid, config.advection_mode,
        tol=config.tol, max_iter=config.max_iter, restart=config.restart,
        stepper=stepper,
    )
    shift_check = check_fixed_shift(result.trajectory, shift.gamma, config.tol)
    checks.append({
        "name": "fixed_shift",
        "passed": shift_check.passed,
        "detail": {"residual": shift_check.residual, "tol": shift_check.tol},
    })
    if result.normalized is not None:
        positivity = check_positivity(result.normalized)
        mass_defect = check_mass(result.normalized)
        checks.append({
            "name": "positivity",
            "passed": positivity.passed,
            "detail": {
                "min_value_global": positivity.min_value_global,
                "violation_count": positivity.violation_count,
            },
        })
        checks.append({
            "name": "mass",
            "passed": mass_defect <= MASS_TOL,
            "detail": {"defect": mass_defect},
        })

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        gamma = rng.standard_normal(grid.size)
        trial = solve_profile_shift(
            ProfileShift(gamma), coeffs, grid, timegrid, config.advection_mode,
            tol=config.tol, max_iter=config.max_iter, restart=config.restart,
            stepper=stepper,
        )
        worst = max(worst, check_fixed_shift(trial.trajectory, gamma, config.tol).residual)
    checks.append({
        "name": "random_shifts",
        "passed": worst <= config.tol,
        "detail": {"trials": 5, "worst_residual": worst, "tol": config.tol},
    })

    if stepper.m_matrix_certified and config.theta == 1.0:
        # one (M, 3) block march; the draws equal three standard_normal(M) calls
        x = rng.standard_normal((3, grid.size)).T
        growth = np.abs(stepper.run(x)).max(axis=0) / np.abs(x).max(axis=0)
        checks.append({
            "name": "max_norm_contraction",
            "passed": bool(np.all(growth <= 1.0 + 1e-12)),
            "detail": {"trials": 3, "worst_growth": float(growth.max())},
        })

    report = {
        "M": grid.size,
        "m_matrix_certified": stepper.m_matrix_certified,
        "checks": checks,
    }
    return report, all(c["passed"] for c in checks), []


def _write_trajectory_csv(path: Path, trajectory: Trajectory, stride: int):
    """Coordinates first, then one value column per retained time slice."""
    values = trajectory.values
    keep = list(range(0, len(values), stride))
    if keep[-1] != len(values) - 1:
        keep.append(len(values) - 1)
    coords = trajectory.grid.coordinates()
    header = list("xy"[: trajectory.grid.dimension]) + [
        f"{t:.17g}" for t in trajectory.times[keep]
    ]
    # A block of rows is formatted by one format string; stacking the whole
    # (M, slices) table at once would cost its size in memory again.
    row_format = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, trajectory.grid.size, CSV_BLOCK_ROWS):
            hi = lo + CSV_BLOCK_ROWS
            block = np.column_stack([coords[lo:hi], values[keep, lo:hi].T])
            fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jsonable(obj):
    """Recursively convert numpy containers/scalars to JSON-native values."""
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


def _apply_thread_env():
    threads = os.environ.get("PROFILE_SHIFT_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = threads


def main(argv=None) -> int:
    _apply_thread_env()
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
        resolutions = None
        if args.resolutions is not None:
            try:
                resolutions = tuple(int(r) for r in args.resolutions.split(",") if r)
            except ValueError as exc:
                raise ValidationError(
                    f"--resolutions must be comma-separated integers: {args.resolutions!r}"
                ) from exc
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
    return 0 if bundle.passed else 4


if __name__ == "__main__":
    sys.exit(main())
