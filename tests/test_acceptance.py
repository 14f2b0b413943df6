"""End-to-end acceptance gate.

One test per advertised guarantee, each exercising the public API the way a
user would and printing a single summary line with the measured quantity.
Expected values come from the Fourier closed form of the 1D heat problem on
(0, pi) with gamma = sin(x), frozen to full double precision:

    zeta = sin(x) / (1 - e^-1)     -> 1.5819767068693265 * sin(x)
    alpha = (1 - e^-1) / 2          = 0.31606027941427883
    rho(Q) -> e^-1                  = 0.36787944117144233
"""

import numpy as np
import pytest

from profile_shift import (
    ProfileShift,
    ThetaStepper,
    TimeGrid,
    box2d,
    build_grid,
    check_fixed_shift,
    compare_posedness,
    dense_propagator,
    drift,
    anisotropic,
    absorb,
    heat,
    interval,
    solve_profile_shift,
    spectral_analysis,
)

INV_GAP = 1.5819767068693265
ALPHA_SIN = 0.31606027941427883
EXP_M1 = 0.36787944117144233


def grid_1d(m=63):
    return build_grid(interval(0.0, np.pi), [m])


def grid_2d(m=15):
    return build_grid(box2d(), [m, m])


def random_block_gamma(rng, size):
    """Nonnegative piecewise-constant vector with at least one positive block."""
    n_cuts = int(rng.integers(2, 6))
    cuts = np.sort(rng.choice(np.arange(1, size), size=n_cuts, replace=False))
    values = np.zeros(size)
    for block in np.split(np.arange(size), cuts):
        if rng.random() < 0.35:
            continue
        values[block] = rng.uniform(0.2, 2.0)
    if not np.any(values > 0):
        values[: size // 2] = 1.0
    return values


def test_criterion_1_profile_shift_identity():
    """50 random mixed-sign shifts on 1D and 2D grids, residual <= 1e-10."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for grid, dim_label in ((grid_1d(63), "1d"), (grid_2d(15), "2d")):
        coeffs = heat(grid.dimension)
        tg = TimeGrid(T=1.0, steps=256, theta=1.0)
        for _ in range(25):
            gamma = rng.standard_normal(grid.size)
            report = solve_profile_shift(ProfileShift(gamma), coeffs, grid, tg)
            res = check_fixed_shift(report.trajectory, gamma, tol=1e-10)
            assert res.passed, f"{dim_label}: residual {res.residual:.3e}"
            worst = max(worst, res.residual)
    assert worst <= 1e-10
    print(f"ACCEPTANCE 1 PASS: fixed-shift identity, worst relative residual "
          f"{worst:.3e} over 50 random shifts (tol 1e-10)")


def test_criterion_2_closed_form_accuracy_and_spatial_order():
    """u(.,0) matches sin(x)/(1 - e^-1) to 1e-3 at M=127; fitted order >= 1.9."""
    errors = []
    hs = []
    for m in (31, 63, 127):
        grid = grid_1d(m)
        x = grid.coordinates()[:, 0]
        tg = TimeGrid(T=1.0, steps=512, theta=0.5)
        report = solve_profile_shift(
            ProfileShift(np.sin(x)), heat(1), grid, tg, "centered"
        )
        errors.append(float(np.abs(report.trajectory.initial - INV_GAP * np.sin(x)).max()))
        hs.append(grid.h[0])
    assert errors[-1] <= 1e-3
    order = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    assert order >= 1.9
    print(f"ACCEPTANCE 2 PASS: closed-form max error {errors[-1]:.3e} at M=127 "
          f"(tol 1e-3), fitted spatial order {order:.3f} (>= 1.9)")


def test_criterion_3_normalization():
    """alpha and p(x,0) match the closed form; unit mass to 1e-12."""
    grid = grid_1d(127)
    x = grid.coordinates()[:, 0]
    tg = TimeGrid(T=1.0, steps=512, theta=0.5)
    report = solve_profile_shift(
        ProfileShift(np.sin(x), nonneg=True), heat(1), grid, tg, "centered"
    )
    assert report.alpha == pytest.approx(ALPHA_SIN, abs=1e-3)
    p0_error = float(np.abs(report.normalized.initial - 0.5 * np.sin(x)).max())
    assert p0_error <= 1e-3
    mass = float(np.sum(report.normalized.initial) * grid.cell_volume)
    assert abs(mass - 1.0) <= 1e-12
    print(f"ACCEPTANCE 3 PASS: alpha={report.alpha:.10f} "
          f"(expected {ALPHA_SIN:.10f}, tol 1e-3), |p(.,0) - sin/2| "
          f"{p0_error:.3e}, mass defect {abs(mass - 1.0):.3e} (tol 1e-12)")


def test_criterion_4_positivity():
    """20 nonneg piecewise-constant shifts: no dip below -1e-12, positive at T."""
    rng = np.random.default_rng(104)
    setups = (
        (grid_1d(63), heat(1), 10),
        (grid_1d(63), drift([1.0], 0.5), 5),
        (grid_2d(15), heat(2), 5),
    )
    floor = 0.0
    for grid, coeffs, trials in setups:
        tg = TimeGrid(T=1.0, steps=128, theta=1.0)
        for _ in range(trials):
            gamma = random_block_gamma(rng, grid.size)
            report = solve_profile_shift(
                ProfileShift(gamma, nonneg=True), coeffs, grid, tg, "upwind"
            )
            lowest = float(report.trajectory.as_array().min())
            assert lowest >= -1e-12
            assert report.trajectory.terminal.min() > 0.0
            floor = min(floor, lowest)
    print(f"ACCEPTANCE 4 PASS: positivity over 20 block shifts, global floor "
          f"{floor:.3e} (>= -1e-12), terminal slice strictly positive")


def test_criterion_5_posedness_contrast():
    """cond(I-Q) <= 2 at every M while log10 cond(Q) >= 40 and growing."""
    report = compare_posedness(
        heat(1), interval(0.0, np.pi), TimeGrid(T=1.0, steps=512), (15, 31, 63)
    )
    conds = [r.cond_identity_minus_Q for r in report.records]
    logs = [r.log10_cond_Q for r in report.records]
    assert all(c <= 2.0 for c in conds)
    assert logs[0] >= 40.0
    assert logs[0] < logs[1] < logs[2]
    print(f"ACCEPTANCE 5 PASS: cond(I-Q) max {max(conds):.4f} (<= 2.0); "
          f"log10 cond(Q) = {logs[0]:.1f}, {logs[1]:.1f}, {logs[2]:.1f} "
          f"decades at M=15,31,63 (>= 40, increasing)")


def test_criterion_6_spectral_radius():
    """rho(Q) < 1 whenever q >= 0; for 1D heat it approaches e^-1."""
    tg = TimeGrid(T=1.0, steps=64, theta=1.0)
    configs = [
        ("heat 1d", grid_1d(15), heat(1)),
        ("absorb 0.5", grid_1d(15), absorb(0.5, 1)),
        ("absorb 1.0", grid_1d(15), absorb(1.0, 1)),
        ("drift", grid_1d(15), drift([1.5], 0.25)),
        ("heat 2d", grid_2d(7), heat(2)),
        ("anisotropic", grid_2d(7), anisotropic(1.0, 0.25, 1.0, 0.0)),
    ]
    radii = {}
    for label, grid, coeffs in configs:
        rho = spectral_analysis(ThetaStepper(coeffs, grid, tg)).spectral_radius
        assert rho < 1.0, f"{label}: rho={rho}"
        radii[label] = rho
    fine = build_grid(interval(0.0, np.pi), [127])
    tg_fine = TimeGrid(T=1.0, steps=512, theta=1.0)
    rho_fine = spectral_analysis(ThetaStepper(heat(1), fine, tg_fine)).spectral_radius
    assert rho_fine == pytest.approx(EXP_M1, abs=1e-3)
    print(f"ACCEPTANCE 6 PASS: rho(Q) < 1 in {len(configs)} configs "
          f"(max {max(radii.values()):.6f}); at M=127, N_t=512 rho="
          f"{rho_fine:.6f} vs e^-1={EXP_M1:.6f} (tol 1e-3)")


def test_criterion_7_oracle_equivalence():
    """Matrix-free Krylov matches the dense direct solve to 1e-8 relative."""
    rng = np.random.default_rng(107)
    tg = TimeGrid(T=1.0, steps=64, theta=1.0)
    worst = 0.0
    for grid in (grid_1d(31), grid_2d(5)):
        coeffs = heat(grid.dimension)
        q = dense_propagator(ThetaStepper(coeffs, grid, tg))
        system = np.eye(grid.size) - q
        for _ in range(10):
            gamma = rng.standard_normal(grid.size)
            zeta_dense = np.linalg.solve(system, gamma)
            report = solve_profile_shift(ProfileShift(gamma), coeffs, grid, tg)
            rel = float(
                np.linalg.norm(report.zeta - zeta_dense) / np.linalg.norm(zeta_dense)
            )
            assert rel <= 1e-8
            worst = max(worst, rel)
    print(f"ACCEPTANCE 7 PASS: matrix-free vs dense direct, worst relative "
          f"difference {worst:.3e} over 20 random shifts (tol 1e-8)")


def test_criterion_8_linearity_and_uniqueness():
    """gamma=0 gives the zero solution; solves are linear; scaling laws hold."""
    grid = grid_1d(31)
    coeffs = heat(1)
    tg = TimeGrid(T=1.0, steps=64, theta=1.0)

    zero = solve_profile_shift(ProfileShift(np.zeros(grid.size)), coeffs, grid, tg)
    assert zero.iterations == 0
    assert np.all(zero.trajectory.as_array() == 0.0)

    rng = np.random.default_rng(108)
    worst_lin = 0.0
    for _ in range(10):
        g1 = rng.standard_normal(grid.size)
        g2 = rng.standard_normal(grid.size)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        combo = solve_profile_shift(ProfileShift(a * g1 + b * g2), coeffs, grid, tg)
        z1 = solve_profile_shift(ProfileShift(g1), coeffs, grid, tg).zeta
        z2 = solve_profile_shift(ProfileShift(g2), coeffs, grid, tg).zeta
        expected = a * z1 + b * z2
        scale = max(float(np.linalg.norm(expected)), 1e-30)
        rel = float(np.linalg.norm(combo.zeta - expected)) / scale
        assert rel <= 1e-8
        worst_lin = max(worst_lin, rel)

    x = grid.coordinates()[:, 0]
    base = solve_profile_shift(ProfileShift(np.sin(x), nonneg=True), coeffs, grid, tg)
    s = 3.7
    scaled = solve_profile_shift(
        ProfileShift(s * np.sin(x), nonneg=True), coeffs, grid, tg
    )
    p_shift = float(
        np.abs(scaled.normalized.as_array() - base.normalized.as_array()).max()
    )
    alpha_defect = abs(scaled.alpha * s - base.alpha) / base.alpha
    assert p_shift <= 1e-10
    assert alpha_defect <= 1e-10
    print(f"ACCEPTANCE 8 PASS: zero shift -> zero solution (0 iterations); "
          f"linearity worst {worst_lin:.3e} (tol 1e-8); rescaling leaves p "
          f"within {p_shift:.3e} and scales alpha to {alpha_defect:.3e} "
          f"relative (tol 1e-10)")
