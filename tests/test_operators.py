import numpy as np
import pytest

from profile_shift import (
    CoefficientField,
    NegativeAbsorption,
    NotElliptic,
    NotSymmetric,
    ProfileShift,
    TimeGrid,
    ValidationError,
    absorb,
    anisotropic,
    assemble,
    build_grid,
    drift,
    heat,
    interval,
    solve_profile_shift,
    tabulated,
    validate_coefficients,
)


def field(a, f, q, delta, dimension=1, time_dependent=False):
    """Constant-coefficient field from plain arrays/scalars."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    f = np.atleast_1d(np.asarray(f, dtype=float))
    return CoefficientField(
        dimension=dimension,
        a=lambda x, t: a,
        f=lambda x, t: f,
        q=lambda x, t: float(q),
        delta=delta,
        time_dependent=time_dependent,
    )


class TestValidateCoefficients:
    def test_identity_passes_with_zero_margin(self, grid1d):
        check = validate_coefficients(heat(1), grid1d(9), [0.0, 0.5, 1.0])
        assert check.ellipticity_margin == pytest.approx(0.0, abs=1e-14)
        assert check.symmetry_defect == 0.0
        assert check.min_absorption == 0.0
        assert check.warnings == ()

    def test_two_by_two_margin(self, grid2d):
        # eigenvalues of [[1, .9], [.9, 1]] are 1 +- 0.9, so margin vs
        # delta = 0.05 is 0.1 - 0.05
        coeffs = field([[1.0, 0.9], [0.9, 1.0]], [0.0, 0.0], 0.0, delta=0.05, dimension=2)
        check = validate_coefficients(coeffs, grid2d(5), [0.0])
        assert check.ellipticity_margin == pytest.approx(0.05)

    def test_not_elliptic(self, grid2d):
        coeffs = field([[1.0, 0.9], [0.9, 1.0]], [0.0, 0.0], 0.0, delta=0.2, dimension=2)
        with pytest.raises(NotElliptic):
            validate_coefficients(coeffs, grid2d(5), [0.0])
        with pytest.raises(NotElliptic):
            coeffs = field(np.eye(2), [0.0, 0.0], 0.0, delta=np.nan, dimension=2)
            validate_coefficients(coeffs, grid2d(5), [0.0])

    def test_not_symmetric(self, grid2d):
        coeffs = field([[1.0, 0.3], [0.0, 1.0]], [0.0, 0.0], 0.0, delta=0.1, dimension=2)
        with pytest.raises(NotSymmetric):
            validate_coefficients(coeffs, grid2d(5), [0.0])

    def test_negative_absorption(self, grid1d):
        coeffs = field([[1.0]], [0.0], -1.0, delta=1.0)
        with pytest.raises(NegativeAbsorption):
            validate_coefficients(coeffs, grid1d(5), [0.0])

    def test_jump_warning_for_rough_tabulated_field(self, grid1d):
        grid = grid1d(9)
        a = np.ones((grid.size, 1, 1))
        a[grid.size // 2 :] = 10.0
        coeffs = tabulated(grid, a)
        check = validate_coefficients(coeffs, grid, [0.0])
        assert check.warnings
        assert "jump" in check.warnings[0]

    def test_non_finite_coefficient_named(self, grid1d):
        coeffs = field([[1.0]], [np.inf], 0.0, delta=1.0)
        with pytest.raises(ValidationError, match=r"coefficient f is not finite at x=.*t=0.5"):
            validate_coefficients(coeffs, grid1d(5), [0.5])

    def test_delta_must_be_positive(self):
        with pytest.raises(NotElliptic):
            field([[1.0]], [0.0], 0.0, delta=0.0)


class TestAssemble:
    def test_second_difference_stencil(self, grid1d):
        grid = grid1d(3)
        h = grid.h[0]
        gen = assemble(heat(1), grid, 0.0)
        mat = gen.matrix.toarray()
        assert np.diag(mat) == pytest.approx(np.full(3, -2.0 / h**2))
        assert mat[0, 1] == pytest.approx(1.0 / h**2)
        assert mat[1, 0] == pytest.approx(1.0 / h**2)
        assert mat[0, 2] == 0.0
        assert gen.m_matrix_certified

    def test_absorption_shifts_diagonal(self, grid1d):
        grid = grid1d(3)
        h = grid.h[0]
        mat = assemble(absorb(0.5, 1), grid, 0.0).matrix.toarray()
        assert np.diag(mat) == pytest.approx(np.full(3, -2.0 / h**2 - 0.5))

    def test_upwind_drift_stencil(self, grid1d):
        # f = 2 > 0 takes the forward difference: the downwind (plus-side)
        # neighbor receives f/h so all off-diagonals stay nonnegative
        grid = grid1d(3)
        h = grid.h[0]
        gen = assemble(drift([2.0]), grid, 0.0, advection_mode="upwind")
        mat = gen.matrix.toarray()
        assert mat[0, 1] == pytest.approx(1.0 / h**2 + 2.0 / h)
        assert mat[1, 0] == pytest.approx(1.0 / h**2)
        assert np.diag(mat) == pytest.approx(np.full(3, -2.0 / h**2 - 2.0 / h))
        assert gen.m_matrix_certified

    def test_negative_drift_upwinds_the_other_way(self, grid1d):
        grid = grid1d(3)
        h = grid.h[0]
        mat = assemble(drift([-2.0]), grid, 0.0, advection_mode="upwind").matrix.toarray()
        assert mat[1, 0] == pytest.approx(1.0 / h**2 + 2.0 / h)
        assert mat[0, 1] == pytest.approx(1.0 / h**2)

    def test_centered_drift_stencil(self, grid1d):
        grid = grid1d(3)
        h = grid.h[0]
        gen = assemble(drift([2.0]), grid, 0.0, advection_mode="centered")
        mat = gen.matrix.toarray()
        assert mat[0, 1] == pytest.approx(1.0 / h**2 + 1.0 / h)
        assert mat[1, 0] == pytest.approx(1.0 / h**2 - 1.0 / h)
        assert np.diag(mat) == pytest.approx(np.full(3, -2.0 / h**2))
        assert not gen.m_matrix_certified

    def test_upwind_orientation_is_consistent(self, grid1d):
        # A(sin) = -sin + 2 cos for a = 1, f = 2; the first-order upwind
        # error is O(h), which a transposed stencil would not achieve
        errors = []
        for m in (31, 63):
            grid = grid1d(m)
            x = grid.coordinates()[:, 0]
            mat = assemble(drift([2.0]), grid, 0.0).matrix
            exact = -np.sin(x) + 2.0 * np.cos(x)
            errors.append(np.max(np.abs(mat @ np.sin(x) - exact)))
            assert errors[-1] <= 2.0 * grid.h[0]
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.2)

    def test_diffusion_consistency_is_second_order(self, grid1d):
        errors = []
        for m in (31, 63):
            grid = grid1d(m)
            x = grid.coordinates()[:, 0]
            mat = assemble(heat(1), grid, 0.0).matrix
            errors.append(np.max(np.abs(mat @ np.sin(x) + np.sin(x))))
        assert errors[0] / errors[1] >= 3.5

    def test_generator_eigenvalues_match_formula(self, grid1d):
        grid = grid1d(15)
        h = grid.h[0]
        mat = assemble(heat(1), grid, 0.0).matrix.toarray()
        assert np.allclose(mat, mat.T)
        eigs = np.sort(np.linalg.eigvalsh(mat))
        k = np.arange(1, 16)
        exact = np.sort(-(4.0 / h**2) * np.sin(k * h / 2.0) ** 2)
        assert eigs == pytest.approx(exact)

    def test_mixed_term_cross_stencil(self, grid2d):
        grid = grid2d(5)
        hx, hy = grid.h
        a01 = 0.25
        gen = assemble(anisotropic(1.0, a01, 1.0), grid, 0.0)
        assert not gen.m_matrix_certified
        mat = gen.matrix.toarray()
        index = grid.index_map
        center = index[2, 2]
        w = a01 / (2.0 * hx * hy)
        assert mat[center, index[3, 3]] == pytest.approx(w)
        assert mat[center, index[1, 1]] == pytest.approx(w)
        assert mat[center, index[3, 1]] == pytest.approx(-w)
        assert mat[center, index[1, 3]] == pytest.approx(-w)

    def test_mixed_term_consistency(self, grid2d):
        # A(sin x sin y) = -(axx + ayy) sin x sin y + 2 axy cos x cos y
        errors = []
        for m in (15, 31):
            grid = grid2d(m)
            coords = grid.coordinates()
            u = np.sin(coords[:, 0]) * np.sin(coords[:, 1])
            exact = -2.0 * u + 2.0 * 0.25 * np.cos(coords[:, 0]) * np.cos(coords[:, 1])
            mat = assemble(anisotropic(1.0, 0.25, 1.0), grid, 0.0).matrix
            # skip the boundary layer: the cross stencil drops corner
            # couplings there, which is only first-order accurate
            inner = np.all((grid.nodes >= 1) & (grid.nodes <= m - 2), axis=1)
            errors.append(np.max(np.abs((mat @ u - exact)[inner])))
        assert errors[0] / errors[1] >= 3.5

    def test_certified_sign_pattern(self, grid2d):
        gen = assemble(drift([1.0, -3.0], absorption=0.5), grid2d(7), 0.0)
        assert gen.m_matrix_certified
        mat = gen.matrix.toarray()
        off = mat - np.diag(np.diag(mat))
        assert np.all(off >= 0.0)
        assert np.all(np.diag(mat) <= 0.0)

    def test_non_finite_coefficient_rejected(self, grid1d):
        coeffs = CoefficientField(
            dimension=1,
            a=lambda x, t: np.array([[np.nan if x[0] > 2.0 else 1.0]]),
            f=lambda x, t: np.zeros(1),
            q=lambda x, t: 0.0,
            delta=1.0,
        )
        with pytest.raises(ValidationError, match=r"coefficient a is not finite at x=.*t=0.25"):
            assemble(coeffs, grid1d(5), 0.25)

    def test_ellipticity_below_delta_is_named_at_assembly(self, grid1d, grid2d):
        # a = -1 against delta = 1 ended in NoConvergence after 6200
        # iterations, and a = 1e-3 solved as if nothing were wrong.
        grid = grid1d(31)
        gamma = np.sin(grid.coordinates()[:, 0])
        for a in (-1.0, 1e-3):
            with pytest.raises(NotElliptic, match=f"smallest eigenvalue {a:.6g} of a at x="):
                solve_profile_shift(
                    ProfileShift(gamma), field([[a]], [0.0], 0.0, delta=1.0), grid,
                    TimeGrid(T=1.0, steps=64),
                )
        # The first node and time where a falls below delta are named, and a
        # equal to delta passes.
        coeffs = CoefficientField(
            dimension=1,
            a=lambda x, t: np.array([[1.0 - t if x[0] > 2.0 else 1.0]]),
            f=lambda x, t: np.zeros(1),
            q=lambda x, t: 0.0,
            delta=0.5,
            time_dependent=True,
        )
        assemble(coeffs, grid, 0.5)
        with pytest.raises(NotElliptic, match=r"0\.25 of a at x=\[2\.06.*\], t=0\.75 is below"):
            assemble(coeffs, grid, 0.75)
        # In 2D the smallest eigenvalue of [[1, .9], [.9, 1]] is 0.1.
        mixed = [[1.0, 0.9], [0.9, 1.0]]
        assemble(field(mixed, [0.0, 0.0], 0.0, delta=0.05, dimension=2), grid2d(5), 0.0)
        with pytest.raises(NotElliptic, match="below delta=0.2"):
            assemble(field(mixed, [0.0, 0.0], 0.0, delta=0.2, dimension=2), grid2d(5), 0.0)

    def test_field_of_another_dimension_is_named(self, grid1d, grid2d):
        # numpy's reshape raised "cannot reshape array of size 60 into shape
        # (15,1,1)" for a 2D field on a 15-node 1D grid
        grid = grid1d(15)
        gamma = np.sin(grid.coordinates()[:, 0])
        for coeffs in (heat(2), drift([1.0, 2.0])):
            with pytest.raises(ValidationError, match="coefficient field is 2D but the grid is 1D"):
                solve_profile_shift(ProfileShift(gamma), coeffs, grid, TimeGrid(T=1.0, steps=8))
        with pytest.raises(ValidationError, match="coefficient field is 1D but the grid is 2D"):
            assemble(heat(1), grid2d(5), 0.0)
        with pytest.raises(ValidationError, match="coefficient field is 1D but the grid is 2D"):
            validate_coefficients(heat(1), grid2d(5), [0.0])

    def test_time_dependent_sampling(self, grid1d):
        grid = grid1d(5)
        coeffs = CoefficientField(
            dimension=1,
            a=lambda x, t: np.eye(1),
            f=lambda x, t: np.zeros(1),
            q=lambda x, t: t,
            delta=1.0,
            time_dependent=True,
        )
        m0 = assemble(coeffs, grid, 0.0).matrix.toarray()
        m1 = assemble(coeffs, grid, 1.0).matrix.toarray()
        assert np.diag(m0 - m1) == pytest.approx(np.ones(5))


class TestTabulated:
    def test_matches_preset_for_constant_arrays(self, grid1d):
        grid = grid1d(9)
        m = grid.size
        coeffs = tabulated(
            grid,
            np.ones((m, 1, 1)),
            np.full((m, 1), 2.0),
            np.full(m, 0.5),
        )
        direct = assemble(drift([2.0], absorption=0.5), grid, 0.0).matrix.toarray()
        tab = assemble(coeffs, grid, 0.0).matrix.toarray()
        assert tab == pytest.approx(direct)

    def test_delta_inferred_from_smallest_eigenvalue(self, grid2d):
        grid = grid2d(3)
        a = np.tile(np.array([[2.0, 0.5], [0.5, 1.0]]), (grid.size, 1, 1))
        coeffs = tabulated(grid, a)
        expected = np.linalg.eigvalsh(a[0])[0]
        assert coeffs.delta == pytest.approx(expected)

    def test_lookup_outside_grid_fails(self, grid1d):
        grid = grid1d(5)
        coeffs = tabulated(grid, np.ones((5, 1, 1)))
        with pytest.raises(KeyError):
            coeffs.a(np.array([17.0]), 0.0)

    def test_non_finite_value_named_before_delta(self, grid1d):
        # a NaN in a would otherwise surface as a NaN default delta
        grid = grid1d(5)
        a = np.ones((5, 1, 1))
        a[3] = np.nan
        with pytest.raises(ValidationError, match=r"coefficient a is not finite at node 3"):
            tabulated(grid, a)
        with pytest.raises(ValidationError, match=r"coefficient f is not finite at node 1"):
            tabulated(grid, np.ones((5, 1, 1)), f_values=[0.0, np.inf, 0.0, 0.0, 0.0])

    def test_infinite_delta_rejected(self, grid1d):
        grid = grid1d(5)
        with pytest.raises(NotElliptic, match="finite and positive, got inf"):
            tabulated(grid, np.ones((5, 1, 1)), delta=np.inf)


class TestCoefficientField:
    def test_nan_delta_rejected(self):
        with pytest.raises(NotElliptic, match="nan"):
            field([[1.0]], [0.0], 0.0, delta=np.nan)

    def test_presets_name_non_finite_input(self):
        # a NaN axx is named, not reported as a nonpositive ellipticity constant
        with pytest.raises(ValidationError, match="coefficient a is not finite"):
            anisotropic(np.nan, 0.0, 1.0)
        with pytest.raises(ValidationError, match="coefficient f is not finite"):
            drift([np.inf])
        with pytest.raises(NegativeAbsorption, match="nan"):
            absorb(np.nan)
