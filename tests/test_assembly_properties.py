"""Properties of the assembled generator over random grids, masks and fields."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from profile_shift import (
    ADVECTION_MODES,
    CoefficientField,
    Domain,
    assemble,
    build_grid,
    heat,
    tabulated,
)


@st.composite
def problems(draw):
    """(shape, inside raster, constant a, f, q, advection mode)."""
    dim = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(1, 12 if dim == 1 else 7)) for _ in range(dim))
    cells = int(np.prod(shape))
    inside = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    inside[draw(st.integers(0, cells - 1))] = True
    diag = [draw(st.floats(0.1, 5.0)) for _ in range(dim)]
    a = np.diag(diag)
    if dim == 2:
        # |a_xy| < sqrt(a_xx a_yy) keeps a positive definite
        a[0, 1] = a[1, 0] = draw(st.floats(-0.9, 0.9)) * np.sqrt(diag[0] * diag[1])
    f = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(dim)])
    q = draw(st.floats(0.0, 2.0))
    mode = draw(st.sampled_from(ADVECTION_MODES))
    return shape, inside.reshape(shape), a, f, q, mode


def constant_field(a, f, q):
    return CoefficientField(
        dimension=f.size,
        a=lambda x, t: a,
        f=lambda x, t: f,
        q=lambda x, t: q,
        delta=float(np.linalg.eigvalsh(a)[0]),
    )


def box(dim, mask=None):
    return Domain(dim, ((0.0, 1.0), (0.0, 2.0))[:dim], mask)


def kronecker_generator(shape, h, a, f, q, mode):
    """A_h on the full box as a Kronecker sum of 1D difference matrices."""
    eye = [np.eye(n) for n in shape]
    up = [np.eye(n, k=1) for n in shape]
    down = [np.eye(n, k=-1) for n in shape]

    def along(axis, op):
        mats = [op if i == axis else eye[i] for i in range(len(shape))]
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    total = -q * np.eye(int(np.prod(shape)))
    for axis in range(len(shape)):
        forward = (up[axis] - eye[axis]) / h[axis]
        backward = (down[axis] - eye[axis]) / h[axis]
        second = (forward + backward) / h[axis]
        fi = f[axis]
        if mode == "upwind":
            first = max(fi, 0.0) * forward + max(-fi, 0.0) * backward
        else:
            first = fi * (forward - backward) / 2.0
        total = total + along(axis, a[axis, axis] * second + first)
    if len(shape) == 2:
        cross = [(up[i] - down[i]) / (2.0 * h[i]) for i in range(2)]
        total = total + 2.0 * a[0, 1] * np.kron(cross[0], cross[1])
    return total


@given(problems())
def test_masked_generator_is_box_generator_restricted(problem):
    # Dirichlet by dropping: masking a cell deletes its row and column and
    # changes no other entry
    shape, inside, a, f, q, mode = problem
    coeffs = constant_field(a, f, q)
    full_grid = build_grid(box(len(shape)), shape)
    masked_grid = build_grid(box(len(shape), inside), shape)
    full = assemble(coeffs, full_grid, 0.0, mode).matrix.toarray()
    masked = assemble(coeffs, masked_grid, 0.0, mode).matrix.toarray()
    keep = full_grid.index_map[inside]
    assert np.array_equal(masked, full[np.ix_(keep, keep)])


@given(problems())
def test_box_generator_is_kronecker_sum(problem):
    shape, _, a, f, q, mode = problem
    grid = build_grid(box(len(shape)), shape)
    got = assemble(constant_field(a, f, q), grid, 0.0, mode).matrix.toarray()
    expected = kronecker_generator(shape, grid.h, a, f, q, mode)
    scale = np.abs(expected).max()
    assert np.abs(got - expected).max() <= 1e-13 * scale


@given(problems())
def test_adjacency_is_heat_off_diagonal_pattern(problem):
    shape, inside, *_ = problem
    grid = build_grid(box(len(shape), inside), shape)
    generator = assemble(heat(len(shape)), grid, 0.0).matrix.toarray()
    pattern = generator != 0.0
    np.fill_diagonal(pattern, False)
    adjacency = np.zeros_like(pattern)
    unit = np.eye(len(shape), dtype=np.int64)
    for offset in np.concatenate([unit, -unit]):
        col = grid.neighbor(offset)
        rows = np.flatnonzero(col >= 0)
        adjacency[rows, col[rows]] = True
    assert np.array_equal(adjacency, pattern)


@st.composite
def tables(draw):
    """(masked grid, per-node a, f, q, advection mode) on a box with random corners."""
    shape, inside, *_, mode = draw(problems())
    dim = len(shape)
    lows = [draw(st.floats(-3.0, 3.0)) for _ in range(dim)]
    box = tuple((lo, lo + draw(st.floats(0.5, 4.0))) for lo in lows)
    grid = build_grid(Domain(dim, box, inside), shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = grid.size
    diag = rng.uniform(0.1, 5.0, (m, dim))
    a = np.zeros((m, dim, dim))
    a[:, range(dim), range(dim)] = diag
    if dim == 2:
        a[:, 0, 1] = a[:, 1, 0] = rng.uniform(-0.9, 0.9, m) * np.sqrt(diag.prod(axis=1))
    return grid, a, rng.uniform(-3.0, 3.0, (m, dim)), rng.uniform(0.0, 2.0, m), mode


def rounded_lookup_field(grid, a, f, q, delta):
    """Pointwise field that finds each point's node by rounding its position.

    The point's multi-index is np.rint((x - lows) / h) - 1, mapped to the node
    by Grid.index_map.
    """
    lows = np.array([lo for lo, _ in grid.domain.box])

    def locate(x):
        return grid.index_map[tuple(np.rint((x - lows) / np.asarray(grid.h)).astype(int) - 1)]

    return CoefficientField(
        dimension=grid.dimension,
        a=lambda x, t: a[locate(x)],
        f=lambda x, t: f[locate(x)],
        q=lambda x, t: float(q[locate(x)]),
        delta=delta,
    )


@given(tables(), st.data())
def test_tabulated_assembly_is_that_of_a_rounded_lookup(table, data):
    grid, a, f, q, mode = table
    coeffs = tabulated(grid, a, f, q)
    got = assemble(coeffs, grid, 0.0, mode)
    expected = assemble(rounded_lookup_field(grid, a, f, q, coeffs.delta), grid, 0.0, mode)
    assert got.m_matrix_certified == expected.m_matrix_certified
    for name in ("indptr", "indices", "data"):
        assert getattr(got.matrix, name).tobytes() == getattr(expected.matrix, name).tobytes()
    # the lookup is exact: a point one ulp off a node is no node
    point = grid.coordinates()[data.draw(st.integers(0, grid.size - 1))].copy()
    axis = data.draw(st.integers(0, grid.dimension - 1))
    point[axis] = np.nextafter(point[axis], data.draw(st.sampled_from([-np.inf, np.inf])))
    with pytest.raises(KeyError, match=re.escape(repr(float(point[axis])))):
        coeffs.a(point, 0.0)
