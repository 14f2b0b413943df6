import numpy as np
import pytest

from profile_shift import (
    BadResolution,
    Domain,
    EmptyInterior,
    box2d,
    build_grid,
    interval,
)


def test_interval_grid_arithmetic():
    # (0, pi) with 3 interior nodes: h = pi/4, nodes at pi/4, pi/2, 3pi/4
    grid = build_grid(interval(0.0, np.pi), [3])
    assert grid.size == 3
    assert grid.h[0] == pytest.approx(np.pi / 4)
    coords = grid.coordinates()[:, 0]
    assert coords == pytest.approx([np.pi / 4, np.pi / 2, 3 * np.pi / 4])
    assert grid.cell_volume == pytest.approx(np.pi / 4)


def test_square_grid_count():
    grid = build_grid(box2d(), [3, 3])
    assert grid.size == 9
    assert grid.h == pytest.approx((np.pi / 4, np.pi / 4))
    assert grid.cell_volume == pytest.approx((np.pi / 4) ** 2)


def test_masked_center_cell():
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 1] = False
    grid = build_grid(box2d(mask=mask), [3, 3])
    assert grid.size == 8
    # the removed center is not addressable; its neighbors see boundary there
    assert grid.index_map[1, 1] == -1
    assert grid.index_map[0, 1] >= 0


def test_predicate_mask():
    # a mask is a raster: a predicate is refused, and its raster over the
    # nodes keeps only the left half of the interval
    def left(x):
        return x[0] < np.pi / 2

    with pytest.raises(BadResolution, match="mask must be a boolean raster with 1 axes"):
        interval(0.0, np.pi, mask=left)
    nodes = build_grid(interval(0.0, np.pi), [7]).coordinates()
    grid = build_grid(interval(0.0, np.pi, mask=[left(x) for x in nodes]), [7])
    assert 0 < grid.size < 7
    assert np.all(grid.coordinates()[:, 0] < np.pi / 2)


def test_index_round_trip():
    mask = np.ones((5, 4), dtype=bool)
    mask[2, 1] = False
    mask[0, 0] = False
    grid = build_grid(Domain(2, ((0.0, 1.0), (0.0, 2.0)), mask), [5, 4])
    for linear, multi in enumerate(grid.nodes):
        assert grid.index_map[tuple(multi)] == linear


def test_refinement_monotone():
    sizes = [build_grid(box2d(), [m, m]).size for m in (3, 6, 12, 24)]
    assert sizes == sorted(sizes)
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_spacing_definition():
    # h = extent / (nodes + 1) on each axis
    grid = build_grid(Domain(2, ((0.0, 1.0), (0.0, 3.0))), [4, 9])
    assert grid.h[0] == pytest.approx(1.0 / 5)
    assert grid.h[1] == pytest.approx(3.0 / 10)


def test_bad_resolution():
    with pytest.raises(BadResolution):
        build_grid(interval(), [0])
    with pytest.raises(BadResolution):
        build_grid(box2d(), [3])
    with pytest.raises(BadResolution):
        build_grid(interval(), [3, 3])


def test_empty_interior():
    with pytest.raises(EmptyInterior):
        build_grid(interval(mask=np.zeros(5, dtype=bool)), [5])
    with pytest.raises(EmptyInterior):
        build_grid(box2d(mask=np.zeros((3, 3), dtype=bool)), [3, 3])


def test_mask_raster_shape_mismatch():
    with pytest.raises(BadResolution):
        build_grid(box2d(mask=np.ones((4, 3), dtype=bool)), [3, 3])


def test_degenerate_box_rejected():
    with pytest.raises(BadResolution):
        Domain(1, ((1.0, 1.0),))
    with pytest.raises(BadResolution):
        Domain(3, ((0.0, 1.0),) * 3)
    with pytest.raises(BadResolution, match="finite"):
        Domain(1, ((0.0, np.inf),))


def test_mask_is_a_read_only_bool_raster():
    given = np.array([[1, 0, 1], [1, 1, 1]])
    domain = box2d(mask=given)
    assert domain.mask.dtype == bool and not domain.mask.flags.writeable
    assert np.array_equal(domain.mask, given.astype(bool))
    assert given.flags.writeable  # the caller's array is copied, not frozen
    with pytest.raises(BadResolution, match="mask must be a boolean raster with 2 axes"):
        box2d(mask=np.ones(3, dtype=bool))
    with pytest.raises(BadResolution, match="mask must be a boolean raster"):
        interval(mask=[[1, 1], [1]])


def test_masked_domains_compare_and_hash_by_value():
    raster = np.ones((3, 3), dtype=bool)
    holed = raster.copy()
    holed[1, 1] = False
    same = box2d(mask=np.ones((3, 3)))
    assert box2d(mask=raster) == same and hash(box2d(mask=raster)) == hash(same)
    assert box2d(mask=raster) != box2d(mask=holed)
    assert box2d(mask=raster) != box2d(mask=np.ones((1, 9), dtype=bool))  # same bytes
    assert box2d(mask=raster) != box2d()
    assert box2d(mask=raster) != box2d(x=(0.0, 1.0), mask=raster)
