import numpy as np
import pytest
from hypothesis import settings

from profile_shift import box2d, build_grid, interval

# One bound for every hypothesis property, so tier-1 stays short.
settings.register_profile("tier1", max_examples=40, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def grid1d():
    """Factory for uniform grids on the interval (0, pi)."""

    def make(m=63):
        return build_grid(interval(0.0, np.pi), [m])

    return make


@pytest.fixture
def grid2d():
    """Factory for uniform grids on the square (0, pi)^2."""

    def make(m=15, mask=None):
        return build_grid(box2d(mask=mask), [m, m])

    return make


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
