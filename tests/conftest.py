import multiprocessing
import os

# BLAS and OpenMP default to one thread per core, and on a shared 2-core
# machine those threads contend: `spectral_analysis` of a 127 x 127 matrix
# took 0.96 s with the default OpenBLAS threads and 0.009 s with one.
# This must run before numpy is first imported; a value already set in the
# environment wins.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from profile_shift import box2d, build_grid, interval

# One bound for every hypothesis property, so tier-1 stays short.
# HYPOTHESIS_PROFILE=thorough draws ten times as many examples.
settings.register_profile("tier1", max_examples=40, deadline=None)
settings.register_profile("thorough", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process running (solve forks a CSV writer)."""
    yield
    assert multiprocessing.active_children() == []


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


@pytest.fixture
def marches(monkeypatch):
    """Record every ThetaStepper.run call by its start index."""
    from profile_shift import ThetaStepper

    calls = []
    run = ThetaStepper.run

    def counted(stepper, values, start_index=0, keep=False):
        calls.append(start_index)
        return run(stepper, values, start_index, keep)

    monkeypatch.setattr(ThetaStepper, "run", counted)
    return calls


@pytest.fixture
def gmres_spy(monkeypatch):
    """Wrap the package's GMRES routine, counting its calls and their iterations.

    A call that ends in NoConvergence counts the iterations the error names.
    """
    from profile_shift import NoConvergence, fredholm, validation

    spy = {"calls": 0, "iterations": 0}
    solve = fredholm._gmres_identity_minus_q

    def wrapped(*args, **kwargs):
        spy["calls"] += 1
        try:
            result = solve(*args, **kwargs)
        except NoConvergence as exc:
            spy["iterations"] += exc.iterations
            raise
        spy["iterations"] += len(result[1])
        return result

    for module in (fredholm, validation):
        monkeypatch.setattr(module, "_gmres_identity_minus_q", wrapped)
    return spy
