"""A time-dependent march assembles its time nodes ahead, some in forked children.

With the gate ``MIN_CHILD_SHARE_S`` patched to 0 even tiny grids take the
forked path.  Every generator, step system and march is then bit for bit
that of the serial path, and each step system is bit for bit what scipy's
sparse arithmetic gives, including the entries it drops for being exactly
0.  A child that fails, dies or hangs leaves its share to the parent, which
raises a callable's error as the serial march does.  Forking is refused
where it is not known to be safe.  The fork policy is that of
``profile_shift._forked``, so its patch points serve here.
"""

import ast
import contextlib
import math
import multiprocessing.process
import os
import sys
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from profile_shift import (
    ADVECTION_MODES,
    CoefficientField,
    Domain,
    NotSymmetric,
    ProfileShift,
    ThetaStepper,
    TimeGrid,
    assemble,
    box2d,
    build_grid,
    interval,
    solve_profile_shift,
)
from profile_shift import _forked, propagator


@contextlib.contextmanager
def counting_starts():
    """Yield the list of processes started inside the block."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted(process):
        started.append(process)
        return start(process)

    with mock.patch.object(multiprocessing.process.BaseProcess, "start", counted):
        yield started


@pytest.fixture
def starts():
    with counting_starts() as started:
        yield started


@contextlib.contextmanager
def gate(min_share_s, cores=3):
    """Set the fork gate and the count of available cores."""
    with mock.patch.object(propagator, "MIN_CHILD_SHARE_S", min_share_s), mock.patch.object(
        _forked, "_cores", lambda: cores
    ):
        yield


def forked(cores=3):
    """Every march with two nodes or more after its first forks."""
    return gate(0.0, cores)


def serial():
    return gate(math.inf)


def moving_front_field(dim, h, width, scale, rho, centered_zero):
    """A field whose a, f and q vary in x and t.

    In 2D, a_xy is 0 left of a front that crosses the box's ``width`` as t
    goes from 0 to 1, so the mixed-term mask changes between time nodes.
    Where ``centered_zero`` holds, f_i is 2 a_ii / h_i, so the centered
    weight a_ii / h_i^2 - f_i / (2 h_i) is exactly 0 when h_i is a power
    of 2.
    """

    def a(x, t):
        diag = scale * (1.0 + 0.5 * np.sin(3.0 * t + x.sum()))
        matrix = np.diag(diag)
        if dim == 2 and x[0] > width * t:
            matrix[0, 1] = matrix[1, 0] = rho * np.sqrt(diag[0] * diag[1])
        return matrix

    def f(x, t):
        if centered_zero and x[-1] < width * (1.0 - t):
            return 2.0 * np.diag(a(x, t)) / np.asarray(h)
        return np.cos(x + t)

    return CoefficientField(
        dimension=dim,
        a=a,
        f=f,
        q=lambda x, t: float((1.0 + t) * np.sin(x[0]) ** 2),
        delta=0.5 * (1.0 - abs(rho)) * float(scale.min()),
        time_dependent=True,
    )


@st.composite
def problems(draw):
    """(stepper, initial data) on a random masked 1D or 2D grid with h a power of 2."""
    dim = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(1, 12 if dim == 1 else 6)) for _ in range(dim))
    cells = int(np.prod(shape))
    inside = np.array(draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
    inside[draw(st.integers(0, cells - 1))] = True
    h = tuple(draw(st.sampled_from([0.5, 1.0])) for _ in range(dim))
    box = tuple((0.0, (n + 1) * step) for n, step in zip(shape, h))
    grid = build_grid(Domain(dim, box, inside.reshape(shape)), shape)
    scale = np.array([draw(st.floats(0.1, 5.0)) for _ in range(dim)])
    coeffs = moving_front_field(
        dim, h, box[0][1], scale, draw(st.floats(-0.9, 0.9)), draw(st.booleans())
    )
    timegrid = TimeGrid(1.0, draw(st.integers(1, 7)), draw(st.sampled_from([0.5, 0.75, 1.0])))
    stepper = ThetaStepper(coeffs, grid, timegrid, draw(st.sampled_from(ADVECTION_MODES)))
    seed = draw(st.integers(0, 2**32 - 1))
    return stepper, np.random.default_rng(seed).standard_normal(grid.size)


def same_matrix(got, expected):
    assert got.format == expected.format
    for name in ("indptr", "indices", "data"):
        array, reference = getattr(got, name), getattr(expected, name)
        assert array.dtype == reference.dtype
        assert array.tobytes() == reference.tobytes()


def same_generator(got, expected):
    same_matrix(got.matrix, expected.matrix)
    assert got.m_matrix_certified == expected.m_matrix_certified


# forkable checks this process's threads once, for every example
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(problems())
def test_forked_assembly_is_bit_for_bit_serial_and_scipy(forkable, problem):
    stepper, x = problem
    coeffs, grid, timegrid, mode = (
        stepper.coeffs, stepper.grid, stepper.timegrid, stepper.advection_mode
    )
    twin = ThetaStepper(coeffs, grid, timegrid, mode)
    first = 1 if timegrid.theta == 1.0 else 0
    with forked(), counting_starts() as started:
        stepper._assemble_ahead()
    nodes = range(first, timegrid.steps + 1)
    # The parent times the first node and takes the first share of the rest;
    # a single node after the first is left to the march.
    assert len(started) == max(min(3, len(nodes) - 1) - 1, 0)
    assert sorted(stepper._generators) == list(nodes if started else nodes[:1])
    for k in stepper._generators:
        same_generator(stepper._generators[k], assemble(coeffs, grid, timegrid.time(k), mode))

    with forked(), counting_starts() as started:
        got = stepper.run(x, keep=True)
    assert started == []
    with serial():
        expected = twin.run(x, keep=True)
    assert got.tobytes() == expected.tobytes()

    identity = sp.identity(grid.size, format="csc")
    dt, theta = timegrid.dt, timegrid.theta
    for k in range(timegrid.steps):
        explicit, _, implicit, norm = stepper._step_system(k)
        twin_explicit, _, twin_implicit, twin_norm = twin._step_system(k)
        same_matrix(implicit, twin_implicit)
        assert norm == twin_norm
        # the step system that scipy's sparse arithmetic gives
        gen1 = assemble(coeffs, grid, timegrid.time(k + 1), mode).matrix
        same_matrix(implicit, (identity - theta * dt * gen1).tocsc().tocsr())
        if theta == 1.0:
            assert explicit is None and twin_explicit is None
        else:
            same_matrix(explicit, twin_explicit)
            gen0 = assemble(coeffs, grid, timegrid.time(k), mode).matrix
            same_matrix(explicit, (identity + (1.0 - theta) * dt * gen0).tocsr())


def grid_and_nodes(steps=8):
    return build_grid(box2d(), [3, 3]), TimeGrid(1.0, steps, 1.0)


def field(a, q=lambda x, t: 0.0):
    return CoefficientField(
        dimension=2, a=a, f=lambda x, t: np.zeros(2), q=q, delta=0.5, time_dependent=True
    )


class TestChildFailure:
    def test_error_in_a_childs_share_is_the_serial_error(self, forkable, starts):
        # nodes 2..8 split as 2-5 here and 6-8 in the child; t = 0.75 is node 6
        grid, timegrid = grid_and_nodes()
        coeffs = field(lambda x, t: np.array([[1.0, 0.1], [0.1 + (t > 0.7), 1.0]]))
        with serial(), pytest.raises(NotSymmetric) as expected:
            ThetaStepper(coeffs, grid, timegrid).run(np.ones(grid.size))
        assert starts == []
        with forked(cores=2), pytest.raises(NotSymmetric) as got:
            ThetaStepper(coeffs, grid, timegrid).run(np.ones(grid.size))
        assert len(starts) == 1
        assert str(got.value) == str(expected.value)
        assert "t=0.75" in str(got.value)

    def test_child_that_exits_leaves_its_share_to_the_parent(self, forkable, starts):
        grid, timegrid = grid_and_nodes()
        parent = os.getpid()

        def q(x, t):
            if os.getpid() != parent:
                os._exit(7)
            return t * x[0]

        coeffs = field(lambda x, t: (1.0 + t) * np.eye(2), q)
        x = np.random.default_rng(5).standard_normal(grid.size)
        with serial():
            expected = ThetaStepper(coeffs, grid, timegrid).run(x, keep=True)
        with forked():
            got = ThetaStepper(coeffs, grid, timegrid).run(x, keep=True)
        assert len(starts) == 2
        assert got.tobytes() == expected.tobytes()

    def test_child_that_blocks_forever_is_killed_and_its_share_assembled_here(
        self, forkable, starts
    ):
        grid, timegrid = grid_and_nodes()
        parent = os.getpid()

        def q(x, t):
            if os.getpid() != parent:
                threading.Event().wait()
            return t * x[0]

        coeffs = field(lambda x, t: (1.0 + t) * np.eye(2), q)
        x = np.random.default_rng(6).standard_normal(grid.size)
        with serial():
            expected = ThetaStepper(coeffs, grid, timegrid).run(x, keep=True)
        began = time.monotonic()
        with forked(cores=2), mock.patch.object(_forked, "CHILD_MIN_WAIT_S", 0.2):
            got = ThetaStepper(coeffs, grid, timegrid).run(x, keep=True)
        assert time.monotonic() - began < 5.0
        assert len(starts) == 1
        assert starts[0].exitcode == -9
        assert got.tobytes() == expected.tobytes()

    def test_start_that_raises_a_warning_leaves_the_share_here(self):
        # Python 3.12 and later warn when a threaded process forks; under
        # warnings-as-errors that warning is raised by Process.start.
        grid, timegrid = grid_and_nodes()
        coeffs = field(lambda x, t: (1.0 + t) * np.eye(2), lambda x, t: t * x[0])
        x = np.random.default_rng(8).standard_normal(grid.size)
        with serial():
            expected = ThetaStepper(coeffs, grid, timegrid).run(x, keep=True)

        def start(process):
            raise DeprecationWarning("this process is multi-threaded")

        with forked(), mock.patch.object(multiprocessing.process.BaseProcess, "start", start):
            got = ThetaStepper(coeffs, grid, timegrid).run(x, keep=True)
        assert got.tobytes() == expected.tobytes()
        with forked(), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ThetaStepper(coeffs, grid, timegrid).run(x, keep=True)
        assert got.tobytes() == expected.tobytes()


class TestForkGate:
    def march(self):
        grid, timegrid = grid_and_nodes()
        coeffs = field(lambda x, t: (1.0 + t) * np.eye(2), lambda x, t: t * x[0])
        return ThetaStepper(coeffs, grid, timegrid).run(np.ones(grid.size), keep=True)

    def test_forks_in_this_single_threaded_process(self, forkable, starts):
        with forked():
            self.march()
        assert len(starts) == 2

    def test_another_thread_keeps_the_march_serial(self, starts):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with forked():
                got = self.march()
        finally:
            release.set()
            thread.join()
        assert starts == []
        with serial():
            assert got.tobytes() == self.march().tobytes()

    def test_no_fork_outside_linux(self, starts):
        with forked(), mock.patch.object(sys, "platform", "darwin"):
            self.march()
        assert starts == []


def test_only_forked_imports_multiprocessing_or_forks():
    # One fork policy: a module other than _forked that imported
    # multiprocessing or called os.fork would start processes of its own.
    # The scan reads the source, so it starts no process.
    found = set()
    for path in Path(_forked.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            if any(n.split(".")[0] == "multiprocessing" or n == "os.fork" for n in names):
                found.add(path.name)
    assert found == {"_forked.py"}


def test_tiny_time_dependent_solve_starts_no_process(starts):
    grid = build_grid(interval(0.0, np.pi), [15])
    coeffs = CoefficientField(
        dimension=1,
        a=lambda x, t: np.array([[1.0 + t]]),
        f=lambda x, t: np.array([np.sin(t)]),
        q=lambda x, t: float(t),
        delta=1.0,
        time_dependent=True,
    )
    gamma = np.sin(grid.coordinates()[:, 0])
    solve_profile_shift(ProfileShift(gamma), coeffs, grid, TimeGrid(1.0, 64, 1.0))
    assert starts == []


@pytest.mark.parametrize("theta, first", [(1.0, 1), (0.5, 0)])
def test_forked_march_assembles_only_the_nodes_it_reads(
    tmp_path, forkable, starts, theta, first
):
    # Every process appends the time of each node it assembles to one file.
    # A theta = 1 march never reads A_h(t_0), so no process assembles it.
    grid = build_grid(interval(0.0, np.pi), [7])
    log = tmp_path / "times"
    lowest = grid.coordinates()[0, 0]

    def q(x, t):
        if x[0] == lowest:
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            os.write(fd, f"{t!r}\n".encode())
            os.close(fd)
        return t

    coeffs = CoefficientField(
        dimension=1,
        a=lambda x, t: np.eye(1),
        f=lambda x, t: np.zeros(1),
        q=q,
        delta=1.0,
        time_dependent=True,
    )
    timegrid = TimeGrid(1.0, 12, theta)
    with forked():
        ThetaStepper(coeffs, grid, timegrid).run(np.ones(grid.size))
    assert len(starts) == 2
    times = [float(line) for line in log.read_text().split()]
    assert sorted(times) == [timegrid.time(k) for k in range(first, 13)]
