"""Implicit theta-scheme realization of the solution operators.

``propagate`` is the initial-value solve on [s, T] (the operator sending an
initial profile to its whole trajectory, one (N_t+1, M) array) and
``apply_Q`` is its restriction to the terminal vector, i.e. the time-T
propagator whose fixed-point structure the Fredholm module inverts.

Each step solves

    (I - theta*dt*A_h(t+dt)) u_plus = (I + (1-theta)*dt*A_h(t)) u

by sparse LU.  For time-independent coefficients the factorization is
computed once and shared by every step and every repeated application of
the propagator (the outer Krylov loop applies Q many times).  A march
carries one vector of shape (M,) or a block of k columns of shape (M, k)
through the same code: SuperLU's solve and the sparse products take
blocks, and every check is made column by column.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import InnerSolveFailure
from .grid import Grid
from .operators import CoefficientField, DiscreteGenerator, _from_bytes, _to_bytes, assemble

# Bound on the normwise backward error of one implicit step solve, per
# column.  SuperLU's step solves measure at most 0.26 eps on 200 random
# right-hand sides (1D heat at n = 255, 511, 1023 and 4095, backward Euler
# with N_t = 1, 64 and 256) and 0.40 eps on 2D drift at 47 x 47; 16 eps
# leaves a factor near 40 above that, while a solve that has lost more than
# four bits still fails.
INNER_BACKWARD_ERROR = 16.0 * np.finfo(float).eps

# Least predicted cost of a forked child's share of a march's time nodes.
# Starting a child by os.fork, receiving an empty message through a pipe
# and joining it took 3-5 ms (medians of 30; at most 10 ms) on a shared
# 2-core Linux machine, at 63 and at 263 MB resident.  A share predicted
# below ten of those stays in this process, which leaves room for a first
# node timed slow.  The benchmark's time-dependent field (M = 255,
# N_t = 256) assembles in about 0.85 ms a node, so a child's half of a
# march costs about 0.11 s.
MIN_CHILD_SHARE_S = 0.05

# How long this process waits for a forked child, counted from its start:
# CHILD_PATIENCE times the child's share at the first node's cost, and at
# least CHILD_MIN_WAIT_S.  A child that has not sent its share and exited
# by then (deadlocked after the fork, say) is killed, and the march
# assembles its share.  On the same machine, 812 children of the tests'
# property run (the gate at 0, a few nodes each, under a loaded pytest
# process) sent their share after 9 ms in the median and 0.18 s at most.
CHILD_PATIENCE = 10.0
CHILD_MIN_WAIT_S = 1.0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, T] with an A-stable theta in [0.5, 1]."""

    T: float
    steps: int
    theta: float = 1.0

    def __post_init__(self):
        if not 0 < self.T < np.inf:  # a NaN T fails too
            raise ValueError(f"horizon T must be finite and positive, got {self.T}")
        if self.steps < 1:
            raise ValueError(f"need at least one time step, got {self.steps}")
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0.5, 1], got {self.theta}")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    def time(self, k):
        """Time of node k, or of each node in an integer array k."""
        return self.T * k / self.steps

    def index_of(self, s: float) -> int:
        """Index of the time-grid node at s; s must sit on the grid."""
        k = int(round(s / self.dt))
        if k < 0 or k > self.steps or abs(s - self.time(k)) > 1e-9 * max(self.T, 1.0):
            raise ValueError(f"time {s} does not coincide with a time-grid node")
        return k


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Solution values at the time-grid nodes from the start time to T.

    ``values`` has shape (len(times), M): row j holds the interior values at
    ``times[j]``, and ``times`` strictly ascend.  Both arrays are stored as
    read-only views, so the rows handed out by ``initial``, ``terminal`` and
    ``as_array`` cannot be written through.
    """

    values: np.ndarray
    times: np.ndarray
    grid: Grid
    timegrid: TimeGrid

    def __post_init__(self):
        for name in ("values", "times"):
            view = np.asarray(getattr(self, name), dtype=float).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        if self.values.shape != (self.times.size, self.grid.size):
            raise ValueError(
                f"values must have shape ({self.times.size}, {self.grid.size}), "
                f"got {self.values.shape}"
            )
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must strictly ascend")

    @property
    def initial(self) -> np.ndarray:
        return self.values[0]

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]

    def as_array(self) -> np.ndarray:
        """The values, shape (num_slices, M), without a copy."""
        return self.values

    def scaled(self, factor: float) -> "Trajectory":
        return Trajectory(factor * self.values, self.times, self.grid, self.timegrid)


class ThetaStepper:
    """Reusable stepping engine with cached generators and factorizations.

    For a time-dependent field, ``run`` assembles ahead every time node its
    march reads, on up to one process per available core (see
    ``_assemble_ahead``), and each step then builds its matrices from the
    two generators' data.  The cache keeps every step's factorization, so a
    second march assembles and factorizes nothing.
    """

    def __init__(
        self,
        coeffs: CoefficientField,
        grid: Grid,
        timegrid: TimeGrid,
        advection_mode: str = "upwind",
    ):
        self.coeffs = coeffs
        self.grid = grid
        self.timegrid = timegrid
        self.advection_mode = advection_mode
        self._cache: dict[int, tuple] = {}
        self._generators: dict[int, DiscreteGenerator] = {}

    @property
    def generator(self) -> DiscreteGenerator:
        """A_h(t_0), the generator of the first step system."""
        return self._generator(0)

    @property
    def m_matrix_certified(self) -> bool:
        return self.generator.m_matrix_certified

    def _generator(self, k: int) -> DiscreteGenerator:
        """A_h(t_k), assembled once; node 0 serves every k for time-independent fields."""
        key = k if self.coeffs.time_dependent else 0
        if key not in self._generators:
            self._generators[key] = assemble(
                self.coeffs, self.grid, self.timegrid.time(key), self.advection_mode
            )
        return self._generators[key]

    def _step_system(self, k: int):
        """Matrices for the step t_k -> t_{k+1} (cached).

        Returns (explicit, lu, implicit, implicit_norm).  ``explicit`` is
        None when theta = 1, where it is exactly I and A_h(t_k) is not read;
        ``implicit`` is the CSR copy used for residuals (SuperLU gets the CSC
        form), and ``implicit_norm`` is sqrt(||B||_1 ||B||_inf), a bound on
        its 2-norm.  Both matrices are built from the generators' data by
        ``DiscreteGenerator.identity_plus``, bit for bit as scipy's sparse
        arithmetic would.  Only steps k - 1 and k read A_h(t_k), so step k
        drops it, unless k = 0: ``generator`` reads A_h(t_0).
        """
        key = k if self.coeffs.time_dependent else 0
        if key not in self._cache:
            tg = self.timegrid
            explicit = None
            if tg.theta != 1.0:
                explicit = self._generator(key).identity_plus((1.0 - tg.theta) * tg.dt)
            implicit_csr = self._generator(key + 1).identity_plus(-(tg.theta * tg.dt))
            implicit = implicit_csr.tocsc()
            if key:
                self._generators.pop(key, None)
            # The stencils are structurally symmetric, so minimum degree on
            # the pattern of B^T + B (SuperLU Users' Guide, on column
            # orderings) fills less than the default COLAMD: the factors hold
            # 5.5 times the nonzeros of B at 47 x 47, against 9.3.
            lu = spla.splu(implicit, permc_spec="MMD_AT_PLUS_A")
            # ||B||_1 and ||B||_inf as the largest absolute column and row
            # sums: CSR indices are column numbers, CSC indices row numbers.
            norm_1 = np.bincount(implicit_csr.indices, np.abs(implicit_csr.data)).max()
            norm_inf = np.bincount(implicit.indices, np.abs(implicit.data)).max()
            self._cache[key] = (explicit, lu, implicit_csr, float(np.sqrt(norm_1 * norm_inf)))
        return self._cache[key]

    def step_values(self, values: np.ndarray, k: int) -> np.ndarray:
        """One step t_k -> t_{k+1} of a vector or of a block of columns."""
        explicit, lu, implicit, implicit_norm = self._step_system(k)
        rhs = values if explicit is None else explicit @ values
        return self._check_inner(lu.solve(rhs), rhs, lu, implicit, implicit_norm)

    @staticmethod
    def _check_inner(out, rhs, lu, implicit, implicit_norm):
        """Accept the solve ``out`` of implicit @ out = rhs column by column.

        Each column must pass the normwise backward-error test of Rigal and
        Gaches, ||r_j|| <= INNER_BACKWARD_ERROR * (||B|| ||x_j|| + ||b_j||)
        (Higham, Accuracy and Stability of Numerical Algorithms, ch. 7).  A
        column that fails gets one refinement pass; passing columns are left
        untouched, so whether a column is refined does not depend on the rest
        of its block.
        """
        rhs_norm = _column_norms(rhs)
        for refined in (False, True):
            residual = rhs - implicit @ out
            scale = implicit_norm * _column_norms(out) + rhs_norm
            if not np.isfinite(scale).all():
                raise InnerSolveFailure("implicit step solve produced non-finite values")
            passed = _column_norms(residual) <= INNER_BACKWARD_ERROR * scale
            if passed.all():
                return out
            if not refined:
                out = np.where(passed, out, out + lu.solve(residual))
        failed = ~passed
        error = float(np.max(_column_norms(residual)[failed] / scale[failed]))
        raise InnerSolveFailure(
            f"implicit step solve has normwise backward error {error:.3e} after "
            f"refinement, above the bound {INNER_BACKWARD_ERROR:.3e}"
        )

    def run(self, values: np.ndarray, start_index: int = 0, keep: bool = False):
        """March a vector (M,) or a block (M, k) from time node start_index to T.

        Returns the terminal values, or with ``keep`` the values at every
        node from start_index to T stacked along a new first axis.  A column
        of a block march equals the march of that column alone up to the
        rounding of SuperLU's multi-column BLAS calls: on 2D drift, heat and
        anisotropic grids every step solve tried at M = 2209 and M = 3969
        was bit for bit equal, while at M = 9025 and M = 16129 a few in a
        hundred differed, by at most 4.4e-16 on unit-sized data.

        A time-dependent field's nodes are assembled before the first step,
        possibly in forked children (``_assemble_ahead``); the result is bit
        for bit that of a serial march, and an error in a coefficient
        callable is raised here as the serial march raises it.
        """
        self._assemble_ahead(start_index)
        v = np.asarray(values, dtype=float)
        if keep:
            kept = np.empty((self.timegrid.steps - start_index + 1,) + v.shape)
            kept[0] = v
        for k in range(start_index, self.timegrid.steps):
            v = self.step_values(v, k)
            if keep:
                kept[k - start_index + 1] = v
        return kept if keep else v

    def _assemble_ahead(self, start: int) -> None:
        """Assemble the time nodes a march from ``start`` reads for uncached steps.

        Time-dependent fields only.  The first such node is assembled here
        and timed.  When that time predicts that a child's share of the rest
        costs at least MIN_CHILD_SHARE_S, and forking is known to be safe
        (``_fork_is_safe``), the rest is split in order between this
        process, which takes the first share, and children forked from it,
        one process per available core at most.  Each child assembles its
        share and sends the generators through a pipe; every child is
        joined before this returns or raises, and one that has not finished
        within CHILD_PATIENCE times its predicted time (CHILD_MIN_WAIT_S at
        least) is killed.
        Otherwise the march assembles the rest as it goes.  A child that
        fails, dies or is killed leaves its share to the march, which
        raises a callable's error as the serial march does.
        """
        if not self.coeffs.time_dependent:
            return
        first = 1 if self.timegrid.theta == 1.0 else 0
        todo = sorted({
            node
            for k in range(start, self.timegrid.steps) if k not in self._cache
            for node in range(k + first, k + 2) if node not in self._generators
        })
        if not todo:
            return
        began = time.perf_counter()
        self._generator(todo[0])
        cost = time.perf_counter() - began
        rest = todo[1:]
        if not _fork_is_safe():
            return
        processes = min(_cores(), len(rest))
        while processes > 1 and cost * len(rest) / processes < MIN_CHILD_SHARE_S:
            processes -= 1
        if processes > 1:
            shares = [share.tolist() for share in np.array_split(rest, processes)]
            self._assemble_forked(shares, cost)

    def _assemble_forked(self, shares: list[list[int]], cost: float) -> None:
        """Assemble the first share of nodes here and each other share in a forked child.

        ``cost`` is the time one node took here, from which each child's
        deadline is set.
        """
        context = multiprocessing.get_context("fork")
        children = []
        try:
            for share in shares[1:]:
                reader, writer = context.Pipe(duplex=False)
                child = context.Process(target=_assemble_in_child, args=(self, share, writer))
                patience = max(CHILD_PATIENCE * cost * len(share), CHILD_MIN_WAIT_S)
                try:
                    child.start()
                except Exception:  # no process to spare, say: the march assembles this share
                    reader.close()
                    continue
                finally:
                    # Only the child may hold the write end, so that its
                    # death ends the parent's read.
                    writer.close()
                children.append((child, reader, share, time.monotonic() + patience))
            for node in shares[0]:
                self._generator(node)
            for child, reader, share, deadline in children:
                received = _receive(reader, self, share, deadline)
                child.join(max(0.0, deadline - time.monotonic()))
                if received is not None and child.exitcode == 0:
                    self._generators.update(received)
        finally:
            for child, reader, _, _ in children:
                reader.close()
                child.kill()  # does nothing to a child already joined
                child.join()


def _assemble_in_child(stepper: ThetaStepper, nodes: list[int], writer) -> None:
    """Assemble A_h(t_k) for each of ``nodes`` in a forked child and send it through ``writer``.

    The whole share is assembled first, as the parent reads only once its
    own share is done; each generator is one message.  Any failure ends the
    child with exit code 1 and no output; the parent's march assembles the
    share again and raises the error itself.
    """
    try:
        generators = [stepper._generator(k) for k in nodes]
        for generator in generators:
            writer.send_bytes(_to_bytes(generator))
    except BaseException:
        sys.exit(1)


def _receive(reader, stepper: ThetaStepper, nodes: list[int], deadline: float):
    """The generators a child sent for ``nodes``.

    None if the child ended, or ``deadline`` passed, before it sent them all.
    """
    received = {}
    try:
        for k in nodes:
            if not reader.poll(max(0.0, deadline - time.monotonic())):
                return None
            received[k] = _from_bytes(reader.recv_bytes(), stepper.grid, stepper.timegrid.time(k))
    except (EOFError, OSError):
        return None
    return received


def _fork_is_safe() -> bool:
    """Whether this process may fork children that run Python without exec.

    Only on Linux, outside a daemonic process (which may not have children)
    and with no thread but the calling one: a lock that another thread
    holds at the fork, native BLAS and OpenMP threads included, stays held
    in the child.  macOS has fork, but forking without exec is unsafe there.
    """
    if not sys.platform.startswith("linux") or multiprocessing.current_process().daemon:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _cores() -> int:
    """The number of cores this process may run on (Linux)."""
    return len(os.sched_getaffinity(0))


def _prepare(xi, s, coeffs, grid, timegrid, advection_mode, stepper):
    """Checked initial data, the start index of s and the stepper to march with."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (grid.size,):
        raise ValueError(f"initial data must have length {grid.size}, got {xi.shape}")
    k0 = timegrid.index_of(s)
    return xi, k0, _engine(coeffs, grid, timegrid, advection_mode, stepper)


def _engine(coeffs, grid, timegrid, advection_mode, stepper):
    """``stepper`` if it was built for this problem, or a new stepper when it is None.

    A stepper marches its own problem, so one built for other coefficients,
    grid, time grid or advection mode is refused rather than used.
    """
    if stepper is None:
        return ThetaStepper(coeffs, grid, timegrid, advection_mode)
    differ = [
        name for name, same in (
            ("coeffs", stepper.coeffs is coeffs),
            ("grid", stepper.grid is grid),
            ("timegrid", stepper.timegrid == timegrid),
            ("advection_mode", stepper.advection_mode == advection_mode),
        ) if not same
    ]
    if differ:
        raise ValueError(f"stepper was built for a different {', '.join(differ)}")
    return stepper


def propagate(
    xi,
    s: float,
    coeffs: CoefficientField,
    grid: Grid,
    timegrid: TimeGrid,
    advection_mode: str = "upwind",
    stepper: ThetaStepper | None = None,
) -> Trajectory:
    """Solve the initial-value problem on [s, T] with data xi at time s.

    xi is the vector of interior values; ``s`` must coincide with a
    time-grid node.  Returns the Trajectory over the nodes from s to T.
    """
    xi, k0, engine = _prepare(xi, s, coeffs, grid, timegrid, advection_mode, stepper)
    return Trajectory(
        engine.run(xi, start_index=k0, keep=True),
        timegrid.time(np.arange(k0, timegrid.steps + 1)),
        grid,
        timegrid,
    )


def apply_Q(
    xi,
    coeffs: CoefficientField,
    grid: Grid,
    timegrid: TimeGrid,
    advection_mode: str = "upwind",
    stepper: ThetaStepper | None = None,
) -> np.ndarray:
    """Apply the time-T propagator: xi at t=0 to the solution vector at t=T."""
    xi, k0, engine = _prepare(xi, 0.0, coeffs, grid, timegrid, advection_mode, stepper)
    return engine.run(xi, start_index=k0)


def _column_norms(x: np.ndarray) -> np.ndarray:
    """2-norm of a vector, or of each column of a block."""
    return np.sqrt(np.einsum("i...,i...->...", x, x))
