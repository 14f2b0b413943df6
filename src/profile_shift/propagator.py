"""Implicit theta-scheme realization of the solution operators.

``ThetaStepper.run`` marches initial data at t = 0 through every step of
the time grid to T: it returns the terminal vector, which is the time-T
propagator Q applied to the data and whose fixed-point structure the
Fredholm module inverts, or with ``keep`` the whole trajectory, one
(N_t+1, M) array.

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

import time
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse.linalg as spla

from . import _forked, operators
from .errors import InnerSolveFailure
from .grid import Grid
from .operators import CoefficientField, DiscreteGenerator, assemble

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
        try:
            dt = self.T / self.steps
        except OverflowError:  # an N_t beyond the range of a double
            dt = 0.0
        if dt < np.finfo(float).tiny:
            raise ValueError(
                f"the step T / N_t is below the least normal double {np.finfo(float).tiny:.4g} "
                f"(T = {self.T:g}): raise T or lower N_t"
            )
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0.5, 1], got {self.theta}")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    def time(self, k):
        """Time of node k, or of each node in an integer array k."""
        return self.T * k / self.steps


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Solution values at every time-grid node, from 0 to T.

    ``values`` has shape (N_t+1, M): row k holds the interior values at
    ``times[k]``, the time of node k.  ``values`` is stored as a read-only
    view, so the rows handed out by ``initial``, ``terminal`` and
    ``as_array`` cannot be written through.
    """

    values: np.ndarray
    grid: Grid
    timegrid: TimeGrid

    def __post_init__(self):
        view = np.asarray(self.values, dtype=float).view()
        view.flags.writeable = False
        object.__setattr__(self, "values", view)
        shape = (self.timegrid.steps + 1, self.grid.size)
        if self.values.shape != shape:
            raise ValueError(f"values must have shape {shape}, got {self.values.shape}")

    @property
    def times(self) -> np.ndarray:
        """The N_t+1 node times 0, dt, ..., T."""
        return self.timegrid.time(np.arange(self.timegrid.steps + 1))

    @property
    def initial(self) -> np.ndarray:
        return self.values[0]

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]

    def as_array(self) -> np.ndarray:
        """The values, shape (N_t+1, M), without a copy."""
        return self.values

    def scaled(self, factor: float) -> "Trajectory":
        return Trajectory(factor * self.values, self.grid, self.timegrid)


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
        self._certified: dict[int, bool] = {}
        self._generators: dict[int, DiscreteGenerator] = {}

    @property
    def generator(self) -> DiscreteGenerator:
        """A_h(t_0): every step's generator for a time-independent field.

        A theta = 1 march of a time-dependent field never reads it.
        """
        return self._generator(0)

    @property
    def m_matrix_certified(self) -> bool:
        """Whether every generator a march reads is a certified M-matrix; builds uncached steps."""
        keys = range(self.timegrid.steps if self.coeffs.time_dependent else 1)
        for k in keys:
            self._step_system(k)
        return all(self._certified[k] for k in keys)

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
        drops it, unless k = 0: ``generator`` reads A_h(t_0).  Whether every
        generator the step reads is certified is kept for ``m_matrix_certified``.
        """
        key = k if self.coeffs.time_dependent else 0
        if key not in self._cache:
            tg = self.timegrid
            explicit = None
            if tg.theta != 1.0:
                explicit = self._generator(key).identity_plus((1.0 - tg.theta) * tg.dt)
            implicit_csr = self._generator(key + 1).identity_plus(-(tg.theta * tg.dt))
            read = (key + 1,) if explicit is None else (key, key + 1)
            self._certified[key] = all(self._generator(n).m_matrix_certified for n in read)
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

    def run(self, values: np.ndarray, keep: bool = False):
        """March a vector (M,) or a block (M, k) from t = 0 to T.

        Returns the terminal values, or with ``keep`` the values at every
        node stacked along a new first axis.  A column of a block march
        equals the march of that column alone up to the rounding of
        SuperLU's multi-column BLAS calls: on 2D drift, heat and
        anisotropic grids every step solve tried at M = 2209 and M = 3969
        was bit for bit equal, while at M = 9025 and M = 16129 a few in a
        hundred differed, by at most 4.4e-16 on unit-sized data.

        A time-dependent field's nodes are assembled before the first step,
        possibly in forked children (``_assemble_ahead``); the result is bit
        for bit that of a serial march, and an error in a coefficient
        callable is raised here as the serial march raises it.
        """
        v = np.asarray(values, dtype=float)
        if v.shape[:1] != (self.grid.size,):
            raise ValueError(f"values must have {self.grid.size} rows, got shape {v.shape}")
        self._assemble_ahead()
        if keep:
            kept = np.empty((self.timegrid.steps + 1,) + v.shape)
            kept[0] = v
        for k in range(self.timegrid.steps):
            v = self.step_values(v, k)
            if keep:
                kept[k + 1] = v
        return kept if keep else v

    def _assemble_ahead(self) -> None:
        """Assemble the time nodes that a march reads for uncached steps.

        Time-dependent fields only.  The first such node is assembled here
        and timed.  When that time predicts that a child's share of the rest
        costs at least MIN_CHILD_SHARE_S, the rest is split in order into
        one share per process ``_forked.processes`` allows, and assembled
        by ``_forked.run``: the first share here, the others in forked
        children where that is safe.  Otherwise the march assembles the
        rest as it goes.
        """
        if not self.coeffs.time_dependent:
            return
        first = 1 if self.timegrid.theta == 1.0 else 0
        todo = sorted({
            node
            for k in range(self.timegrid.steps) if k not in self._cache
            for node in range(k + first, k + 2) if node not in self._generators
        })
        if not todo:
            return
        began = time.perf_counter()
        self._generator(todo[0])
        cost = time.perf_counter() - began
        rest = todo[1:]
        processes = min(_forked.processes(), len(rest))
        while processes > 1 and cost * len(rest) / processes < MIN_CHILD_SHARE_S:
            processes -= 1
        if processes > 1:
            own, *shares = [share.tolist() for share in np.array_split(rest, processes)]
            _forked.run(
                lambda: [self._generator(k) for k in own],
                [partial(self._encode, share) for share in shares],
                self._decode,
            )

    def _encode(self, nodes: list[int]) -> list[tuple]:
        """(k, data, mixed-term mask, certification) of A_h(t_k) for each of ``nodes``."""
        generators = [(k, self._generator(k)) for k in nodes]
        return [(k, g.matrix.data, g._pattern.mixed, g.m_matrix_certified) for k, g in generators]

    def _decode(self, message: tuple) -> None:
        """Keep the generator that a message of ``_encode`` carries, on this grid's pattern."""
        k, data, mixed, certified = message
        self._generators[k] = operators._generator(
            operators._pattern(self.grid, mixed), data, certified
        )


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


def _column_norms(x: np.ndarray) -> np.ndarray:
    """2-norm of a vector, or of each column of a block."""
    return np.sqrt(np.einsum("i...,i...->...", x, x))
