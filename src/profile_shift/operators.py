"""Coefficient fields and assembly of the discrete spatial generator.

The continuous operator is in nondivergence form,

    A u = sum_ij a_ij d2u/dx_i dx_j + sum_i f_i du/dx_i - q u,

with symmetric a >= delta*I, bounded drift f and absorption rate q >= 0.
``assemble`` turns it into a sparse matrix acting on the interior nodes of a
grid: centered second differences for the diagonal diffusion terms, the
four-point cross difference for mixed terms (2D only), upwind or centered
first differences for the drift, and -q on the diagonal.  Homogeneous
Dirichlet data enters by dropping couplings to boundary (or masked-out)
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import NegativeAbsorption, NotElliptic, NotSymmetric, ValidationError
from .grid import Grid

ADVECTION_MODES = ("upwind", "centered")

MatrixField = Callable[[np.ndarray, float], np.ndarray]
VectorField = Callable[[np.ndarray, float], np.ndarray]
ScalarField = Callable[[np.ndarray, float], float]


@dataclass(frozen=True)
class CoefficientField:
    """Evaluable coefficients a(x,t), f(x,t), q(x,t) with ellipticity delta.

    ``a`` maps (x, t) to a symmetric dim x dim matrix, ``f`` to a dim-vector
    and ``q`` to a nonnegative scalar.  ``time_dependent=False`` lets the
    time stepper reuse one factorization for every step.
    """

    dimension: int
    a: MatrixField
    f: VectorField
    q: ScalarField
    delta: float
    time_dependent: bool = False

    def __post_init__(self):
        if not 0 < self.delta < np.inf:  # a NaN delta fails too
            raise NotElliptic(
                f"ellipticity constant must be finite and positive, got {self.delta}"
            )


def _constant(a: np.ndarray, f: np.ndarray, q: float) -> CoefficientField:
    """Field with the same a, f and q at every (x, t); delta = lambda_min(a)."""
    a = np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    _require_finite((("a", a[None]), ("f", f[None])), lambda i: "every point")
    if not q >= 0:  # a NaN q fails too
        raise NegativeAbsorption(f"absorption rate must be >= 0, got {q}")
    q = float(q)
    return CoefficientField(
        dimension=f.shape[0],
        a=lambda x, t: a,
        f=lambda x, t: f,
        q=lambda x, t: q,
        delta=float(np.linalg.eigvalsh(a)[0]),
    )


def heat(dimension: int = 1) -> CoefficientField:
    """Pure diffusion: a = I, f = 0, q = 0."""
    return _constant(np.eye(dimension), np.zeros(dimension), 0.0)


def absorb(rate: float, dimension: int = 1) -> CoefficientField:
    """Unit diffusion with constant absorption rate q = rate >= 0."""
    return _constant(np.eye(dimension), np.zeros(dimension), rate)


def drift(velocity: Sequence[float], absorption: float = 0.0) -> CoefficientField:
    """Unit diffusion with constant drift vector f = velocity."""
    vel = np.asarray(velocity, dtype=float)
    return _constant(np.eye(vel.shape[0]), vel, absorption)


def anisotropic(axx: float, axy: float, ayy: float, absorption: float = 0.0) -> CoefficientField:
    """Constant 2D diffusion matrix [[axx, axy], [axy, ayy]]."""
    return _constant(np.array([[axx, axy], [axy, ayy]]), np.zeros(2), absorption)


def tabulated(
    grid: Grid,
    a_values: np.ndarray,
    f_values: np.ndarray | None = None,
    q_values: np.ndarray | None = None,
    delta: float | None = None,
) -> CoefficientField:
    """Per-node coefficient arrays bound to a grid (time-independent).

    ``a_values`` has shape (M, dim, dim), ``f_values`` (M, dim), ``q_values``
    (M,).  Missing f or q default to zero.  If delta is omitted it is set to
    the smallest eigenvalue of a over all nodes.  Raises ValidationError
    naming the coefficient and the node when a value is not finite.  The
    callables accept only the rows of ``grid.coordinates()``, which
    ``_sample`` passes; any other point raises KeyError naming it.
    """
    dim = grid.dimension
    m = grid.size
    a_arr = np.asarray(a_values, dtype=float).reshape(m, dim, dim)
    f_arr = (
        np.zeros((m, dim))
        if f_values is None
        else np.asarray(f_values, dtype=float).reshape(m, dim)
    )
    q_arr = (
        np.zeros(m) if q_values is None else np.asarray(q_values, dtype=float).reshape(m)
    )
    coords = grid.coordinates()
    _require_finite(
        (("a", a_arr), ("f", f_arr), ("q", q_arr)), lambda i: f"node {i}, x={coords[i]}"
    )
    if delta is None:
        delta = float(np.linalg.eigvalsh(a_arr)[:, 0].min())

    nodes = {tuple(x): i for i, x in enumerate(coords.tolist())}

    def locate(x) -> int:
        i = nodes.get(tuple(x))
        if i is None:
            raise KeyError(f"point {list(map(float, x))} is not an interior node of the grid")
        return i

    return CoefficientField(
        dimension=dim,
        a=lambda x, t: a_arr[locate(x)],
        f=lambda x, t: f_arr[locate(x)],
        q=lambda x, t: float(q_arr[locate(x)]),
        delta=delta,
    )


@dataclass(frozen=True)
class CoefficientCheck:
    """Worst margins observed over all sampled (x, t) pairs."""

    symmetry_defect: float
    ellipticity_margin: float
    min_absorption: float
    warnings: tuple[str, ...] = ()


def _sample(coeffs: CoefficientField, grid: Grid, t: float):
    """Coefficients at every interior node at time t: a (M, d, d), f (M, d), q (M,).

    The only caller of the coefficient callables.  Raises ValidationError
    for a non-finite value, NotSymmetric when |a - a^T| exceeds
    1e-10 * (1 + max|a|) at a node, and NegativeAbsorption for q < 0, each
    naming the first offending (x, t).
    """
    coords = grid.coordinates()
    m, dim = coords.shape
    a = np.array([coeffs.a(x, t) for x in coords], dtype=float).reshape(m, dim, dim)
    f = np.array([coeffs.f(x, t) for x in coords], dtype=float).reshape(m, dim)
    q = np.array([coeffs.q(x, t) for x in coords], dtype=float).reshape(m)
    _require_finite((("a", a), ("f", f), ("q", q)), lambda i: f"x={coords[i]}, t={t}")
    defect = _asymmetry(a)
    bad = defect > 1e-10 * (1.0 + np.abs(a).max(axis=(1, 2)))
    if bad.any():
        i = int(np.argmax(bad))
        raise NotSymmetric(
            f"a is not symmetric at x={coords[i]}, t={t} (defect {defect[i]:.3e})"
        )
    if (q < 0).any():
        i = int(np.argmax(q < 0))
        raise NegativeAbsorption(f"q={q[i]:.6g} < 0 at x={coords[i]}, t={t}")
    return a, f, q


def _require_finite(arrays, where) -> None:
    """Raise ValidationError at the first node where a (name, (M, ...) array) is not finite.

    ``where(i)`` describes node i in the message.
    """
    for name, values in arrays:
        bad = ~np.isfinite(values.reshape(values.shape[0], -1)).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(f"coefficient {name} is not finite at {where(i)}: {values[i]}")


def _asymmetry(a: np.ndarray) -> np.ndarray:
    """Largest |a - a^T| entry of each matrix in a (M, d, d) stack."""
    return np.abs(a - a.swapaxes(1, 2)).max(axis=(1, 2))


def validate_coefficients(
    coeffs: CoefficientField,
    grid: Grid,
    time_samples: Sequence[float],
) -> CoefficientCheck:
    """Check finiteness, symmetry, ellipticity >= delta and q >= 0 on nodes x times.

    Raises ValidationError / NotSymmetric / NotElliptic / NegativeAbsorption
    naming the first violating (x, t).  On success returns the worst margins,
    plus a warning when the diffusion field jumps strongly between adjacent
    nodes (large grid-level variation is allowed but worth flagging).
    """
    coords = grid.coordinates()
    worst_sym = 0.0
    worst_margin = np.inf
    worst_q = np.inf
    a_scale = 0.0
    a_first = None

    for t in time_samples:
        a, _, q = _sample(coeffs, grid, t)
        worst_sym = max(worst_sym, float(_asymmetry(a).max()))
        a_scale = max(a_scale, float(np.abs(a).max()))
        lam_min = np.linalg.eigvalsh(0.5 * (a + a.swapaxes(1, 2)))[:, 0]
        margin = lam_min - coeffs.delta
        below = margin < 0
        if below.any():
            i = int(np.argmax(below))
            raise NotElliptic(
                f"smallest eigenvalue {lam_min[i]:.6g} of a at x={coords[i]}, t={t} is "
                f"below delta={coeffs.delta}"
            )
        worst_margin = min(worst_margin, float(margin.min()))
        worst_q = min(worst_q, float(q.min()))
        if a_first is None:
            a_first = a

    warnings = []
    jump = _neighbor_jump(grid, a_first) if a_first is not None else 0.0
    if a_scale > 0 and jump > 0.5 * a_scale:
        warnings.append(
            f"diffusion coefficient jumps by {jump:.3g} (>{0.5 * a_scale:.3g}) between "
            f"adjacent nodes; the scheme tolerates this but accuracy may degrade"
        )
    return CoefficientCheck(
        symmetry_defect=worst_sym,
        ellipticity_margin=float(worst_margin),
        min_absorption=float(worst_q),
        warnings=tuple(warnings),
    )


def _neighbor_jump(grid: Grid, a_samples: np.ndarray) -> float:
    """Largest entrywise change of a between axis-adjacent interior nodes."""
    worst = 0.0
    for offset in np.eye(grid.dimension, dtype=np.int64):
        col = grid.neighbor(offset)
        has = col >= 0
        if has.any():
            worst = max(worst, float(np.abs(a_samples[has] - a_samples[col[has]]).max()))
    return worst


@dataclass(frozen=True)
class DiscreteGenerator:
    """Sparse action of A on interior nodes at a fixed time.

    ``m_matrix_certified`` is True only for upwind drift with no mixed
    diffusion terms and the verified sign pattern (off-diagonal >= 0,
    diagonal <= 0), which is what the discrete maximum principle needs.
    """

    matrix: sp.csr_matrix
    time_stamp: float
    m_matrix_certified: bool


def assemble(
    coeffs: CoefficientField,
    grid: Grid,
    t: float,
    advection_mode: str = "upwind",
) -> DiscreteGenerator:
    """Assemble the discrete generator A_h(t) on the grid's interior nodes.

    Couplings to nodes outside the interior (box boundary or masked-out
    cells) are dropped, which encodes the homogeneous Dirichlet condition.
    Non-finite, asymmetric or negative-absorption coefficients raise the
    errors listed in ``_sample``.
    """
    if advection_mode not in ADVECTION_MODES:
        raise ValueError(f"advection_mode must be one of {ADVECTION_MODES}")

    a, f, q = _sample(coeffs, grid, t)
    dim = grid.dimension
    everywhere = np.ones(grid.size, dtype=bool)
    # (offset, weight per row, rows that carry the coupling)
    stencil = []
    diag = -q
    for axis, unit in enumerate(np.eye(dim, dtype=np.int64)):
        h = grid.h[axis]
        # centered second difference for a_ii d2/dx_i2, plus the drift f_i d/dx_i
        w = a[:, axis, axis] / h**2
        diag = diag - 2.0 * w
        fi = f[:, axis]
        if advection_mode == "upwind":
            fp = np.maximum(fi, 0.0)
            fm = np.maximum(-fi, 0.0)
            diag = diag - (fp + fm) / h
            stencil += [(unit, w + fp / h, everywhere), (-unit, w + fm / h, everywhere)]
        else:
            stencil += [
                (unit, w + fi / (2.0 * h), everywhere),
                (-unit, w - fi / (2.0 * h), everywhere),
            ]

    mixed = np.zeros(grid.size, dtype=bool)
    if dim == 2:
        # four-point cross difference for 2*a_xy d2/dxdy
        mixed = a[:, 0, 1] != 0.0
        w = a[:, 0, 1] / (2.0 * grid.h[0] * grid.h[1])
        stencil += [
            (np.array([sx, sy]), sx * sy * w, mixed)
            for sx, sy in ((1, 1), (-1, -1), (1, -1), (-1, 1))
        ]

    rows, cols, vals = [np.arange(grid.size)], [np.arange(grid.size)], [diag]
    for offset, weight, active in stencil:
        col = grid.neighbor(offset)
        # Dirichlet: a missing neighbor contributes nothing to the row.
        keep = active & (col >= 0)
        rows.append(np.flatnonzero(keep))
        cols.append(col[keep])
        vals.append(weight[keep])
    off_diagonal = np.concatenate(vals[1:])
    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.size, grid.size),
    )
    matrix.sum_duplicates()

    # The sign pattern (off-diagonal >= 0, diagonal <= 0) read off the
    # stencil weights: every (row, column) pair appears once.
    certified = bool(
        advection_mode == "upwind"
        and not mixed.any()
        and not np.any(diag > 0)
        and not np.any(off_diagonal < 0)
    )
    return DiscreteGenerator(matrix=matrix, time_stamp=float(t), m_matrix_certified=certified)
