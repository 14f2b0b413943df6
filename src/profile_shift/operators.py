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

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import NegativeAbsorption, NotElliptic, NotSymmetric, ValidationError
from .grid import Grid, _read_only

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
    """Coefficients at every interior node at time t, and the ellipticity of a.

    Returns a (M, d, d), f (M, d), q (M,) and lambda_min (M,), the smallest
    eigenvalue of the symmetric part of a at each node.  The only caller of
    the coefficient callables.  Raises ValidationError for a non-finite
    value, NotSymmetric when |a - a^T| exceeds 1e-10 * (1 + max|a|) at a
    node, NegativeAbsorption for q < 0 and NotElliptic for
    lambda_min < delta, each naming the first offending (x, t), and
    ValidationError for a field of another dimension than the grid.
    """
    coords = grid.coordinates()
    m, dim = coords.shape
    if coeffs.dimension != dim:
        raise ValidationError(
            f"coefficient field is {coeffs.dimension}D but the grid is {dim}D"
        )
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
    lam_min = np.linalg.eigvalsh(0.5 * (a + a.swapaxes(1, 2)))[:, 0]
    below = lam_min < coeffs.delta
    if below.any():
        i = int(np.argmax(below))
        raise NotElliptic(
            f"smallest eigenvalue {lam_min[i]:.6g} of a at x={coords[i]}, t={t} is "
            f"below delta={coeffs.delta}"
        )
    return a, f, q, lam_min


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
    worst_sym = 0.0
    worst_margin = np.inf
    worst_q = np.inf
    a_scale = 0.0
    a_first = None

    for t in time_samples:
        a, _, q, lam_min = _sample(coeffs, grid, t)
        worst_sym = max(worst_sym, float(_asymmetry(a).max()))
        a_scale = max(a_scale, float(np.abs(a).max()))
        worst_margin = min(worst_margin, float((lam_min - coeffs.delta).min()))
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


# The stencil's couplings after the diagonal, in the order ``assemble``
# lists their weights: (offset from the row's node, whether it is a term of
# the 2D cross difference, which couples only rows where a_xy != 0).
_COUPLINGS = {
    1: (((1,), False), ((-1,), False)),
    2: (
        ((1, 0), False), ((-1, 0), False), ((0, 1), False), ((0, -1), False),
        ((1, 1), True), ((-1, -1), True), ((1, -1), True), ((-1, 1), True),
    ),
}


@dataclass(frozen=True, eq=False)
class _Pattern:
    """CSR sparsity pattern of the stencil on one grid for one mixed-term mask.

    Every array is read-only and shared by all generators with this mask.
    Entries are in CSR order (rows, then columns ascending); ``couplings``
    holds, for each entry of ``_COUPLINGS``, the rows that carry it and the
    positions of their entries.
    """

    mixed: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    diagonal: np.ndarray
    off_diagonal: np.ndarray
    couplings: tuple

    @property
    def nnz(self) -> int:
        return self.rows.size


def _pattern(grid: Grid, mixed: np.ndarray) -> _Pattern:
    """The stencil pattern of ``grid`` where the mixed term acts on ``mixed``.

    A grid keeps the pattern of the last mask it was asked for, in its
    ``__dict__`` as ``functools.cached_property`` keeps the grid's other
    caches; another mask replaces it.
    """
    pattern = grid.__dict__.get("_stencil_pattern")
    if pattern is None or not np.array_equal(pattern.mixed, mixed):
        pattern = grid.__dict__["_stencil_pattern"] = _build_pattern(grid, mixed)
    return pattern


def _build_pattern(grid: Grid, mixed: np.ndarray) -> _Pattern:
    m = grid.size
    rows, cols = [np.arange(m)], [np.arange(m)]
    for offset, cross in _COUPLINGS[grid.dimension]:
        col = grid.neighbor(offset)
        # Dirichlet: a missing neighbor contributes nothing to the row.
        keep = col >= 0
        if cross:
            keep &= mixed
        rows.append(np.flatnonzero(keep))
        cols.append(col[keep])
    ends = np.cumsum([r.size for r in rows])
    row, col = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((col, row))
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    # scipy keeps 32-bit indices whenever they fit
    index = np.int32 if max(m, order.size) <= np.iinfo(np.int32).max else np.int64
    csr_rows = row[order]
    off_diagonal = np.ones(order.size, dtype=bool)
    off_diagonal[position[:m]] = False
    return _Pattern(
        mixed=_read_only(mixed.copy()),
        indptr=_read_only(_indptr(csr_rows, m, index)),
        indices=_read_only(col[order].astype(index)),
        rows=_read_only(csr_rows),
        diagonal=_read_only(position[:m]),
        off_diagonal=_read_only(off_diagonal),
        couplings=tuple(
            (_read_only(r), _read_only(position[lo:hi]))
            for r, lo, hi in zip(rows[1:], ends[:-1], ends[1:])
        ),
    )


def _indptr(rows: np.ndarray, m: int, dtype) -> np.ndarray:
    """CSR row pointers of entries in the rows ``rows``, each in 0..m-1."""
    indptr = np.zeros(m + 1, dtype=dtype)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    return indptr


@dataclass(frozen=True)
class DiscreteGenerator:
    """Sparse action of A on interior nodes at a fixed time.

    ``m_matrix_certified`` is True only for upwind drift with no mixed
    diffusion terms and the verified sign pattern (off-diagonal >= 0,
    diagonal <= 0), which is what the discrete maximum principle needs.
    ``matrix`` shares its read-only ``indices`` and ``indptr`` with every
    generator assembled on the same grid and mixed-term mask.
    """

    matrix: sp.csr_matrix
    m_matrix_certified: bool
    _pattern: _Pattern | None = field(default=None, repr=False, compare=False)

    def identity_plus(self, c: float) -> sp.csr_matrix:
        """I + c A_h in CSR form, bit for bit that of scipy's arithmetic.

        It equals ``(identity(M, format="csc") + c * matrix).tocsr()``:
        scipy adds sparse matrices entry by entry and drops an entry whose
        sum is exactly 0, which a centered weight a / h^2 - f / (2h) can be.
        Built from the generator's data over its pattern.
        """
        pattern = self._pattern
        m = pattern.diagonal.size
        data = c * self.matrix.data
        data[pattern.diagonal] += 1.0
        csr = (data, pattern.indices, pattern.indptr)
        kept = data != 0.0
        if not kept.all():
            csr = (
                data[kept],
                pattern.indices[kept],
                _indptr(pattern.rows[kept], m, pattern.indptr.dtype),
            )
        return sp.csr_matrix(csr, shape=(m, m))


def _generator(pattern: _Pattern, data: np.ndarray, certified: bool):
    """The generator whose CSR data, over ``pattern``, is ``data``."""
    m = pattern.diagonal.size
    return DiscreteGenerator(
        sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=(m, m)),
        certified,
        pattern,
    )


def assemble(
    coeffs: CoefficientField,
    grid: Grid,
    t: float,
    advection_mode: str = "upwind",
) -> DiscreteGenerator:
    """Assemble the discrete generator A_h(t) on the grid's interior nodes.

    Couplings to nodes outside the interior (box boundary or masked-out
    cells) are dropped, which encodes the homogeneous Dirichlet condition.
    Non-finite, asymmetric, negative-absorption or non-elliptic
    coefficients raise the errors listed in ``_sample``.  The grid keeps the
    sparsity pattern of the last mixed-term mask (``_pattern``), so an
    assembly with that mask fills only its data, which holds every stencil
    weight, zeros included.
    """
    if advection_mode not in ADVECTION_MODES:
        raise ValueError(f"advection_mode must be one of {ADVECTION_MODES}")

    a, f, q, _ = _sample(coeffs, grid, t)
    dim = grid.dimension
    # one weight per row for each entry of _COUPLINGS[dim]
    weights = []
    diag = -q
    for axis in range(dim):
        h = grid.h[axis]
        # centered second difference for a_ii d2/dx_i2, plus the drift f_i d/dx_i
        w = a[:, axis, axis] / h**2
        diag = diag - 2.0 * w
        fi = f[:, axis]
        if advection_mode == "upwind":
            fp = np.maximum(fi, 0.0)
            fm = np.maximum(-fi, 0.0)
            diag = diag - (fp + fm) / h
            weights += [w + fp / h, w + fm / h]
        else:
            weights += [w + fi / (2.0 * h), w - fi / (2.0 * h)]

    mixed = np.zeros(grid.size, dtype=bool)
    if dim == 2:
        # four-point cross difference for 2*a_xy d2/dxdy
        mixed = a[:, 0, 1] != 0.0
        w = a[:, 0, 1] / (2.0 * grid.h[0] * grid.h[1])
        weights += [sx * sy * w for (sx, sy), cross in _COUPLINGS[2] if cross]

    pattern = _pattern(grid, mixed)
    data = np.empty(pattern.nnz)
    data[pattern.diagonal] = diag
    for weight, (rows, positions) in zip(weights, pattern.couplings):
        data[positions] = weight[rows]

    # The sign pattern (off-diagonal >= 0, diagonal <= 0) read off the
    # stencil weights: every (row, column) pair appears once.
    certified = bool(
        advection_mode == "upwind"
        and not mixed.any()
        and not np.any(diag > 0)
        and not np.any(data[pattern.off_diagonal] < 0)
    )
    return _generator(pattern, data, certified)
