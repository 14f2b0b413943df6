"""Reference numerics for the benchmark's checks.

Nothing here imports ``profile_shift``.  Generators are built from 1D
Dirichlet stencils with ``scipy.sparse.kron`` (2D) or as three diagonals
(1D), and marches use scipy's SuperLU with a different column ordering
than the package's default, or LAPACK's banded solver.  Node order is
row-major over the interior of the box, the order of ``numpy.argwhere``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def interior_nodes(n: int, lo: float, hi: float) -> np.ndarray:
    """Coordinates of the n interior nodes of [lo, hi]."""
    h = (hi - lo) / (n + 1)
    return lo + (np.arange(n) + 1) * h


def _stencils(n: int, h: float) -> dict:
    up = sp.diags(np.ones(n - 1), 1, shape=(n, n), format="csr")
    down = up.T.tocsr()
    eye = sp.identity(n, format="csr")
    return {
        "second": (up + down - 2.0 * eye) / h**2,
        "forward": (up - eye) / h,
        "backward": (eye - down) / h,
        "centered": (up - down) / (2.0 * h),
    }


def generator_2d(shape, h, axx, ayy, fx=0.0, fy=0.0, q=0.0, axy=0.0, mode="upwind"):
    """A = axx d_xx + 2 axy d_xy + ayy d_yy + fx d_x + fy d_y - q on a box.

    Coefficients are scalars or per-node arrays in row-major node order.
    Upwind drift takes the forward difference where f > 0 and the
    backward one where f < 0.
    """
    nx, ny = shape
    m = nx * ny
    sx, sy = _stencils(nx, h[0]), _stencils(ny, h[1])
    eye_x, eye_y = sp.identity(nx), sp.identity(ny)

    def along_x(stencil):
        return sp.kron(stencil, eye_y, format="csr")

    def along_y(stencil):
        return sp.kron(eye_x, stencil, format="csr")

    def scale(c):
        return sp.diags(np.broadcast_to(np.asarray(c, dtype=float), (m,)))

    gen = scale(axx) @ along_x(sx["second"]) + scale(ayy) @ along_y(sy["second"]) - scale(q)
    if np.any(np.asarray(axy) != 0.0):
        gen = gen + scale(2.0 * np.asarray(axy)) @ sp.kron(sx["centered"], sy["centered"])
    for f, s, along in ((fx, sx, along_x), (fy, sy, along_y)):
        f = np.asarray(f, dtype=float)
        if mode == "upwind":
            gen = gen + scale(np.maximum(f, 0.0)) @ along(s["forward"])
            gen = gen + scale(np.minimum(f, 0.0)) @ along(s["backward"])
        else:
            gen = gen + scale(f) @ along(s["centered"])
    return gen.tocsr()


def march_sparse(gen, u0: np.ndarray, dt: float, theta: float, steps: int) -> np.ndarray:
    """Theta-scheme march of a time-independent generator; rows are slices."""
    eye = sp.identity(gen.shape[0], format="csc")
    implicit = (eye - theta * dt * gen).tocsc()
    explicit = (eye + (1.0 - theta) * dt * gen).tocsr()
    lu = spla.splu(implicit, permc_spec="MMD_AT_PLUS_A")
    out = np.empty((steps + 1, u0.shape[0]))
    out[0] = u0
    for k in range(steps):
        out[k + 1] = lu.solve(explicit @ out[k])
    return out


def propagator_dense(gen, dt: float, theta: float, steps: int) -> np.ndarray:
    """((I - theta dt A)^-1 (I + (1 - theta) dt A))^steps by binary powering."""
    a = gen.toarray()
    eye = np.eye(a.shape[0])
    one_step = scipy.linalg.solve(eye - theta * dt * a, eye + (1.0 - theta) * dt * a)
    return np.linalg.matrix_power(one_step, steps)


def tridiagonal_1d(h, a, f, q):
    """Upwind generator on 1D interior nodes as (lower, diag, upper) rows.

    lower[i] couples node i to i-1 and upper[i] couples node i to i+1; the
    couplings across the Dirichlet boundary (lower[0], upper[-1]) are zero.
    """
    lower = a / h**2 + np.maximum(-f, 0.0) / h
    upper = a / h**2 + np.maximum(f, 0.0) / h
    diag = -2.0 * a / h**2 - np.abs(f) / h - q
    lower[0] = 0.0
    upper[-1] = 0.0
    return lower, diag, upper


def march_banded(bands_at, u0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """Backward-Euler march of a time-dependent tridiagonal generator.

    ``bands_at(k)`` gives the bands of A(t_k).  Each step solves
    (I - dt A(t_{k+1})) u_{k+1} = u_k with ``scipy.linalg.solve_banded``.
    """
    out = np.empty((steps + 1, u0.shape[0]))
    out[0] = u0
    for k in range(steps):
        lower, diag, upper = bands_at(k + 1)
        ab = np.zeros((3, u0.shape[0]))
        ab[0, 1:] = -dt * upper[:-1]
        ab[1] = 1.0 - dt * diag
        ab[2, :-1] = -dt * lower[1:]
        out[k + 1] = scipy.linalg.solve_banded((1, 1), ab, out[k])
    return out


def relative_gap(values: np.ndarray, expected: np.ndarray) -> float:
    """Max-norm distance over the max norm of the expected values."""
    scale = float(np.abs(expected).max())
    return float(np.abs(values - expected).max()) / (scale if scale > 0.0 else 1.0)
