"""Solve the change-of-profile problem and normalize the result.

The problem: find u solving du/dt = Au on (0, T) with zero boundary values
and the two-time condition u(., 0) = u(., T) + gamma.  Writing Q for the
time-T propagator, the initial profile zeta satisfies the Fredholm system

    (I - Q) zeta = gamma,

which is solved matrix-free by restarted block GMRES (each iteration is one
full implicit time march of a basis block; a single gamma is a block of
one).  Every cycle ends with a march of its zeta that gives the true
residual, so the zeta returned has been marched already; that march is the
trajectory.  The trajectory is scaled to unit initial mass, giving the
probability-normalized pair (alpha, p).

Q's eigenvalues decay like exp(lambda T), so a few slow modes are all that
keep I - Q away from the identity.  For time-independent coefficients one
step is a rational function of A_h, so A_h w = lambda w gives
Q w = m(lambda)^N_t w exactly, with no march.  GMRES is then right
preconditioned by the spectral projector of the slow modes of A_h (at most
DEFLATION_CAP of them, found by ARPACK), which turns I - Q into the
identity on their subspace (deflated restarted GMRES: Erhel, Burrage and
Pohl, J. Comput. Appl. Math. 69, 1996; compare Morgan, SIAM J. Matrix Anal.
Appl. 16, 1995).  GMRES then starts from M^-1 gamma, exact on those modes,
so a solve typically takes no Krylov iteration and one march.  The
preconditioner cannot weaken the post-check: the start and the zeta of
every cycle are marched and accepted on their true residual alone.
Time-dependent fields have no single A_h and are solved without it.  The
projector is built only where it can pay: its ARPACK solves must fit in
the N_t steps of one march, and the columns of gamma must not already span
an invariant subspace of A_h, as they do when gamma is an eigenvector.

``dense_propagator`` assembles Q_h from the same stepping engine and its
per-column check; it exists so the iterative route can be cross-checked
against explicit linear algebra on small grids.  For time-independent
coefficients it steps the identity once, giving the one-step matrix S, and
returns S^N_t, which differs from a march only by the rounding of the
powers.  ``spectral_analysis`` is the one place that picks a spectral route:
the eigenvalues of a symmetric, time-independent A_h, from its band, or
else the dense Q_h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg as spla

from .errors import (
    NoConvergence,
    NonpositiveMass,
    NumericalBreakdown,
    PostCheckFailure,
    TooLarge,
)
from .grid import Grid
from .operators import CoefficientField
from .propagator import (
    ThetaStepper,
    TimeGrid,
    Trajectory,
    _column_norms,
    _engine,
)

DENSE_CAP = 4096
# Most slow modes of A_h that GMRES deflates (see _slow_projector).
DEFLATION_CAP = 20
# Relative gap in |lambda| below which two eigenvalues share a cluster.
_CLUSTER_RTOL = 1e-8
# Identity columns per march or step in dense_propagator.  The step's
# temporaries are a few M x 64 blocks, so the oracle's peak stays at the
# three M x M arrays of the powering (384 MB at DENSE_CAP).
_BLOCK_COLUMNS = 64


@dataclass(frozen=True, eq=False)
class ProfileShift:
    """Prescribed difference gamma = u(., 0) - u(., T) on the interior nodes.

    ``nonneg`` requests the probability-normalized path; it asserts that
    gamma is nonnegative and nontrivial, the hypothesis under which the
    solution itself is nonnegative with positive initial mass.
    """

    gamma: np.ndarray
    nonneg: bool = False

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 1:
            raise ValueError(f"gamma must be a vector, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("gamma contains non-finite entries")
        if self.nonneg:
            if np.any(g < 0.0):
                raise ValueError("nonneg path requested but gamma has negative entries")
            if not np.any(g > 0.0):
                raise ValueError("nonneg path requested but gamma is identically zero")
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True, eq=False)
class FredholmReport:
    """Outcome of one profile-shift solve.

    ``history`` holds the solver's estimate of ||r|| / ||gamma|| after each
    iteration, so ``len(history) == iterations``.  ``deflated_modes`` is the
    count of slow modes of A_h that preconditioned GMRES, 0 when none did
    (time-dependent coefficients, a zero gamma, a tiny grid).  With modes
    deflated, ``iterations == 0`` and an empty ``history`` mean that the
    deflated start M^-1 gamma was accepted; ``relative_residual`` is always
    the true residual of the returned zeta's own march.
    """

    zeta: np.ndarray
    trajectory: Trajectory
    iterations: int
    history: tuple[float, ...]
    deflated_modes: int
    relative_residual: float
    alpha: float | None
    normalized: Trajectory | None


def solve_profile_shift(
    shift: ProfileShift,
    coeffs: CoefficientField,
    grid: Grid,
    timegrid: TimeGrid,
    advection_mode: str = "upwind",
    tol: float = 1e-10,
    max_iter: int = 200,
    restart: int = 50,
    stepper: ThetaStepper | None = None,
) -> FredholmReport:
    """Solve (I - Q) zeta = gamma matrix-free and rebuild the trajectory.

    The GMRES tolerance is relative to ||gamma|| and must lie in (0, 1).
    ``max_iter`` counts restart cycles, not iterations: each cycle runs up
    to ``restart`` iterations, so the defaults allow 200 x 50 = 10000.
    After the solve the two-time condition is re-verified from the
    trajectory, the march of zeta that ended the solve; a violation beyond
    tol raises PostCheckFailure, so a returned report is always
    self-consistent.  When the shift carries the nonneg flag the report also
    holds the unit-mass pair (alpha, normalized trajectory).

    For time-independent coefficients GMRES deflates the slow modes of A_h
    (see ``_slow_projector``), at the cost of one sparse LU of A_h and one
    or two ARPACK runs per connected component, and usually accepts its
    start M^-1 gamma with no Krylov iteration and one march; time-dependent
    coefficients are solved without deflation, and so are problems where
    it cannot pay: N_t too small for ARPACK's solves, or a gamma that spans
    an invariant subspace of A_h.  It changes the iteration count, not what
    the post-check accepts.  Raises NumericalBreakdown when the projector
    finds an eigenvalue of Q within eps of 1; without a projector such a Q
    ends in NoConvergence.
    """
    _check_settings(tol, max_iter, restart)
    gamma = shift.gamma
    if gamma.shape != (grid.size,):
        raise ValueError(
            f"gamma must live on the {grid.size} interior nodes, got {gamma.shape}"
        )
    engine = _engine(coeffs, grid, timegrid, advection_mode, stepper)

    if not gamma.any():
        # gamma = 0 forces zeta = 0: the unique fixed point of Q.
        zeta = np.zeros(grid.size)
        history, deflated = (), 0
        marched = engine.run(zeta, keep=True)
    else:
        zeta, history, marched, deflated = _gmres_identity_minus_q(
            engine, gamma, tol=tol, max_iter=max_iter, restart=restart, keep=True
        )

    trajectory = Trajectory(marched, grid, timegrid)
    relative_residual = float(_shift_residual(trajectory.initial, trajectory.terminal, gamma))
    if relative_residual > tol:
        raise PostCheckFailure(
            "reconstructed trajectory violates the two-time condition: "
            f"||u(0) - u(T) - gamma|| = {relative_residual:.3e} * ||gamma|| > {tol:.1e}"
        )

    alpha = None
    normalized = None
    if shift.nonneg:
        alpha, normalized = normalize(trajectory)

    return FredholmReport(
        zeta=zeta,
        trajectory=trajectory,
        iterations=len(history),
        history=history,
        deflated_modes=deflated,
        relative_residual=relative_residual,
        alpha=alpha,
        normalized=normalized,
    )


def _shift_residual(initial: np.ndarray, terminal: np.ndarray, gamma: np.ndarray):
    """||u(., 0) - u(., T) - gamma|| / ||gamma|| of a vector, or of each column of a block.

    A zero column of gamma gives the absolute norm.  A vector's norms are
    np.linalg.norm's and a block's _column_norms', which may differ in the last bits.
    """
    norms = np.linalg.norm if gamma.ndim == 1 else _column_norms
    scale = norms(gamma)
    return norms(initial - terminal - gamma) / np.where(scale > 0.0, scale, 1.0)


def _gmres_identity_minus_q(
    engine: ThetaStepper,
    gamma: np.ndarray,
    tol: float,
    max_iter: int,
    restart: int,
    keep: bool = False,
):
    """Solve (I - Q) zeta = gamma for a vector (M,) or a block of columns (M, k).

    Restarted block GMRES (Saad, Iterative Methods for Sparse Linear
    Systems, 2nd ed., 6.12); for one column it is GMRES.  A cycle starts
    from the residual R = V_0 S_0 and searches span{R, QR, Q^2 R, ...}: each
    iteration marches its basis block V_j once, orthogonalizes (I - Q) V_j
    against the basis by two passes of block Gram-Schmidt and takes the next
    block from the QR of what is left, so every column gains a direction
    per column of the block.  Both passes' coefficients and that QR's R fill
    the block Hessenberg H, and each iteration solves min ||E_1 S_0 - H Y||_F
    directly (LAPACK gelsy): its residual is the estimate, and the last Y
    gives the cycle's update.  A rank-deficient block (repeated or dependent
    columns, M < k, a basis that fills R^M) leaves zero or rounding-level
    diagonal entries in the R factors, so H may be singular: Y is the
    minimum-norm least-squares solution, which raises nothing.  A cycle ends after ``restart``
    iterations (or ceil(M / k), past which the basis has no room), or once
    the estimate meets the bound, with one march of Z made with ``keep``;
    its true residual decides whether Z is returned or a new cycle starts,
    so a breakdown may cost a cycle but never returns an unverified Z.
    ``max_iter`` counts cycles; the deflated start below is not one.

    The Krylov operator is (I - Q) M^-1, right preconditioned by
    M^-1 x = x + U L^T x from ``_slow_projector`` (M = I where it builds
    none): each basis block is mapped by M^-1 before its march,
    and a cycle's update is M^-1 (V Y), so the march of Z that ends the
    cycle still decides alone whether Z is returned.  With a projector the
    solve starts from Z_0 = M^-1 G, which is exact on the deflated modes:
    Z_0 is marched once, with ``keep``, and returned with an empty history
    if its true residual meets the bound; otherwise the first cycle starts
    from that residual.  With M = I it starts from Z_0 = 0, which needs no
    march.

    The stopping bound is absolute, ||R||_F <= tol min_j ||g_j||, which
    gives ||r_j|| <= tol ||g_j|| for every column; for one column it is the
    relative bound.  The bound is set by the smallest column, so the columns
    should be of like norm, and a zero column is refused.

    Returns (zeta, history, marched, deflated): the solution in gamma's
    shape, the least-squares estimate of ||R||_F / min_j ||g_j|| after each
    iteration, marched = engine.run(zeta, keep=keep), the march that
    verified zeta, and the count of deflated modes, the columns of U.
    A NoConvergence names the largest relative residual ||r_j|| / ||g_j|| of
    the last cycle's march.
    """
    _check_settings(tol, max_iter, restart)
    shape = gamma.shape
    columns = gamma.reshape(shape[0], -1)
    m, k = columns.shape
    norms = _column_norms(columns)
    if not norms.all():
        raise ValueError("every column of gamma must be nonzero")
    bound = tol * float(norms.min())

    deflation = _slow_projector(engine, columns, tol)
    deflated = 0 if deflation is None else deflation[0].shape[1]

    def precondition(block):
        """M^-1 block = block + U L^T block, for a block of columns."""
        if deflation is None:
            return block
        right, left = deflation
        return block + right @ (left.T @ block)

    def identity_minus_q(block):
        block = precondition(block)
        return block - engine.run(block)

    def verify(zeta):
        """March zeta with ``keep``: (the march, or None if R misses the bound; R)."""
        marched = engine.run(zeta.reshape(shape), keep=keep)
        residual = columns - (zeta - (marched[-1] if keep else marched).reshape(m, k))
        return (marched if np.linalg.norm(residual) <= bound else None), residual

    zeta = np.zeros_like(columns)
    residual = columns
    history: list[float] = []
    if deflation is not None:
        # M^-1 G solves the system exactly on the deflated modes, so it
        # usually meets the bound with no Krylov iteration.
        zeta = precondition(columns)
        marched, residual = verify(zeta)
        if marched is not None:
            return zeta.reshape(shape), (), marched, deflated
    for _ in range(max_iter):
        first, s0 = np.linalg.qr(residual)
        p = first.shape[1]  # min(M, k)
        length = min(restart, -(-m // p))
        basis = np.empty((m, (length + 1) * p), order="F")
        basis[:, :p] = first
        hessenberg = np.zeros(((length + 1) * p, length * p))
        start = np.zeros(((length + 1) * p, k))  # E_1 S_0
        start[:p] = s0
        for j in range(length):
            lo, hi = j * p, (j + 1) * p
            w = identity_minus_q(basis[:, lo:hi])
            for _ in range(2):
                projection = basis[:, :hi].T @ w
                w -= basis[:, :hi] @ projection
                hessenberg[:hi, lo:hi] += projection
            basis[:, hi:hi + p], hessenberg[hi:hi + p, lo:hi] = np.linalg.qr(w)
            h, g = hessenberg[:hi + p, :hi], start[:hi + p]
            y = scipy.linalg.lstsq(h, g, lapack_driver="gelsy", check_finite=False)[0]
            estimate = float(np.linalg.norm(g - h @ y))
            history.append(estimate / float(norms.min()))
            if estimate <= bound:
                break
        zeta = zeta + precondition(basis[:, :hi] @ y)
        marched, residual = verify(zeta)
        if marched is not None:
            return zeta.reshape(shape), tuple(history), marched, deflated
    raise NoConvergence(
        iterations=len(history),
        residual=float(np.max(_column_norms(residual) / norms)),
        theta=engine.timegrid.theta,
    )


class _Component(NamedTuple):
    """The slow modes ARPACK found on one connected component of A_h."""

    nodes: np.ndarray  # its node indices
    block: scipy.sparse.csr_matrix  # A_h restricted to them
    lam: np.ndarray
    right: np.ndarray
    left: np.ndarray
    mu: np.ndarray  # |mu| = |m(lambda)|^N_t
    cuts: list[int]  # the prefix lengths that may be taken, 0 first


class _OverBudget(Exception):
    """An ARPACK run of _slow_modes asked for more solves than it was given."""


def _slow_projector(engine: ThetaStepper, columns: np.ndarray, tol: float):
    """The factors (U, L) of GMRES's right preconditioner M^-1 x = x + U L^T x.

    U is a real orthonormal basis of the right invariant subspace of the k
    slow eigenvalues of A_h, and L = W C^-T K^T, where W is the same basis
    of the left invariant subspace, C = W^T U, H = C^-1 W^T A_h U,
    T = m(H)^N_t with the per-step multiplier
    m(H) = (I - theta dt H)^-1 (I + (1 - theta) dt H), and
    K = (I - T)^-1 T = (I - T)^-1 - I.  A march maps U to U T exactly, so
    (I - Q) M^-1 = I - Q (I - U C^-1 W^T): the k slow eigenvalues of Q
    become 0, and I - Q becomes the identity on their subspace.  Returns
    None, for M = I, when the coefficients depend on time (there is no
    single A_h), when it cannot pay, or when no mode is taken.

    The projector is built only where it can pay.  Its cost is one LU of
    A_h and the solves of ARPACK, each the price of one step of a march;
    what it saves is whole marches of N_t steps.  So the ARPACK runs of all
    components get N_t solves in all, the price of one march: a component
    whose runs are not expected to finish within what is left is not
    started, and one that runs past it is stopped and gets no modes (see
    _slow_modes).  Small N_t thus takes M = I.  Nor is it built when the
    columns of gamma span an invariant subspace of A_h to within tol (an
    eigenvector, say): they span one of Q, so plain GMRES ends in one
    iteration, and a projector would save nothing.

    Each connected component of A_h's graph is solved alone (_slow_modes),
    so U and L vanish outside the component of each of their columns, and
    a gamma supported on one component keeps zeta exactly zero on the
    others.  Modes are taken by ascending |lambda| over all components,
    while at most DEFLATION_CAP are taken, and in whole clusters of equal
    |lambda|: a degenerate eigenvalue or a conjugate pair is taken whole or
    not at all.  A cluster is taken only while its modes outlast, in |mu|,
    every found mode left behind and the stiffest mode A_h may have: under
    theta < 1 a stiff step can make every |mu| nearly equal, and deflating
    one of them would move it to 1, away from the rest of the spectrum of
    I - Q.  A component whose real bases fall short of the count of its
    modes, or whose C is ill-conditioned, gets no modes; so does one whose
    left eigenvectors belong to other eigenvalues than its right ones, as
    such a C is singular.  Whatever the projector, the caller accepts a
    zeta only on the true residual of its own march, so a poor one costs
    iterations but never a wrong answer.  Raises NumericalBreakdown when a
    found mu is within eps of 1.
    """
    if engine.coeffs.time_dependent:
        return None
    generator = engine.generator.matrix.tocsr()
    image = generator @ columns
    spanned = columns @ np.linalg.lstsq(columns, image, rcond=None)[0]
    if np.linalg.norm(image - spanned) <= tol * np.linalg.norm(image):
        return None
    timegrid = engine.timegrid
    budget = timegrid.steps
    # Every eigenvalue of A_h lies in the Gershgorin disc |lambda| <= ||A_h||_inf.
    stiffest = abs(_multipliers(-abs(generator).sum(axis=1).max(), timegrid))
    count, labels = scipy.sparse.csgraph.connected_components(generator)
    components = []
    for c in range(count):
        nodes = np.flatnonzero(labels == c)
        block = generator if count == 1 else generator[nodes][:, nodes]
        lam, right, left, solves = _slow_modes(block, budget)
        budget -= solves
        mu = _multipliers(lam, timegrid)
        if np.any(np.abs(1.0 - mu) <= np.finfo(float).eps):
            raise NumericalBreakdown("I - Q is numerically singular")
        mu = np.abs(mu)
        # The last cluster may have more members than ARPACK found, so it
        # is never taken.
        size = np.abs(lam)
        cuts = [0]
        for s in np.flatnonzero(size[1:] > size[:-1] * (1.0 + _CLUSTER_RTOL)) + 1:
            if mu[:s].min() <= stiffest:
                break
            cuts.append(s)
        components.append(_Component(nodes, block, lam, right, left, mu, cuts))

    take = [0] * count
    ranked = sorted(
        (abs(p.lam[s - 1]), c, s) for c, p in enumerate(components) for s in p.cuts[1:]
    )
    for _, c, s in ranked:
        if sum(take) - take[c] + s > DEFLATION_CAP:
            break
        take[c] = s
    rest = max([stiffest] + [p.mu[s:].max(initial=0.0) for p, s in zip(components, take)])
    pieces = []
    for p, limit in zip(components, take):
        s = max(cut for cut in p.cuts if cut <= limit and p.mu[:cut].min(initial=np.inf) > rest)
        if s:
            factors = _component_factors(
                p.block, p.lam[:s], p.right[:, :s], p.left[:, :s], timegrid
            )
            if factors is not None:
                pieces.append((p.nodes, *factors))
    k = sum(u.shape[1] for _, u, _ in pieces)
    if k == 0:
        return None
    right, left = np.zeros((generator.shape[0], k)), np.zeros((generator.shape[0], k))
    start = 0
    for nodes, u, w in pieces:
        stop = start + u.shape[1]
        right[nodes, start:stop], left[nodes, start:stop] = u, w
        start = stop
    return right, left


def _slow_modes(block, budget: int):
    """Eigenvalues of one component's A_h nearest 0, with right and left eigenvectors.

    Returns (lam, right, left, solves), the eigenvectors of each side sorted by
    ascending |lambda| and, within a conjugate pair, by the imaginary part,
    as lam is; a prefix of whole clusters has one span on each side.  At most
    DEFLATION_CAP + 1 are asked for, and fewer than M - 1 (ARPACK's limit),
    so none on a component of under four nodes.  ARPACK starts from a fixed
    vector drawn from default_rng(0): a vector of ones is orthogonal to
    every mode that is odd under a symmetry of the domain.  An exactly
    symmetric block takes eigsh, and its left eigenvectors are its right
    ones; any other takes eigs on the block and on its transpose, whose
    solves are the same LU's with trans="T".  ``solves`` counts the LU
    solves made, at most ``budget``.  A run makes ncv solves to fill its
    basis, then about as many again in its restarts (1.1 to 2.4 ncv on
    heat, drift and anisotropic fields, 1D and 2D), so no run is started
    unless 2 ncv per run fit in the budget, and a run that reaches it is
    stopped.  A component on which ARPACK is not started, is stopped or
    does not converge gives no modes.
    """
    m = block.shape[0]
    wanted = min(DEFLATION_CAP + 1, m - 2)
    ncv = min(m, max(2 * wanted + 1, 20))  # ARPACK's default
    solves = 0
    none = np.zeros(0), np.zeros((m, 0)), np.zeros((m, 0))
    symmetric = (block != block.T).nnz == 0
    runs = ((block, "N"), (block.T, "T"))[: 1 if symmetric else 2]
    if wanted < 1 or 2 * len(runs) * ncv > budget:
        return *none, solves
    try:
        lu = spla.splu(block.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        # A_h w = 0 gives Q w = w.
        raise NumericalBreakdown("I - Q is numerically singular") from exc

    def counted(x, trans):
        nonlocal solves
        if solves == budget:
            raise _OverBudget
        solves += 1
        return lu.solve(x, trans=trans)

    start = np.random.default_rng(0).standard_normal(m)
    found = []
    for matrix, trans in runs:
        solve = spla.LinearOperator(block.shape, matvec=lambda x, t=trans: counted(x, t))
        eig = spla.eigsh if symmetric else spla.eigs
        try:
            lam, vectors = eig(matrix, wanted, sigma=0.0, OPinv=solve, v0=start, ncv=ncv)
        except (spla.ArpackError, _OverBudget):
            return *none, solves
        order = np.lexsort((lam.imag, np.abs(lam)))
        found.append((lam[order], vectors[:, order]))
    (lam, right), (_, left) = found[0], found[-1]
    return lam, right, left, solves


def _component_factors(block, lam, right, left, timegrid: TimeGrid):
    """(U, L) of _slow_projector on one component, or None to leave it out.

    ``lam`` holds whole clusters, so every conjugate pair has both halves,
    and the real spans of the right and left eigenvectors have the
    dimension len(lam); a span that falls short (defective or dependent
    eigenvectors) leaves the component out.
    """
    theta, dt, steps = timegrid.theta, timegrid.dt, timegrid.steps
    u, w = _real_basis(right), _real_basis(left)
    k = lam.size
    if u.shape[1] != k or w.shape[1] != k:
        return None
    c = w.T @ u
    # ||U C^-1 W^T|| = 1 / sigma_min(C), the secant of the largest angle
    # between the two subspaces; past 1/sqrt(eps) the projector would lose
    # half the digits of what it adds.
    if np.linalg.eigvalsh(c.T @ c)[0] < np.finfo(float).eps:
        return None
    h = np.linalg.solve(c, w.T @ (block @ u))
    eye = np.eye(k)
    step = np.linalg.solve(eye - theta * dt * h, eye + (1.0 - theta) * dt * h)
    t = np.linalg.matrix_power(step, steps)
    gain = np.linalg.solve(eye - t, t)
    return u, w @ np.linalg.solve(c.T, gain.T)


def _multipliers(lam, timegrid: TimeGrid):
    """mu = m(lambda)^N_t, the eigenvalue of Q for an eigenvalue lambda of A_h."""
    theta, dt = timegrid.theta, timegrid.dt
    return ((1.0 + (1.0 - theta) * dt * lam) / (1.0 - theta * dt * lam)) ** timegrid.steps


def _real_basis(vectors: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the real span of [Re V, Im V].

    The span holds both halves of every conjugate pair that has one half in
    V.  It is read from the Gram matrix of [Re V, Im V] by eigh: the
    eigenvectors with eigenvalues above 1e-10 of the largest, scaled by
    their inverse square roots.
    """
    span = np.hstack([vectors.real, vectors.imag])
    gram, rotation = np.linalg.eigh(span.T @ span)
    keep = gram > 1e-10 * gram[-1]
    return span @ (rotation[:, keep] / np.sqrt(gram[keep]))


def _check_settings(tol: float, max_iter: int, restart: int) -> None:
    """Refuse GMRES settings under which no solve can be returned.

    From tol >= 1, zeta = 0 already meets the bound; a solve needs at least
    one cycle, and a cycle at least one iteration.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    for name, value in (("max_iter", max_iter), ("restart", restart)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def normalize(trajectory: Trajectory) -> tuple[float, Trajectory]:
    """Scale a trajectory to unit initial mass.

    alpha = 1 / integral of u(., 0); the integral is the cell-volume
    weighted sum over interior nodes (midpoint rule).  The initial mass
    must be strictly positive for the scaled solution to be a probability
    profile.
    """
    mass = float(np.sum(trajectory.initial)) * trajectory.grid.cell_volume
    if not mass > 0.0:
        raise NonpositiveMass(
            f"initial mass {mass:.3e} is not positive; "
            "cannot normalize to a probability profile"
        )
    alpha = 1.0 / mass
    return alpha, trajectory.scaled(alpha)


def dense_propagator(stepper: ThetaStepper) -> np.ndarray:
    """Assemble Q_h as a dense matrix from the stepper the iterative solver marches.

    It shares the stepper's factorizations.  For time-independent
    coefficients the identity is stepped once, in blocks of 64 columns, so
    every column of the one-step matrix S passes the same per-column check
    as a march; Q_h = S^N_t then follows by binary powering, about
    2 log2(N_t) matrix products, and differs from a march only by the
    rounding of those products.  Time-dependent coefficients have no single
    S, so the identity is marched through all N_t steps in the same blocks.
    Refuses grids above DENSE_CAP nodes.
    """
    m = stepper.grid.size
    if m > DENSE_CAP:
        raise TooLarge(
            f"dense propagator needs {m}x{m} storage; cap is {DENSE_CAP} nodes"
        )
    if stepper.coeffs.time_dependent:
        return _identity_images(stepper.run, m)
    step = _identity_images(lambda block: stepper.step_values(block, 0), m)
    return _power(step, stepper.timegrid.steps)


def _identity_images(apply, m: int) -> np.ndarray:
    """The M x M matrix whose column j is apply(e_j), in blocks of columns."""
    columns = np.empty((m, m))
    for start in range(0, m, _BLOCK_COLUMNS):
        stop = min(start + _BLOCK_COLUMNS, m)
        columns[:, start:stop] = apply(np.eye(m, stop - start, -start))
    return columns


def _power(step: np.ndarray, n: int) -> np.ndarray:
    """step^n for n >= 1 by right-to-left binary powering; overwrites step.

    Knuth, TAOCP vol. 2, 4.6.3.  The squares are made in step's own buffer
    and one spare, and the running product in a third, so at most three
    M x M arrays are alive; np.linalg.matrix_power, which allocates each
    product, holds four.
    """
    square, spare, result = step, np.empty_like(step), None
    while True:
        n, bit = divmod(n, 2)
        if bit and result is None:
            result = square if n == 0 else square.copy()
        elif bit:
            np.matmul(result, square, out=spare)
            result, spare = spare, result
        if n == 0:
            return result
        np.matmul(square, square, out=spare)
        square, spare = spare, square


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Spectral summary of Q_h and I - Q_h; ``route`` is "generator" or "dense"."""

    eigenvalues: np.ndarray
    spectral_radius: float
    log10_cond_Q: float
    cond_identity_minus_Q: float
    route: str


def spectral_analysis(stepper: ThetaStepper, q_matrix: np.ndarray | None = None) -> SpectralReport:
    """Eigenvalues of Q_h, rho(Q_h), cond(I - Q_h) and log10 cond(Q_h).

    When the coefficients do not depend on time and the stepper's A_h is
    exactly symmetric, Q_h = m(A_h)^N_t shares its eigenvectors, so every
    value follows from the eigenvalues of A_h, taken from its band by
    eigvals_banded, and no dense Q_h is built (the generator route).
    Otherwise the dense Q_h is decomposed: ``q_matrix`` if the caller has
    built it, else ``dense_propagator`` on the stepper (the dense route).
    Both routes refuse grids above DENSE_CAP nodes.
    log10 cond(Q_h) leaves the double range on fine grids; only the generator
    route resolves it there, as the dense route's SVD saturates near 1e19.
    """
    m = stepper.grid.size
    if m > DENSE_CAP:
        raise TooLarge(f"spectra need {m}x{m} storage; cap is {DENSE_CAP} nodes")
    if not stepper.coeffs.time_dependent:
        generator = stepper.generator.matrix
        if (generator != generator.T).nnz == 0:
            return _generator_spectrum(generator, stepper.timegrid)
    if q_matrix is None:
        q_matrix = dense_propagator(stepper)
    return _dense_spectrum(q_matrix, m)


def _generator_spectrum(generator, timegrid: TimeGrid) -> SpectralReport:
    """The summary of Q_h from the eigenvalues lambda of a symmetric A_h.

    Each lambda maps to the per-step multiplier
    m = (1 + (1-theta)*dt*lambda) / (1 - theta*dt*lambda) and to mu = m^N_t,
    with log|mu| = N_t log|m| taken via log1p so that condition numbers past
    1e300 stay representable.  Q_h is symmetric: its singular values are |mu|
    and those of I - Q_h are |1 - mu|.
    """
    lam = _banded_eigvalsh(generator)
    theta, steps = timegrid.theta, timegrid.steps
    # The explicit factor can cross zero under Crank-Nicolson, so fall back
    # from log1p to log|.| away from the well-conditioned neighborhood of 1.
    x = (1.0 - theta) * timegrid.dt * lam
    with np.errstate(divide="ignore", invalid="ignore"):
        log_num = np.where(x > -0.5, np.log1p(x), np.log(np.abs(1.0 + x)))
        log_mu = steps * (log_num - np.log1p(-theta * timegrid.dt * lam))
    mu = np.sign(1.0 + x) ** steps * np.exp(log_mu)
    gap = np.abs(1.0 - mu)
    if gap.min() <= 0.0:
        raise NumericalBreakdown("I - Q is numerically singular")
    # A zero multiplier makes Q singular: cond(Q) = inf, also where every
    # multiplier is zero and max - min would be nan.
    low = log_mu.min()
    return SpectralReport(
        eigenvalues=mu,
        spectral_radius=float(np.abs(mu).max()),
        log10_cond_Q=np.inf if low == -np.inf else float((log_mu.max() - low) / np.log(10.0)),
        cond_identity_minus_Q=float(gap.max() / gap.min()),
        route="generator",
    )


def _banded_eigvalsh(matrix) -> np.ndarray:
    """Ascending eigenvalues of a symmetric sparse matrix, from its lower band.

    The half-bandwidth is read from the matrix, max(row - col), so any node
    numbering (a masked grid, a mixed term's diagonal neighbours) is served.
    """
    lower = scipy.sparse.tril(matrix).tocoo()
    offset = lower.row - lower.col
    band = np.zeros((offset.max(initial=0) + 1, matrix.shape[0]))
    band[offset, lower.col] = lower.data
    return scipy.linalg.eigvals_banded(band, lower=True)


def _dense_spectrum(q_matrix: np.ndarray, m: int) -> SpectralReport:
    """The summary of a dense M x M propagator from its eigvals and two SVDs.

    A singular Q, a zero one among them, has log10 cond(Q) = inf.
    """
    q = np.asarray(q_matrix, dtype=float)
    if q.shape != (m, m):
        raise ValueError(f"propagator matrix must be {m}x{m}, got {q.shape}")
    if not np.all(np.isfinite(q)):
        raise NumericalBreakdown("propagator matrix contains non-finite entries")
    eigs = np.linalg.eigvals(q)
    sing = scipy.linalg.svdvals(q)
    sigma_max = float(sing[0])
    sigma_min = float(sing[-1])
    if sigma_min <= 0.0:
        log10_cond = np.inf
    else:
        log10_cond = float(np.log10(sigma_max) - np.log10(sigma_min))
    sing_iq = scipy.linalg.svdvals(np.eye(m) - q)
    if sing_iq[-1] <= 0.0:
        raise NumericalBreakdown("I - Q is numerically singular")
    return SpectralReport(
        eigenvalues=eigs,
        spectral_radius=float(np.max(np.abs(eigs))),
        log10_cond_Q=log10_cond,
        cond_identity_minus_Q=float(sing_iq[0] / sing_iq[-1]),
        route="dense",
    )
