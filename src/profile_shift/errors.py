"""Exception hierarchy shared by all solver modules.

Grouped into families so the CLI can map them onto distinct exit codes:
configuration problems, solver breakdowns, validation failures, and the
dense-oracle size cap.
"""


class ProfileShiftError(Exception):
    """Base class for all errors raised by this package."""


# --- configuration / input problems ---------------------------------------

class ConfigError(ProfileShiftError):
    """Invalid configuration or input data."""


class ParseError(ConfigError):
    """Config file is missing or not well-formed."""


class ValidationError(ConfigError):
    """Config field violates a range or exactly-one constraint."""


class BadResolution(ConfigError):
    """Fewer than one interior node along some axis, or too few distinct rungs in a sweep."""


class EmptyInterior(ConfigError):
    """Mask leaves no interior node in the domain."""


class NotSymmetric(ConfigError):
    """Diffusion matrix a(x,t) is not symmetric at a sampled point."""


class NotElliptic(ConfigError):
    """Smallest eigenvalue of a(x,t) falls below the ellipticity constant."""


class NegativeAbsorption(ConfigError):
    """Absorption rate q(x,t) is negative at a sampled point."""


class UnknownCase(ConfigError):
    """Convergence study requested for an unregistered closed-form case."""


# --- solver breakdowns -----------------------------------------------------

class SolverError(ProfileShiftError):
    """Numerical solver failed."""


class InnerSolveFailure(SolverError):
    """An implicit step's LU solve failed its column-by-column check.

    A column was not finite, or its normwise backward error stayed above
    propagator.INNER_BACKWARD_ERROR after one refinement pass.
    """


class NoConvergence(SolverError):
    """Outer Krylov iteration hit its iteration cap.

    The message names a cause only where the scheme itself establishes one:
    under Crank-Nicolson (theta = 1/2) the per-step multiplier of a stiff
    mode tends to -1, so rho(Q) nears 1 on fine grids with few steps.
    """

    def __init__(self, iterations: int, residual: float, theta: float):
        self.iterations = iterations
        self.residual = residual
        self.theta = theta
        message = (
            f"Krylov iteration did not converge after {iterations} iterations "
            f"(relative residual {residual:.3e})"
        )
        if theta == 0.5:
            message += (
                "; under Crank-Nicolson (theta = 0.5) the per-step multiplier of "
                "stiff modes tends to -1, so rho(Q) nears 1: raise N_t, or use "
                "theta > 1/2"
            )
        else:
            message += "; raise max_iter or loosen tol"
        super().__init__(message)


class PostCheckFailure(SolverError):
    """A-posteriori profile-shift identity check failed (internal inconsistency)."""


# --- validation outcomes ---------------------------------------------------

class CheckFailure(ProfileShiftError):
    """A mandatory validation check did not pass."""


class NonpositiveMass(CheckFailure):
    """Discrete integral of u(.,0) is not positive; normalization undefined."""


# --- dense-oracle limits ---------------------------------------------------

class TooLarge(ProfileShiftError):
    """Grid exceeds the dense-oracle size cap."""


class NumericalBreakdown(ProfileShiftError):
    """I - Q is numerically singular, or a dense Q has non-finite entries.

    Raised by the deflation projector (a slow mode with |1 - mu| <= eps, a
    horizon with T ||A_h||_inf <= eps / 2, which puts every mu within eps of
    1, or an A_h that SuperLU finds exactly singular before ARPACK runs), by
    the generator spectrum (some |1 - mu| = 0), by the dense spectrum (a
    non-finite Q, or a zero singular value of I - Q) and by the CLI's oracle
    (a dense I - Q that LAPACK finds singular).
    """
