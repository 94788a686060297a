"""Exception types shared across the package.

Numerical failures raise subclasses of :class:`GLLabError` so the CLI can
map them onto a single exit code; configuration problems use
:class:`ConfigInvalid` and exit differently.
"""


class GLLabError(Exception):
    """Base class for numerical / model errors raised by this package."""


class QuadratureDiverged(GLLabError):
    """Integrand mass leaking past the truncated quadrature window, or a
    doubling check that failed to converge."""


class RootNotBracketed(GLLabError):
    """Monotone root solve could not bracket the target even after
    geometric expansion of the search interval."""


class NonFiniteState(GLLabError):
    """Particle state left the finite range (time-step blow-up)."""


class NonFiniteField(GLLabError):
    """PDE field left the finite range (time-step blow-up)."""


class CFLViolation(GLLabError):
    """Requested time step violates an explicit scheme's step bound: the
    PDE's CFL bound or the particle system's dt <= c/N^2 stability rule."""


class TimeGridMismatch(GLLabError):
    """Two measure paths do not share a common snapshot grid."""


class DegenerateEstimate(GLLabError):
    """Monte Carlo estimate degenerated (non-finite values or vanishing
    weight mass); reported instead of returning a silent NaN."""


class ConfigInvalid(Exception):
    """Bad or unknown configuration input (CLI exit code 2)."""
