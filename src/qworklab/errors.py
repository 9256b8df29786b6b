"""Exception and warning types shared across the package."""


class QworklabError(Exception):
    """Base class for all package errors."""


class ValidationError(QworklabError):
    """An operator or scenario field violates a structural invariant.

    ``kind`` is one of ``NotHermitian``, ``NotUnitary``, ``NotDensity``,
    ``DimMismatch`` or ``EndpointMismatch``; ``path`` points at the offending
    field (e.g. ``"rho"`` or ``"evolution.breakpoints[2].H"``).
    """

    def __init__(self, kind: str, path: str, message: str):
        self.kind = kind
        self.path = path
        super().__init__(f"{kind} at '{path}': {message}")


class ParseError(QworklabError):
    """A scenario document is structurally malformed."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{message}" + (f" (at '{path}')" if path else ""))


class DomainError(QworklabError, ValueError):
    """A parameter lies outside the domain of the requested operation."""


class DimensionMismatch(QworklabError):
    """Operator shapes are incompatible with the requested operation."""


class NonConvergence(QworklabError):
    """The iterative eigensolver did not converge within the sweep budget."""


class ImaginaryResidue(QworklabError):
    """A quantity that must be real retained a significant imaginary part."""


class TrajectoryBudgetExceeded(QworklabError):
    """A trajectory enumeration would exceed the configured cap."""


class NotPositive(QworklabError):
    """A measurement element fails positivity at the requested parameter."""

    def __init__(self, lam: float, min_eigenvalue: float):
        self.lam = lam
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"two-copy element not positive at lambda={lam!r} "
            f"(min eigenvalue {min_eigenvalue:.3e})"
        )


class GridTooNarrow(QworklabError):
    """The pointer readout grid does not cover or resolve the density."""


class NotLinear(QworklabError):
    """A scheme admits no state-independent operator reconstruction."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(
            f"reconstruction residual {residual:.3e} exceeds linearity tolerance"
        )


class DecompositionMismatch(QworklabError):
    """A pure-state decomposition does not reconstruct the target state."""


class DegenerateRhoWarning(UserWarning):
    """The state eigenbasis is ambiguous (near-degenerate eigenvalues)."""


class DegenerateHamiltonianWarning(UserWarning):
    """A Hamiltonian with (near-)degenerate spectrum where non-degeneracy is assumed."""
