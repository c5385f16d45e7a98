"""Exception types shared across the package."""


class CapdistError(Exception):
    """Base class for all package-specific errors."""


class SpecValidationError(CapdistError):
    """A channel specification violates a structural invariant."""


class Infeasible(CapdistError):
    """A cost budget excludes every input distribution."""


class DegenerateUpdate(CapdistError):
    """Every exponent in the Blahut-Arimoto input update is -inf."""


class InstanceTooLarge(CapdistError):
    """A brute-force oracle was asked for a combinatorially infeasible instance."""


class InfeasibleConstraints(CapdistError):
    """No lattice point satisfies the distortion/cost constraints."""


class MemoryGuard(CapdistError):
    """A generated spec would exceed the dense-tensor memory budget."""
