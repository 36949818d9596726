"""Exception types shared across the package."""


class CzoError(Exception):
    """Base class for all library errors."""


class RejectedInputError(CzoError, ValueError):
    """An argument violated a documented precondition."""


class CurveValidityError(CzoError):
    """A curve declaration is inconsistent (e.g. vanishing Jacobian)."""


class ConsistencyError(CzoError):
    """An internal invariant that should be unbreakable was broken."""


class RegistryError(CzoError, KeyError):
    """A curve/kernel/function name is not registered."""
