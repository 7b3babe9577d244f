"""Exception types shared across the package."""


class DpemError(Exception):
    """Base class for all package errors."""


class DataError(DpemError):
    """Malformed or out-of-contract input data (non-finite rows, ragged CSV, ...)."""


class DegenerateComponentError(DpemError):
    """A mixture component received (numerically) no responsibility mass."""

    def __init__(self, component: int, count: float):
        self.component = component
        self.count = count
        super().__init__(
            f"component {component} is degenerate (soft count {count:.3e})"
        )

    def __reduce__(self):  # pickle the constructor arguments, not the message
        return type(self), (self.component, self.count)


class SingularCovarianceError(DpemError):
    """A component covariance is not positive definite."""

    def __init__(self, component: int):
        self.component = component
        super().__init__(f"covariance of component {component} is singular")

    def __reduce__(self):
        return type(self), (self.component,)


class UnattainableBudgetError(DpemError):
    """No per-iteration budget satisfies the requested total privacy budget."""
