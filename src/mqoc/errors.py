"""Exception types shared across the package."""


class RejectedInputError(ValueError):
    """Input violates a documented precondition or invariant."""


class DimensionMismatchError(RejectedInputError):
    """Operands have incompatible shapes."""


class DegenerateStateError(RejectedInputError):
    """A state lost essentially all of its trace and cannot be repaired."""


class NumericalBlowupError(ArithmeticError):
    """An integration step produced non-finite values."""

    def __init__(self, message, step_index=None, t=None):
        super().__init__(message)
        self.step_index = step_index
        self.t = t


class StabilityError(RejectedInputError):
    """An explicit scheme was configured outside its stability region."""
