"""Exception types shared across the package."""


class DomainOverflowError(RuntimeError):
    """Support would be transported off the grid; the zero-extension
    boundary would then silently corrupt the answer."""


class ConvergenceFailureError(RuntimeError):
    """Successive-approximation loop did not reach tolerance.

    Carries the iterate-difference history so callers can report it.
    """

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


class SlabUnderflowError(RuntimeError):
    """A slab failed and cannot be shrunk: slab halving hit the
    single-step floor."""

    def __init__(self, message, slab_start, norms):
        super().__init__(message)
        self.slab_start = slab_start
        self.norms = norms
