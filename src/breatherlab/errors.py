"""Exception types, model kind names and the random-stream layout of the package.

This leaf imports nothing, so the configuration checks of the command line
can read it without loading NumPy or SciPy.
"""

SITE_KINDS = ("alloy", "breather", "tabulated")
VPER_KINDS = ("zero", "cosine-sum", "tabulated")
DIST_KINDS = ("uniform", "truncated-beta", "two-point-plus-uniform")
# Philox stream index base + (slot << shift) + k of realization k < 2**width of a
# role's slot, where slot < 2**(62 - shift) keeps the role in [base, base + 2**62)
STREAMS = {"realization": (0, 32, 32), "temple": (0, 20, 20), "dirichlet": (1 << 62, 22, 22)}


class DomainError(ValueError):
    """An argument lies outside the range a contract allows."""


class InputError(ValueError):
    """Malformed or incomplete input data (missing couplings, bad tables)."""


class StateError(RuntimeError):
    """An operation was requested before its prerequisites were computed."""


class GroundStateError(RuntimeError):
    """The periodic ground state came out degenerate or non-positive."""


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge.

    The best available iterate is attached as ``best`` (may be None).
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NumericalError(RuntimeError):
    """A factorization broke down beyond the retry policy."""


class PreconditionError(ValueError):
    """A configuration violates a stated hypothesis; names the violated one."""


class InsufficientDataError(RuntimeError):
    """Not enough admissible data points; names the window that was searched."""
