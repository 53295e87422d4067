"""Exception types shared across the package.

The CLI maps :class:`InputError` to exit code 2 and :class:`SolverError`
to exit code 3.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad file, bad flag, bad value)."""


class SolverError(RuntimeError):
    """A solver-level failure with a short stable name.

    Known names: "noise dominates signal", "error level exceeds matrix
    energy", "bracket exhausted", "zero-rank truncation", "undefined
    condition number", "spectrum overflow", "factorization failed".
    """

    def __init__(self, name, detail=""):
        self.name = name
        self.detail = detail
        super().__init__(f"{name}: {detail}" if detail else name)
