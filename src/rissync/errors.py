"""Shared exception types."""

__all__ = ["FailureRateError", "SingularSystemError"]


class SingularSystemError(RuntimeError):
    """A linear system was too ill-conditioned to solve reliably.

    Carries the offending condition-number estimate so callers can decide
    whether to abort or to exclude the trial.
    """

    def __init__(self, what: str, cond: float):
        super().__init__(f"{what}: condition estimate {cond:.3e} exceeds tolerance")
        self.cond = cond


class FailureRateError(RuntimeError):
    """Too many Monte Carlo trials had to be excluded for numerical reasons."""

    def __init__(self, excluded: int, total: int, limit: float):
        super().__init__(
            f"excluded {excluded} of {total} trials "
            f"({excluded / total:.2%}); allowed at most {limit:.2%}"
        )
        self.excluded = excluded
        self.total = total
        self.limit = limit
