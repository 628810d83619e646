"""Exception types shared across the package, and the refinement cap.

The split mirrors the CLI exit codes: validation problems exit 2,
resource/precision problems exit 3.

`REFINE_CAP`, the refinement steps a `RealEnclosure` may take before
it raises `PrecisionError`, is a context variable (PEP 567), like the
context of `decimal`: set inside `contextvars.copy_context().run(...)`,
as the CLI does for --precision-budget, it ends with that run.
"""

from contextvars import ContextVar

REFINE_CAP: ContextVar[int] = ContextVar("refine_cap", default=16)


class InputError(ValueError):
    """Rejected input: malformed, out of domain, or violating a precondition."""


class HypothesisViolation(InputError):
    """A required structural hypothesis (e.g. a monotonicity witness) is missing."""


class ResourceBudgetError(RuntimeError):
    """An enumeration or recursion would exceed its configured budget."""


class PrecisionError(RuntimeError):
    """An enclosure could not be refined further before a decision was reached."""


class UndecidableFloorError(PrecisionError):
    """A floor could not be certified: the enclosure straddles an integer at the cap."""
