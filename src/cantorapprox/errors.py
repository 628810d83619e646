"""Exception types shared across the package, and the per-call budget.

The split mirrors the CLI exit codes: validation problems exit 2,
resource/precision problems exit 3.  `BUDGET` is a context variable
(PEP 567), like the context of `decimal`: set in a copy of the context,
as the CLI does for --precision-budget, it ends with that copy's run.
`check_bits` holds an operand about to be built to the budget's `bits`.
"""

from contextvars import ContextVar

from .records import Record


class Budget(Record):
    """The caps of one call, each checked on the thing about to be built."""

    steps: int = 12         # refinement levels of one enclosure (PrecisionError)
    bits: int = 1 << 23     # bit length of one operand about to be built (PrecisionError)
    cells: int = 1 << 22    # cells one enumeration may return (ResourceBudgetError)


BUDGET: ContextVar[Budget] = ContextVar("budget", default=Budget())


def power_bits(base: int, e: int) -> int:
    """Bit length of base^e, or at most e/64 + 1 over it, without building it."""
    return e * (base ** 64).bit_length() // 64 + 1


def text(n: int, spec: str = "") -> str:
    """format(n, spec), or n by its bit length past the int-to-str digit limit."""
    try:
        return format(n, spec)
    except ValueError:
        return f"{'-' * (n < 0)}<{n.bit_length():,}-bit integer>"


def check_bits(bits: int, operand: str, *numbers: int) -> None:
    """PrecisionError if an operand about to be built is over the bit budget,
    named by the template `operand` filled with `numbers` only then."""
    if bits > (cap := BUDGET.get().bits):
        name = operand.format(*map(text, numbers))
        raise PrecisionError(f"operand of {text(bits, ',')} bits ({name}) over the "
                             f"{cap:,}-bit budget")


class InputError(ValueError):
    """Rejected input: malformed, out of domain, or violating a precondition."""


class HypothesisViolation(InputError):
    """A required structural hypothesis (e.g. a monotonicity witness) is missing."""


class ResourceBudgetError(RuntimeError):
    """A cell enumeration, a prefix-rank table or a printed integer would exceed its limit."""


class PrecisionError(RuntimeError):
    """An enclosure stays undecided at the cap, or an operand is over the bit budget."""


class UndecidableFloorError(PrecisionError):
    """A floor could not be certified: the enclosure straddles an integer at the cap."""
