"""Exception types shared across the toolkit."""

# Python refuses to convert an int of more than 4300 decimal digits to text
# by default, and every p below 2**14_000 has fewer. Callers that print p
# size it under this limit so they fail with the overflow reason instead.
PRINTABLE_P_BIT_LIMIT = 14_000


class PumpkitError(Exception):
    """Base class for all toolkit errors."""


class PumpingLengthOverflowError(PumpkitError):
    """The pumping length would exceed the configured representable range.

    Carries p' and the would-be exponent so callers can report how far out
    of range the machine is.
    """

    def __init__(self, p_prime: int, base: int, exponent: int, bit_limit: int):
        self.p_prime = p_prime
        self.base = base
        self.exponent = exponent
        self.bit_limit = bit_limit
        super().__init__(
            f"pumping length {base}^{exponent} scaled by the state count exceeds "
            f"{bit_limit} bits (p'={p_prime})"
        )


class FormatError(PumpkitError):
    """A machine document failed structural parsing or validation."""


class ExtractionError(PumpkitError):
    """Base class for decomposition extraction failures."""


class NotAcceptedError(ExtractionError):
    """The word is provably not accepted, so no decomposition exists."""


class StrictPreconditionError(ExtractionError):
    """Strict mode requires the word to be longer than the pumping length."""

    def __init__(self, word_length: int, p: int):
        self.word_length = word_length
        self.p = p
        shown = f"p={p}" if p.bit_length() <= PRINTABLE_P_BIT_LIMIT else f"p has {p.bit_length()} bits"
        super().__init__(f"strict mode needs |w| > p but |w|={word_length} and {shown}")


class SearchLimitError(ExtractionError):
    """The run search hit a step or stack-height limit before settling membership."""

    def __init__(self, by_steps: bool, by_height: bool):
        self.by_steps = by_steps
        self.by_height = by_height
        which = ", ".join(
            name for name, hit in (("max_steps", by_steps), ("max_stack_height", by_height)) if hit
        )
        super().__init__(f"search truncated by {which or 'a limit'}")


class NoWitnessError(ExtractionError):
    """Best-effort extraction found no usable repetition in the run."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class TopSymbolMismatchError(PumpkitError):
    """The two stack tops tied to a full state disagree.

    On consistent runs they provably coincide; seeing this means the run path
    or its profile was corrupted, and extraction must abort.
    """


class ConstructionFalsifiedError(PumpkitError):
    """Every strict-mode candidate failed replay verification.

    Must never happen if the underlying construction is sound; surfaced loudly
    instead of being folded into a normal failure.
    """
